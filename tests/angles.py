"""Principal angles between column ranges, for the tests.

Only the tests compare ranges by angle, so this helper lives beside
``ode_oracle.py`` and uses scipy's ``orth`` and ``subspace_angles``,
which keeps scipy out of the package imports.
"""

import numpy as np
import scipy.linalg

from calderon.errors import StructureError


def principal_angles(rep_a, rep_b):
    """Principal angles between the column ranges of two matrices."""
    qa = scipy.linalg.orth(rep_a)
    qb = scipy.linalg.orth(rep_b)
    if qa.shape[1] != qb.shape[1]:
        raise StructureError("ranges have different dimensions")
    if qa.shape[1] == 0:
        return np.zeros(0)
    return scipy.linalg.subspace_angles(qa, qb)
