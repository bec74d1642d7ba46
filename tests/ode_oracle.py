"""Independent Cauchy-space oracle for the tests.

The Cauchy data spaces of one mode are computed by integrating the ODEs
phi' = -b phi and tau' = +b tau with an adaptive Runge-Kutta method, so
they check the matrix-exponential graph projection of
:mod:`calderon.projector` without sharing its code.  Only the tests use
this oracle, which keeps ``scipy.integrate`` out of the package imports.
"""

from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg

from calderon.errors import CertificationError


@dataclass
class CauchySpaces:
    """Bases of the two Cauchy data spaces of one mode, with certificates."""

    eta: float
    h1: np.ndarray  # (2 q2, q2) columns span side-1 traces
    h2: np.ndarray
    orthogonality_defect: float
    min_angle: float

    @property
    def dim_total(self):
        return self.h1.shape[1] + self.h2.shape[1]


def _ode_propagator(b_mat, sign, rtol=1e-12, atol=1e-14):
    """Fundamental solution of phi' = sign * b phi at u = 1, by integration.

    Deliberately avoids the matrix exponential so it can serve as an
    independent oracle for it.
    """
    q2 = b_mat.shape[0]

    def rhs(_, y):
        phi = y.reshape(q2, q2)
        return (sign * (b_mat @ phi)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, 1.0),
        np.eye(q2, dtype=complex).ravel(),
        rtol=rtol,
        atol=atol,
        method="DOP853",
    )
    if not sol.success:
        raise CertificationError("Cauchy-space ODE integration failed")
    return sol.y[:, -1].reshape(q2, q2)


def cauchy_space_oracle(model, eta):
    """Cauchy data spaces of one mode from direct ODE solves.

    H1 collects the u=0 and u=1 traces of decaying side-1 solutions
    phi' = -b phi; H2 those of the side-2 solutions in the pulled-back
    gauge, tau' = +b tau, whose contribution to the double trace carries
    the gluing sign at u=1.
    """
    b = model.tangential_matrix(eta)
    q2 = b.shape[0]
    prop_minus = _ode_propagator(b, -1.0)  # e^{-b}
    prop_plus = _ode_propagator(b, +1.0)  # e^{+b}
    h1 = np.vstack([np.eye(q2), prop_minus])
    h2 = np.vstack([np.eye(q2), -prop_plus])
    gram = h1.conj().T @ h2
    orth = float(np.linalg.norm(gram, 2))
    angles = scipy.linalg.subspace_angles(h1, h2)
    return CauchySpaces(
        eta=float(eta),
        h1=h1,
        h2=h2,
        orthogonality_defect=orth,
        min_angle=float(angles.min()) if angles.size else np.pi / 2,
    )


def graph_projection_least_squares(basis):
    """Orthogonal projection onto the column span, via normal equations."""
    gram = basis.conj().T @ basis
    return basis @ np.linalg.solve(gram, basis.conj().T)
