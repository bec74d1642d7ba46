"""Exception classes shared across the package.

Separate classes are used so callers can distinguish bad input
(:class:`StructureError`) from computations whose numerical certificate
failed (:class:`CertificationError`).
"""


class CalderonError(Exception):
    """Base class for all package errors."""


class StructureError(CalderonError):
    """Raised when arguments are structurally incompatible.

    Examples: rank or algebra mismatch between module vectors, an operator
    that is not a projection where one is required, a trace slice that is
    not a grid point.
    """


class CertificationError(CalderonError):
    """Raised when a numerical certificate cannot be established.

    Examples: a range that is not certifiably closed, a double system whose
    smallest singular value is below tolerance, a sign iteration pinched by
    an eigenvalue near zero.
    """


class SpectrumError(CalderonError):
    """Raised when an eigenvalue computation fails.

    Carries a condition-number estimate of the offending matrix in
    ``cond_estimate``.
    """

    def __init__(self, msg, cond_estimate=None):
        super().__init__(msg)
        self.cond_estimate = cond_estimate
