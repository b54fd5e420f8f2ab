"""Exception types shared across the package."""


class ShapeApproxError(Exception):
    """Base class for all package errors."""


class BasisError(ShapeApproxError):
    """Operation received a polynomial in an unexpected basis or degree."""


class DomainError(ShapeApproxError):
    """Evaluation point outside the valid domain of the representation."""


class PrecisionError(ShapeApproxError):
    """Floating-point precision was insufficient for a certified step."""


class RegimeError(ShapeApproxError, ValueError):
    """Parameters outside the range where a construction is defined. It is
    also a ValueError, the type Python gives a bad argument value."""


class SolverError(ShapeApproxError):
    """Linear-programming solver failed to converge."""
