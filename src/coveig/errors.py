"""Exception taxonomy for coveig.

Every failure mode that callers are expected to branch on gets its own
class; all inherit from CoveigError so a bare except-and-report stays easy.
"""

from __future__ import annotations

__all__ = [
    "CoveigError",
    "ModelError",
    "DimensionError",
    "InfeasibleMultiplicityError",
    "InputError",
    "ConvergenceError",
    "PoleProximityError",
    "ContourError",
    "ConditioningError",
    "InvalidRootsError",
    "InvalidWeightsError",
    "IllConditionedResidueError",
    "SeparabilityError",
    "BracketError",
]


class CoveigError(Exception):
    """Base class for all package-specific errors."""


class ModelError(CoveigError, ValueError):
    """Invalid population model parameters."""


class DimensionError(CoveigError, ValueError):
    """Matrix or vector dimensions incompatible with the request."""


class InfeasibleMultiplicityError(CoveigError, ValueError):
    """Requested N too small for some weight to get at least one copy."""


class InputError(CoveigError, ValueError):
    """Malformed numerical input (non-finite entries, non-Hermitian, ...)."""


class ConvergenceError(CoveigError, RuntimeError):
    """An iterative scheme failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class PoleProximityError(CoveigError, ValueError):
    """Evaluation point too close to a pole (an eigenvalue) of a transform."""


class ContourError(CoveigError, ValueError):
    """Contour fails a geometric or analytic precondition."""


class ConditioningError(CoveigError, RuntimeError):
    """A linear system is numerically singular (condition number too large)."""

    def __init__(self, message: str, cond: float | None = None):
        super().__init__(message)
        self.cond = cond


class InvalidRootsError(CoveigError, RuntimeError):
    """Recovered polynomial roots violate feasibility (complex/negative/tied).

    Typically means finite-sample noise pushed the moment vector outside the
    feasible cone; callers may retry with more data or use projection mode.
    """


class InvalidWeightsError(CoveigError, RuntimeError):
    """Recovered mixture weights fall outside the plausible range."""


class IllConditionedResidueError(CoveigError, RuntimeError):
    """Residue summation unreliable because secular roots nearly coincide.

    coveig no longer raises it: the residue route reads power sums, not
    secular roots. The class stays for callers that still name it.
    """


class SeparabilityError(CoveigError, RuntimeError):
    """Operation requires a separable model (one support cluster per rho)."""


class BracketError(CoveigError, RuntimeError):
    """Internal root bracketing failed; carries diagnostics for the report."""
