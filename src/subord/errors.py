"""Exception hierarchy shared by all modules.

Every failure mode that a caller may want to branch on gets its own class;
the CLI maps these onto exit codes (hypothesis violations vs. numerical
failures vs. bad configuration).
"""

__all__ = [
    "SubordinationError",
    "InvalidParameterError",
    "GridMismatchError",
    "GridTooSmallError",
    "InconsistentLimitError",
    "NonConvergentError",
    "NotApplicableError",
    "NestedZerosViolatedError",
    "FillUndefinedError",
    "AllCasesSkippedError",
    "HypothesesViolatedError",
    "MultiplicityObstructionError",
    "NeighborhoodDegenerateError",
    "BandwidthExceededError",
    "InadmissibleExponentsError",
    "KernelUnresolvableError",
    "VerificationFailureError",
]


class SubordinationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SubordinationError):
    """A parameter is outside its documented domain."""


class GridMismatchError(SubordinationError):
    """Two sampled functions live on different grids (or different sides)."""


class GridTooSmallError(SubordinationError):
    """The requested function does not decay inside the grid window."""


class InconsistentLimitError(SubordinationError):
    """The two one-sided limits of a multiplier at the grid edge disagree."""


class NonConvergentError(SubordinationError):
    """A refinement stability check failed (estimate not trustworthy)."""


class NotApplicableError(SubordinationError):
    """A sufficient criterion cannot be evaluated for this input."""


class NestedZerosViolatedError(SubordinationError):
    """The numerator multiplier does not vanish on the denominator's zero set."""


class FillUndefinedError(SubordinationError):
    """A zero region touches the grid boundary, so no limit fill exists."""


class AllCasesSkippedError(SubordinationError):
    """Every verification case was skipped (all denominators negligible)."""


class HypothesesViolatedError(SubordinationError):
    """Structural hypotheses of a decomposition fail; carries the check result."""

    def __init__(self, check):
        self.check = check
        details = "; ".join(v.detail for v in check.violations)
        super().__init__(f"decomposition hypotheses violated: {details}")


class MultiplicityObstructionError(SubordinationError):
    """The bounded-cofactor certificate failed: sup grows under refinement."""


class NeighborhoodDegenerateError(SubordinationError):
    """Two root neighborhoods collapse onto each other."""


class BandwidthExceededError(SubordinationError):
    """A symbol-times-transform product has not decayed at the dual-grid edge."""


class InadmissibleExponentsError(SubordinationError):
    """The requested Lebesgue exponents are outside the admissible ranges."""


class KernelUnresolvableError(SubordinationError):
    """The dilated kernel is narrower than the grid can resolve."""


class VerificationFailureError(SubordinationError):
    """An internal residual certificate failed (root or identity residual)."""
