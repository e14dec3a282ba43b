"""Exception hierarchy shared by all modules.

Every failure mode that a caller may want to branch on gets its own class.
Each class derives from exactly one of :class:`HypothesisError` and
:class:`NumericalError`, whose ``exit_code`` the CLI returns (bad
configuration is the CLI's own exit code 3).
"""

__all__ = [
    "SubordinationError",
    "HypothesisError",
    "NumericalError",
    "InvalidParameterError",
    "GridTooSmallError",
    "InconsistentLimitError",
    "NestedZerosViolatedError",
    "FillUndefinedError",
    "AllCasesSkippedError",
    "HypothesesViolatedError",
    "NeighborhoodDegenerateError",
    "BandwidthExceededError",
    "InadmissibleExponentsError",
    "KernelUnresolvableError",
    "VerificationFailureError",
]


class SubordinationError(Exception):
    """Base class for all errors raised by this package."""


class HypothesisError(SubordinationError):
    """The requested comparison is structurally impossible; CLI exit code 1."""

    exit_code = 1


class NumericalError(SubordinationError):
    """A numerical verification failed or cannot be completed on this grid; CLI exit code 2."""

    exit_code = 2


class InvalidParameterError(HypothesisError):
    """A parameter is outside its documented domain."""


class GridTooSmallError(NumericalError):
    """The grid is too small: a function does not decay inside its window, or a
    band of the dual window that an estimate reads holds no node."""


class InconsistentLimitError(NumericalError):
    """The two one-sided limits of a multiplier at the grid edge disagree."""


class NestedZerosViolatedError(HypothesisError):
    """The numerator multiplier does not vanish on the denominator's zero set."""


class FillUndefinedError(NumericalError):
    """A zero region touches the grid boundary, so no limit fill exists."""


class AllCasesSkippedError(NumericalError):
    """Every verification case was skipped (all denominators negligible)."""


class HypothesesViolatedError(HypothesisError):
    """Structural hypotheses of a decomposition fail; carries the violations."""

    def __init__(self, violations):
        self.violations = violations
        details = "; ".join(v.detail for v in violations)
        super().__init__(f"decomposition hypotheses violated: {details}")


class NeighborhoodDegenerateError(NumericalError):
    """A root neighborhood is too narrow for the dual grid or leaves its window."""


class BandwidthExceededError(NumericalError):
    """A symbol-times-transform product has not decayed at the dual-grid edge."""


class InadmissibleExponentsError(HypothesisError):
    """The requested Lebesgue exponents are outside the admissible ranges."""


class KernelUnresolvableError(NumericalError):
    """The dilated kernel is narrower than the grid can resolve."""


class VerificationFailureError(NumericalError):
    """The reconstructed symbol ``h1 op1 + h2 op2`` misses the target beyond rounding."""
