"""Desk-scale verification toolkit for subordination of convolution operators.

The package realizes convolution operators on the real line through a
discrete transform pair and verifies, numerically and with explicit
constants, three layers of domination between them:

``fourier_core``
    symmetric grids, the transform pair, symbol application, norms.
``testkit``
    named test functions with known transforms and smoothness metadata.
``measures``
    measure-norm (Wiener-algebra) estimation of a symbol.
``comparison``
    multiplier registry and the ratio-based domination of one convolution
    operator by another.
``summability``
    smoothing means ``exp(-|eps y|^alpha)`` and error subordination between
    different orders.
``diffops``
    polynomial differential operators, two-cofactor decompositions, and
    mixed-exponent norm domination.
``cli``
    the ``subord`` command-line front end.
"""

from .errors import (
    AllCasesSkippedError,
    BandwidthExceededError,
    FillUndefinedError,
    GridMismatchError,
    GridTooSmallError,
    HypothesesViolatedError,
    HypothesisError,
    InadmissibleExponentsError,
    InconsistentLimitError,
    InvalidParameterError,
    KernelUnresolvableError,
    NeighborhoodDegenerateError,
    NestedZerosViolatedError,
    NumericalError,
    SubordinationError,
    VerificationFailureError,
)
from .fourier_core import (
    FREQUENCY,
    SPACE,
    GridSpec,
    SampledFunction,
    apply_symbol,
    forward_ft,
    inverse_ft,
    lp_norm,
)
from .testkit import (
    TestFunction,
    bspline,
    bump,
    diffop_suite,
    exp_abs,
    gaussian,
    materialize,
    means_suite,
    modulated_gaussian,
)
from .measures import WienerEstimate, wiener_norm
from .comparison import (
    Case,
    Multiplier,
    Report,
    apply_multiplier,
    constant,
    exp_abs_ft,
    gaussian_ft,
    gw_ratio,
    gw_symbol,
    named_multiplier,
    one_minus_gw_symbol,
    ratio_multiplier,
    verify_comparison,
)
from .summability import (
    gw_constant,
    gw_error,
    gw_mean,
    gw_verify,
)
from .diffops import (
    SymbolDecomposition,
    apply_diffop,
    construct_decomposition,
    decomposition_hypotheses,
    diffop_subordination,
    partner_exponent,
    poly_label,
    real_roots,
)

__version__ = "0.1.0"
