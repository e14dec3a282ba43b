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
    operator by another; one driver checks it, also for the summability means.
``summability``
    the smoothing means ``exp(-|eps y|^alpha)`` (``gw_mean``) and their error
    subordination (``gw_verify``): the comparison principle applied to the error
    symbols ``1 - exp(-|eps y|^alpha)``.  Only these two are left, because the
    benchmark's tracer wraps both.
``diffops``
    polynomial differential operators, two-cofactor decompositions, and
    mixed-exponent norm domination.
``cli``
    the ``subord`` command-line front end.

Every name in a library module's ``__all__`` is a name of the package too.
"""

from .errors import *
from .fourier_core import *
from .testkit import *
from .measures import *
from .comparison import *
from .summability import *
from .diffops import *

__version__ = "0.1.0"
