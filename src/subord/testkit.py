"""Named families of test functions with known transforms.

Every family produces a :class:`TestFunction`: a label, a vectorized profile,
the closed-form transform when one is known, and a smoothness order used to
decide which polynomial symbols may act on the function without running out
of frequency decay.  The fixed suites below are the corpora used by the
verification drivers; their order is part of the reported output, so it never
changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridTooSmallError, InvalidParameterError
from .fourier_core import SPACE, GridSpec, SampledFunction, _finite, _outer_band

__all__ = [
    "TestFunction",
    "gaussian",
    "exp_abs",
    "bump",
    "bspline",
    "modulated_gaussian",
    "materialize",
    "means_suite",
    "diffop_suite",
]

#: smoothness order assigned to functions with superpolynomial frequency decay
RAPID_DECAY = 99

#: relative outer-band level above which a window is considered too small
_BOUNDARY_LEVEL = 1e-10


@dataclass(frozen=True)
class TestFunction:
    """One concrete test function.

    ``transform`` is the closed-form frequency profile or ``None`` when no
    closed form is used.  ``smoothness_order`` is the largest polynomial
    degree that can act on the function while its frequency samples still
    decay at the dual window edge; rapidly decaying profiles use the
    sentinel value 99.
    """

    label: str
    profile: Callable[[np.ndarray], np.ndarray]
    transform: Optional[Callable[[np.ndarray], np.ndarray]]
    smoothness_order: int


def _fmt(value: float) -> str:
    # compact parameter tag safe for CSV cells and pytest ids
    if float(value) == int(value):
        return str(int(value))
    return str(float(value)).replace(".", "p").replace("-", "m")


def gaussian(a: float = 1.0) -> TestFunction:
    """``exp(-(x/a)^2)`` with transform ``a sqrt(pi) exp(-(a y)^2 / 4)``."""
    a = _finite(a, "gaussian width")
    return TestFunction(
        label=f"gaussian_a{_fmt(a)}",
        profile=lambda x: np.exp(-((x / a) ** 2)),
        transform=lambda y: a * np.sqrt(np.pi) * np.exp(-((a * y) ** 2) / 4.0),
        smoothness_order=RAPID_DECAY,
    )


def exp_abs(a: float = 1.0) -> TestFunction:
    """``exp(-|x|/a)`` with transform ``2 a / (1 + (a y)^2)``.

    The kink at the origin caps the usable polynomial degree at zero: the
    transform only decays like ``y^-2``.
    """
    a = _finite(a, "exp_abs width")
    return TestFunction(
        label=f"exp_abs_a{_fmt(a)}",
        profile=lambda x: np.exp(-np.abs(x) / a),
        transform=lambda y: 2.0 * a / (1.0 + (a * y) ** 2),
        smoothness_order=0,
    )


def bump(R: float = 1.0) -> TestFunction:
    """Peak-normalized smooth bump supported on ``[-R, R]``; no closed transform."""
    R = _finite(R, "bump radius")

    def profile(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < R
        t = x[inside] / R
        out[inside] = np.e * np.exp(-1.0 / (1.0 - t * t))
        return out

    return TestFunction(
        label=f"bump_R{_fmt(R)}",
        profile=profile,
        transform=None,
        smoothness_order=RAPID_DECAY,
    )


def _bspline_basis(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Cox-de Boor recursion for the one B-spline on ``knots``, in the order of
    # operations of the standard de Boor evaluator: the knot vector is padded
    # by ``k`` knots one unit beyond each end and, on the knot interval ``l``
    # holding ``x``, the ``k + 1`` nonzero basis values ``h`` are built up;
    # the element's value is ``h[2k - l]``.  Zero outside the support.
    k = knots.size - 2
    t = np.concatenate([np.full(k, knots[0] - 1.0), knots, np.full(k, knots[-1] + 1.0)])
    out = np.zeros(x.shape)
    inside = (x >= knots[0]) & (x <= knots[-1])
    xs = x[inside]
    ell = np.minimum(np.searchsorted(t, xs, side="right") - 1, k + knots.size - 2)
    h = np.zeros((k + 1, xs.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for n in range(1, j + 1):
            xb = t[ell + n]
            xa = t[ell + n - j]
            w = hh[n - 1] / (xb - xa)
            h[n - 1] += w * (xb - xs)
            h[n] = w * (xs - xa)
    out[inside] = h[2 * k - ell, np.arange(xs.size)]
    return out


def bspline(m: int = 4) -> TestFunction:
    """Centered cardinal B-spline: ``m``-fold convolution of the unit box.

    Supported on ``[-m/2, m/2]`` with transform ``(sin(y/2) / (y/2))^m``.
    It has ``m - 2`` continuous derivatives, so polynomial symbols up to
    degree ``m - 2`` may act on it.
    """
    if not (isinstance(m, int) and m >= 2):
        raise InvalidParameterError(f"bspline order must be an integer >= 2, got {m!r}")
    knots = np.arange(m + 1, dtype=float) - m / 2.0

    return TestFunction(
        label=f"bspline_m{m}",
        profile=lambda x: _bspline_basis(knots, np.asarray(x, dtype=float)),
        transform=lambda y: np.sinc(y / (2.0 * np.pi)) ** m,
        smoothness_order=m - 2,
    )


def modulated_gaussian(a: float = 1.0, omega: float = 3.0) -> TestFunction:
    """``exp(-(x/a)^2) exp(i omega x)``: a gaussian carried to frequency ``omega``."""
    a, omega = _finite(a, "gaussian width"), _finite(omega, "frequency", positive=False)
    return TestFunction(
        label=f"modulated_gaussian_a{_fmt(a)}_w{_fmt(omega)}",
        profile=lambda x: np.exp(-((x / a) ** 2)) * np.exp(1j * omega * x),
        transform=lambda y: a * np.sqrt(np.pi) * np.exp(-((a * (y - omega)) ** 2) / 4.0),
        smoothness_order=RAPID_DECAY,
    )


def materialize(fn: TestFunction, grid: GridSpec) -> SampledFunction:
    """Sample ``fn`` on the grid, refusing windows the function does not fit.

    Raises :class:`GridTooSmallError` when a sample in the outer 10% of the
    window exceeds ``1e-10`` of the peak, since such a window would leak
    tail mass around the circular boundary of every downstream transform.
    """
    values = np.asarray(fn.profile(grid.nodes()), dtype=np.complex128)
    band, peak = _outer_band(values)
    if band > _BOUNDARY_LEVEL * peak:
        raise GridTooSmallError(
            f"{fn.label} reaches {band / peak:.2e} of its peak in the outer 10% of "
            f"[-{grid.half_length}, {grid.half_length}); enlarge the window")
    return SampledFunction(grid, values, SPACE)


def means_suite() -> list[TestFunction]:
    """Fixed corpus for summability-mean comparisons (order is contractual)."""
    return [
        gaussian(1.0),
        gaussian(4.0),
        exp_abs(1.0),
        bump(2.0),
        bspline(4),
        modulated_gaussian(1.0, 3.0),
    ]


def diffop_suite(required_order: int) -> list[TestFunction]:
    """Members of the standard corpus smooth enough for degree ``required_order`` symbols."""
    return [fn for fn in means_suite() if fn.smoothness_order >= required_order]
