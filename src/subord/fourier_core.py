"""Uniform symmetric grids and the discrete transform pair on the line.

The package approximates the transform pair

    F(y) = int f(x) exp(-i x y) dx,
    f(x) = (2 pi)^(-1) int F(y) exp(i x y) dy,

on a uniform grid of ``N`` nodes covering the half-open window ``[-L, L)``
with spacing ``dx = 2 L / N``.  The dual grid covers ``[-pi/dx, pi/dx)`` with
spacing ``dy = 2 pi / (N dx)``.  With node ``j`` at ``(j - N/2) dx`` and dual
node ``k`` at ``(k - N/2) dy``, the rectangle-rule approximation of the
forward integral is an FFT conjugated by index shifts, and the discrete pair
is exactly invertible.

All quadrature in this package is the rectangle rule on these grids; sums are
evaluated with numpy's deterministic reducer, so repeated runs in one
environment are bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidParameterError

__all__ = [
    "SPACE",
    "FREQUENCY",
    "GridSpec",
    "SampledFunction",
    "WraparoundWarning",
    "make_grid",
    "forward_ft",
    "inverse_ft",
    "apply_symbol",
    "lp_norm",
    "convolve",
]

SPACE = "space"
FREQUENCY = "frequency"

#: fraction of the window counted as the "outer" band in decay checks
_OUTER_BAND = 0.10
#: decay level (relative to the peak) required inside the outer band
_DECAY_LEVEL = 1e-8


class WraparoundWarning(UserWarning):
    """A convolution input has not decayed inside the outer band of its grid.

    Circular convolution will fold the tails back into the window; the
    result is still returned and the caller decides whether that matters.
    """


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid of ``size`` nodes covering ``[-half_length, half_length)``.

    Parameters
    ----------
    half_length : float
        Window half-length ``L``; the grid covers ``[-L, L)``.
    size : int
        Node count ``N``; must be a power of two, at least 16, so the dual
        grid nests exactly under refinement.
    """

    half_length: float
    size: int

    def __post_init__(self) -> None:
        L, N = self.half_length, self.size
        if not (isinstance(L, (int, float)) and math.isfinite(L) and L > 0):
            raise InvalidParameterError(f"half_length must be finite and positive, got {L!r}")
        if not isinstance(N, int) or isinstance(N, bool):
            raise InvalidParameterError(f"size must be an integer, got {N!r}")
        if N < 16 or (N & (N - 1)) != 0:
            raise InvalidParameterError(f"size must be a power of two >= 16, got {N}")
        object.__setattr__(self, "half_length", float(L))

    @property
    def dx(self) -> float:
        """Node spacing ``2 L / N``."""
        return 2.0 * self.half_length / self.size

    @property
    def dy(self) -> float:
        """Dual-grid spacing ``2 pi / (N dx) = pi / L``."""
        return 2.0 * math.pi / (self.size * self.dx)

    @property
    def dual_half_length(self) -> float:
        """Half-length ``pi / dx`` of the dual window."""
        return math.pi / self.dx

    def nodes(self) -> np.ndarray:
        """Spatial nodes ``(j - N/2) dx``; node 0 is exactly ``-L``, node N/2 exactly 0."""
        return (np.arange(self.size) - self.size // 2) * self.dx

    def dual_nodes(self) -> np.ndarray:
        """Dual nodes ``(k - N/2) dy``; node N/2 is exactly 0."""
        return (np.arange(self.size) - self.size // 2) * self.dy

    def refined(self, factor: int) -> "GridSpec":
        """Grid with the same spacing and a ``factor`` times larger window."""
        return GridSpec(self.half_length * factor, self.size * factor)


def make_grid(half_length: float, size: int) -> GridSpec:
    """Validate and build a :class:`GridSpec`."""
    return GridSpec(half_length, size)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of one function on one side (space or frequency) of a grid.

    Values are stored as an immutable complex128 array of length
    ``grid.size``; non-finite entries are rejected at construction.
    """

    grid: GridSpec
    values: np.ndarray
    side: str

    def __post_init__(self) -> None:
        if self.side not in (SPACE, FREQUENCY):
            raise InvalidParameterError(f"side must be {SPACE!r} or {FREQUENCY!r}, got {self.side!r}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.size,):
            raise InvalidParameterError(
                f"values must have shape ({self.grid.size},), got {vals.shape}")
        if not np.isfinite(vals).all():
            raise InvalidParameterError("values contain non-finite entries")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _check_compatible(self, other: "SampledFunction") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("operands live on different grids")
        if self.side != other.side:
            raise GridMismatchError("operands live on different sides")

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        return SampledFunction(self.grid, self.values + other.values, self.side)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        return SampledFunction(self.grid, self.values - other.values, self.side)


def forward_ft(f: SampledFunction) -> SampledFunction:
    """Discrete approximation of ``F(y) = int f(x) exp(-i x y) dx``.

    The rectangle-rule sum over the symmetric grid equals an FFT conjugated
    by half-length index shifts, so the approximation error comes only from
    sampling and windowing, never from node/phase misalignment.
    """
    if f.side != SPACE:
        raise InvalidParameterError("forward_ft expects a space-side function")
    spec = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f.values))) * f.grid.dx
    return SampledFunction(f.grid, spec, FREQUENCY)


def inverse_ft(F: SampledFunction) -> SampledFunction:
    """Discrete approximation of ``f(x) = (2 pi)^(-1) int F(y) exp(i x y) dy``.

    Exact inverse of :func:`forward_ft` on the same grid (up to rounding).
    """
    if F.side != FREQUENCY:
        raise InvalidParameterError("inverse_ft expects a frequency-side function")
    vals = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(F.values))) / F.grid.dx
    return SampledFunction(F.grid, vals, SPACE)


def apply_symbol(symbol: np.ndarray, F: SampledFunction) -> SampledFunction:
    """The multiplier operator ``T_m f``, the inverse transform of ``m(y) F(y)``.

    ``F`` is the transform of ``f`` and ``symbol`` holds ``m`` on the dual
    nodes of its grid, so one forward transform serves every operator
    applied to the same function.
    """
    if F.side != FREQUENCY:
        raise InvalidParameterError("apply_symbol expects a frequency-side function")
    return inverse_ft(SampledFunction(F.grid, symbol * F.values, FREQUENCY))


def lp_norm(f: SampledFunction, p: float) -> float:
    """Rectangle-rule Lebesgue norm on the function's own grid.

    Space-side samples are weighted by ``dx``, frequency-side samples by
    ``dy``.  ``p = math.inf`` returns the node maximum.
    """
    if p == math.inf:
        return float(np.abs(f.values).max())
    p = float(p)
    if not p >= 1.0:
        raise InvalidParameterError(f"p must satisfy 1 <= p <= inf, got {p}")
    weight = f.grid.dx if f.side == SPACE else f.grid.dy
    absv = np.abs(f.values)
    return float((weight * np.sum(absv**p)) ** (1.0 / p))


def _finite(value: float, what: str, positive: bool = True) -> float:
    """``value`` as a float; it must be finite and, if ``positive``, above 0."""
    value = float(value)
    if not (math.isfinite(value) and (value > 0 or not positive)):
        raise InvalidParameterError(
            f"{what} must be finite{' and positive' if positive else ''}, got {value}")
    return value


def _outer_band(values: np.ndarray) -> tuple[float, float]:
    """``(band, peak)``: the largest magnitude in the outer 10% of the window and overall.

    The band is the first ``k + 1`` and the last ``k`` nodes, ``k =
    floor(N / 20)``: exactly the nodes with ``|x| >= 0.9 L`` (``|y| >= 0.9
    pi / dx`` on the dual side), since the window holds ``-L`` but not
    ``L``.  Every decay gate of the package reads this pair at its own level.
    """
    absv = np.abs(values)
    k = int(_OUTER_BAND / 2 * absv.size)
    band = max(absv[:k + 1].max(), absv[absv.size - k:].max(initial=0.0))
    return float(band), float(absv.max())


def _warn_if_not_decayed(f: SampledFunction, name: str) -> None:
    band, peak = _outer_band(f.values)
    if band > _DECAY_LEVEL * peak:
        warnings.warn(
            f"convolution input {name} exceeds {_DECAY_LEVEL:g} of its peak in the outer "
            f"{int(100 * _OUTER_BAND)}% of the window; circular wraparound may pollute the result",
            WraparoundWarning,
            stacklevel=3,
        )


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Grid convolution ``(f * g)(x) = dx * sum_m f(x_m) g(x - x_m)`` (circular).

    Computed through the transform pair, so the convolution theorem holds to
    rounding.  Inputs that have not decayed below ``1e-8`` of their peak in
    the outer 10% of the window trigger a :class:`WraparoundWarning`.
    """
    if f.grid != g.grid:
        raise GridMismatchError("convolution operands live on different grids")
    if f.side != SPACE or g.side != SPACE:
        raise InvalidParameterError("convolve expects space-side functions")
    _warn_if_not_decayed(f, "f")
    _warn_if_not_decayed(g, "g")
    return apply_symbol(forward_ft(f).values, forward_ft(g))
