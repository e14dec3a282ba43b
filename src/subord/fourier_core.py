"""Uniform symmetric grids and the discrete transform pair on the line.

The package approximates the transform pair

    F(y) = int f(x) exp(-i x y) dx,
    f(x) = (2 pi)^(-1) int F(y) exp(i x y) dy,

on a uniform grid of ``N`` nodes covering the half-open window ``[-L, L)``
with spacing ``dx = 2 L / N``.  The dual grid covers ``[-pi/dx, pi/dx)`` with
spacing ``dy = 2 pi / (N dx)``.  With node ``j`` at ``(j - N/2) dx`` and dual
node ``k`` at ``(k - N/2) dy``, the rectangle-rule approximation of the
forward integral is an FFT conjugated by index shifts, and the discrete pair
is exactly invertible.  For even ``N`` both shifts swap the halves of the array,
so a transform copies its input once, halves swapped, and works in place on it.
:mod:`subord.measures` samples straight into that swapped (FFT) order, and
:mod:`subord.diffops` transforms the parts of its test functions in it with real-input
FFTs; neither calls this pair.

All quadrature in this package is the rectangle rule on these grids; sums are
evaluated with numpy's deterministic reducer, so repeated runs in one
environment are bit-reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "SPACE",
    "FREQUENCY",
    "GridSpec",
    "SampledFunction",
    "forward_ft",
    "inverse_ft",
    "apply_symbol",
    "lp_norm",
]

SPACE = "space"
FREQUENCY = "frequency"

#: fraction of the window counted as the "outer" band in decay checks
_OUTER_BAND = 0.10


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
        if not (isinstance(L, numbers.Real) and math.isfinite(L) and L > 0):
            raise InvalidParameterError(f"half_length must be finite and positive, got {L!r}")
        if not isinstance(N, numbers.Integral) or isinstance(N, bool):
            raise InvalidParameterError(f"size must be an integer, got {N!r}")
        L, N = float(L), int(N)  # a numpy scalar is stored as a Python number
        if N < 16 or (N & (N - 1)) != 0:
            raise InvalidParameterError(f"size must be a power of two >= 16, got {N}")
        if not (2.0 * L / N > 0 and math.isfinite(math.pi / (2.0 * L / N))):
            raise InvalidParameterError(f"half_length {L!r} takes dx or pi / dx out of the doubles")
        object.__setattr__(self, "half_length", L)
        object.__setattr__(self, "size", N)

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
        return np.arange(-(self.size // 2), self.size // 2) * self.dy

    def refined(self, factor: int) -> "GridSpec":
        """Same spacing, a ``factor`` times larger window; ``factor`` is a power of two >= 1."""
        if (not isinstance(factor, int) or isinstance(factor, bool)
                or factor < 1 or factor & (factor - 1)):
            raise InvalidParameterError(
                f"refinement factor must be a power of two >= 1, got {factor!r}")
        return GridSpec(self.half_length * factor, self.size * factor)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of one function on one side (space or frequency) of a grid.

    Values are stored as an immutable complex128 array of length
    ``grid.size``; non-finite entries are rejected at construction.
    """

    grid: GridSpec
    values: np.ndarray
    side: str

    def __post_init__(self, owned: bool = False) -> None:
        if self.side not in (SPACE, FREQUENCY):
            raise InvalidParameterError(f"side must be {SPACE!r} or {FREQUENCY!r}, got {self.side!r}")
        vals = (np.asarray if owned else np.array)(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.size,):
            raise InvalidParameterError(
                f"values must have shape ({self.grid.size},), got {vals.shape}")
        if not np.isfinite(vals).all():
            raise InvalidParameterError("values contain non-finite entries")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _owning(cls, grid: GridSpec, values: np.ndarray, side: str) -> "SampledFunction":
        # wraps a fresh array that nothing else holds: checked and frozen, not copied
        f = cls.__new__(cls)
        f.__dict__.update(grid=grid, values=values, side=side)
        f.__post_init__(owned=True)
        return f


def _centered_fft(f: SampledFunction, fft, scale, side: str) -> SampledFunction:
    # scale(fftshift(fft(ifftshift(v))), dx) bit for bit: one array, swapped back in place
    v, n = f.values, f.grid.size // 2
    out = np.concatenate((v[n:], v[:n]))
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _owning as non-finite
        fft(out, out=out)
        out[:n], out[n:] = out[n:], out[:n].copy()  # the copy is the one half-length temporary
        return SampledFunction._owning(f.grid, scale(out, f.grid.dx, out=out), side)


def forward_ft(f: SampledFunction) -> SampledFunction:
    """Discrete approximation of ``F(y) = int f(x) exp(-i x y) dx``.

    The rectangle-rule sum over the symmetric grid equals an FFT conjugated
    by half-length index shifts, so the approximation error comes only from
    sampling and windowing, never from node/phase misalignment.
    """
    if f.side != SPACE:
        raise InvalidParameterError("forward_ft expects a space-side function")
    return _centered_fft(f, np.fft.fft, np.multiply, FREQUENCY)


def inverse_ft(F: SampledFunction) -> SampledFunction:
    """Discrete approximation of ``f(x) = (2 pi)^(-1) int F(y) exp(i x y) dy``.

    Exact inverse of :func:`forward_ft` on the same grid (up to rounding).
    """
    if F.side != FREQUENCY:
        raise InvalidParameterError("inverse_ft expects a frequency-side function")
    return _centered_fft(F, np.fft.ifft, np.divide, SPACE)


def apply_symbol(symbol: np.ndarray, F: SampledFunction) -> SampledFunction:
    """The multiplier operator ``T_m f``, the inverse transform of ``m(y) F(y)``.

    ``F`` is the transform of ``f`` and ``symbol`` holds ``m`` on the dual
    nodes of its grid, so one forward transform serves every operator
    applied to the same function.
    """
    if F.side != FREQUENCY:
        raise InvalidParameterError("apply_symbol expects a frequency-side function")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _owning as non-finite
        return inverse_ft(SampledFunction._owning(F.grid, symbol * F.values, FREQUENCY))


def lp_norm(f: SampledFunction, p: float) -> float:
    """Rectangle-rule Lebesgue norm on the function's own grid.

    Space-side samples are weighted by ``dx``, frequency-side samples by
    ``dy``.  ``p = math.inf`` returns the node maximum.  No finite ``p``
    underflows to 0 or overflows (:func:`_lp`).
    """
    return _lp(np.abs(f.values), f.grid.dx if f.side == SPACE else f.grid.dy, float(p))


def _lp(absv: np.ndarray, weight: float, p: float) -> float:
    """``(weight * sum absv**p) ** (1/p)``, the max for ``p = inf``; divided through by the max
    only where ``max**p`` would leave the normal doubles, so no other value changes by a bit."""
    if not p >= 1.0:
        raise InvalidParameterError(f"p must satisfy 1 <= p <= inf, got {p}")
    top = float(absv.max())
    if math.isinf(p):
        return top
    if top > 0.0 and not np.finfo(float).minexp <= p * math.log2(top) < np.finfo(float).maxexp:
        return top * float((weight * np.sum((absv / top) ** p)) ** (1.0 / p))
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

