"""Wiener-algebra norm estimation for symbols of finite measures on the line.

A symbol ``psi`` that is the transform of a finite measure splits as

    psi(y) = c + int g(x) exp(-i x y) dx

with an atom ``c * delta_0`` and an integrable density ``g``.  The norm of
the measure, ``|c| + ||g||_1``, is what controls every operator-norm bound in
this package, so the estimator here is deliberately conservative: it reports
the window mass of ``g`` plus an explicit tail correction, and flags the
result as unconverged when doubling the window moves it.

The density is recovered on an internally *oversampled* grid (same spacing,
larger window).  Recovering it on the caller's own window would periodize
``g`` with period ``2 L`` and silently fold the tail mass back into the
window — the window integral would then match ``psi(0)`` exactly and the
tail correction would double-count.  Oversampling pushes the aliasing images
out to ``2 L * oversample`` where they are harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    GridTooSmallError,
    InconsistentLimitError,
    InvalidParameterError,
    NotApplicableError,
)
from .fourier_core import FREQUENCY, GridSpec, SampledFunction, inverse_ft

__all__ = [
    "WienerEstimate",
    "wiener_norm",
    "carlson_bound",
]

#: fraction of the dual window, per side, averaged to read off the constant term
_LIMIT_BAND = 0.05
#: fraction of the spatial window treated as the tail-fit band
_TAIL_BAND = 0.10
#: mismatch allowed between the two one-sided constant-term reads
_LIMIT_CONSISTENCY = 1e-3


def _check_oversample(oversample: int) -> int:
    if not isinstance(oversample, int) or isinstance(oversample, bool):
        raise InvalidParameterError(f"oversample must be an integer, got {oversample!r}")
    if oversample < 1 or (oversample & (oversample - 1)) != 0:
        raise InvalidParameterError(f"oversample must be a power of two >= 1, got {oversample}")
    return oversample


@dataclass(frozen=True)
class WienerEstimate:
    """Result of :func:`wiener_norm`.

    ``total = |const_at_infinity| + density_l1 + tail_bound`` is the usable
    upper estimate; ``converged`` records whether doubling the window keeps
    the total within ``max(1e-3, 1e-2 * total)``.
    """

    grid: GridSpec
    oversample: int
    const_at_infinity: complex
    density: SampledFunction
    density_l1: float
    tail_bound: float
    total: float
    refined_total: float
    converged: bool


def _limit_at_infinity(values: np.ndarray, y: np.ndarray, half_length: float,
                       const_at_infinity: Optional[complex]) -> complex:
    # the pinned value when one is given, else the mean over the outer bands
    if const_at_infinity is not None:
        return complex(const_at_infinity)
    band = _LIMIT_BAND * half_length
    upper = values[y >= half_length - band]
    lower = values[y <= -(half_length - band)]
    if upper.size == 0 or lower.size == 0:
        raise GridTooSmallError(
            f"the outer {_LIMIT_BAND:.0%} of one side of the dual window holds no node; "
            "enlarge the grid size to read off the constant term")
    m_plus = complex(np.mean(upper))
    m_minus = complex(np.mean(lower))
    c = 0.5 * (m_plus + m_minus)
    if abs(m_plus - m_minus) > _LIMIT_CONSISTENCY * (1.0 + abs(c)):
        raise InconsistentLimitError(
            f"one-sided symbol limits disagree: {m_plus:.6g} vs {m_minus:.6g}")
    return c


def _wiener_components(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
                       oversample: int, const_at_infinity):
    fine = grid.refined(oversample)
    y = fine.dual_nodes()
    vals = np.asarray(psi(y), dtype=np.complex128)
    if not np.isfinite(vals).all():
        raise InvalidParameterError("symbol evaluated to non-finite values on the dual grid")
    c = _limit_at_infinity(vals, y, fine.dual_half_length, const_at_infinity)
    density = inverse_ft(SampledFunction(fine, vals - c, FREQUENCY))
    x = fine.nodes()
    absg = np.abs(density.values)
    L = grid.half_length
    window = np.abs(x) < L
    density_l1 = fine.dx * float(np.sum(absg[window]))
    left = (x <= -(1.0 - _TAIL_BAND) * L) & window
    right = (x >= (1.0 - _TAIL_BAND) * L) & window
    c_left = float(np.max(absg[left] * x[left] ** 2)) if left.any() else 0.0
    c_right = float(np.max(absg[right] * x[right] ** 2)) if right.any() else 0.0
    tail = (c_left + c_right) / L
    total = abs(c) + density_l1 + tail
    return c, density, density_l1, tail, total


def wiener_norm(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
                oversample: int = 8, const_at_infinity: Optional[complex] = None,
                ) -> WienerEstimate:
    """Estimate ``|c| + ||g||_1`` for a symbol ``psi = c + ft[g]``.

    The constant term is read off as the mean of ``psi`` over the outer 5%
    of each side of the dual window; disagreeing one-sided reads raise
    :class:`InconsistentLimitError`, a side band without nodes
    :class:`GridTooSmallError` (pass ``const_at_infinity`` to pin the
    value and skip the read, e.g. for odd symbols that decay in magnitude
    but not pointwise).  The density is recovered on a window ``oversample``
    times larger to keep aliasing images out of the reported mass, its
    absolute integral over the caller's window is taken, and a ``C / x^2``
    tail fit on the outer 10% of each side is added.

    Convergence is assessed by repeating the computation on a doubled
    window; the estimate is flagged converged when the totals agree within
    ``max(1e-3, 1e-2 * total)``.
    """
    _check_oversample(oversample)
    c, density, density_l1, tail, total = _wiener_components(
        psi, grid, oversample, const_at_infinity)
    _, _, _, _, refined_total = _wiener_components(
        psi, grid.refined(2), oversample, const_at_infinity)
    converged = abs(total - refined_total) <= max(1e-3, 1e-2 * total)
    return WienerEstimate(
        grid=grid,
        oversample=oversample,
        const_at_infinity=c,
        density=density,
        density_l1=density_l1,
        tail_bound=tail,
        total=total,
        refined_total=refined_total,
        converged=converged,
    )


def _carlson_value(psi, grid: GridSpec, const_at_infinity) -> float:
    y = grid.dual_nodes()
    vals = np.asarray(psi(y), dtype=np.complex128)
    c = _limit_at_infinity(vals, y, grid.dual_half_length, const_at_infinity)
    centered = vals - c
    deriv = np.gradient(centered, grid.dy)
    n2 = grid.dy * float(np.sum(np.abs(centered) ** 2))
    d2 = grid.dy * float(np.sum(np.abs(deriv) ** 2))
    return math.pi * math.sqrt(2.0) * math.sqrt(n2 + d2)


def carlson_bound(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
                  const_at_infinity: Optional[complex] = None) -> float:
    """Quadrature bound ``pi * sqrt(2) * sqrt(||psi - c||_2^2 + ||psi'||_2^2)``.

    Dominates the density part ``||g||_1`` of the measure norm whenever the
    centered symbol and its derivative are square integrable.  The
    derivative is a central difference on the dual grid.  If doubling the
    window moves the value by more than 1% the symbol is not decaying fast
    enough for the bound to mean anything and :class:`NotApplicableError`
    is raised.
    """
    b = _carlson_value(psi, grid, const_at_infinity)
    b2 = _carlson_value(psi, grid.refined(2), const_at_infinity)
    if abs(b - b2) > 1e-2 * max(b, b2) + 1e-9:
        raise NotApplicableError(
            f"bound unstable under window doubling ({b:.6g} vs {b2:.6g}); "
            "symbol or its derivative is not square integrable at this scale")
    return b
