"""Wiener-algebra norm estimation for symbols of finite measures on the line.

A symbol ``psi`` that is the transform of a finite measure splits as

    psi(y) = c + int g(x) exp(-i x y) dx

with an atom ``c * delta_0`` and an integrable density ``g``.  The norm of
the measure, ``|c| + ||g||_1``, is what controls every operator-norm bound in
this package, so the estimator here is deliberately conservative: it reports
the window mass of ``g`` plus an explicit tail correction, and flags the
result as unconverged when doubling the window moves it.  The result is
numbers only; the recovered density is read and dropped inside each pass.

The density is recovered on an internally *oversampled* grid (same spacing,
larger window).  Recovering it on the caller's own window would periodize
``g`` with period ``2 L`` and silently fold the tail mass back into the
window — the window integral would then match ``psi(0)`` exactly and the
tail correction would double-count.  Oversampling pushes the aliasing images
out to ``2 L * oversample`` where they are harmless.  A pass samples the symbol's real
part, and its imaginary part only if some block has one, straight into FFT order (the
``ifftshift`` of the centred order), less the constant term's parts, inverts each part
with a real-input FFT and reads, joins as ``re + i im`` and scales only the caller's window.

The constant term is the one the symbol declares, its ``const_at_infinity`` (see
:class:`subord.comparison.Multiplier`) if not None; any other callable declares none.  Else
it is read off the samples: :func:`wiener_norm` reads it once, off the caller's window's
samples, and uses it for the doubled window too: doubling keeps ``dx``, so a second read
would average ``psi`` over the same band.  The doubled window's dual nodes are the single
window's ``M = oversample * N`` nodes and the ``M`` midpoints between them, and a
``2 M``-point inverse DFT is half the nodes' ``M``-point one plus the midpoints', turned by a
twiddle (decimation in time).  So the two halves are sampled and inverted one after the
other; the first holds the single window's pass, bit for bit, and the doubled window's
``refined_total`` is that of a direct doubled pass with the same constant term, up to
rounding.

:func:`factor_norm` bounds a convolution operator ``L^p -> L^q`` by its symbol, for the
factors of ``diffop-verify``.  One pass on a grid with the caller's half-length ``L`` and
``size`` nodes, refined by ``oversample``, gives ``F_size``: for ``p == q`` (no ``partner``) the
measure norm's single-window total ``|c| + window mass + C/x^2 tail``, the ``total`` of
:func:`wiener_norm` on that grid (``c`` declared or read off the pass's samples), and for
``p < q`` the window ``L^s`` norm of the density, ``s`` the ``partner`` exponent: a symbol
with no constant at infinity is convolution with its density alone.  The error falls like
``dx = 2 L / size``, so the factor is ``max(F_n, 2 F_n - F_{n/2})`` over the passes on
``(L, n/2)`` and ``(L, n)``: first-order Richardson extrapolation in ``dx``, never below the
finer pass.  ``n`` is ``_FACTOR_SIZE``, or the caller's ``N`` if smaller, at least 32, and
doubled while the ``extent`` of the symbol's features, such as ``|r| + delta`` of a
cofactor's neighborhood, leaves the dual window of ``(L, n/2)``.  No window-doubling test
runs.  For ``p == q``, ``(2 L)^2`` must be a double, as for :func:`wiener_norm`.

A symbol is called on consecutive blocks of the dual nodes, never on the
whole grid at once, and its results are written into preallocated arrays.  It
must therefore be pointwise in ``y`` (its value at a node may not depend on the
other nodes of the call) and return an array of ``y``'s shape; any other
shape raises :class:`InvalidParameterError`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridTooSmallError, InconsistentLimitError, InvalidParameterError
from .fourier_core import GridSpec, _lp

__all__ = ["WienerEstimate", "factor_norm", "wiener_norm"]

#: fraction of the dual window, per side, averaged to read off the constant term
_LIMIT_BAND = 0.05
#: fraction of the spatial window treated as the tail-fit band
_TAIL_BAND = 0.10
#: mismatch allowed between the two one-sided constant-term reads
_LIMIT_CONSISTENCY = 1e-3
#: dual nodes per call of a symbol in :func:`_samples`: a block's complex temporaries
#: (256 KB each) stay in cache.  2^13 and 2^14 timed alike on the first cofactor of
#: ``diffop-verify`` and 2^14 faster on the second; 2^15 lifts the estimator's traced peak
_BLOCK = 2 ** 14
#: node count of the finer grid of a factor's pair, as a rule (see the module notes)
_FACTOR_SIZE = 2 ** 15


@dataclass(frozen=True)
class WienerEstimate:
    """Result of :func:`wiener_norm`: numbers only, no sampled arrays.

    ``total = |const_at_infinity| + density_l1 + tail_bound`` is the usable upper estimate.
    ``converged`` is whether ``refined_total``, that of a direct doubled pass with the same
    constant term up to rounding, lies within ``max(1e-3, 1e-2 * total)`` of it.
    """

    oversample: int
    const_at_infinity: complex
    density_l1: float
    tail_bound: float
    total: float
    refined_total: float
    converged: bool


def _limit_at_infinity(re: np.ndarray, im: Optional[np.ndarray], grid: GridSpec) -> complex:
    # the constant term: the means of grid's samples in FFT order, real part re and imaginary
    # part im (None for 0), at y >= level and at y <= -level, which must agree
    h, dy = grid.size // 2, grid.dy
    level = grid.dual_half_length - _LIMIT_BAND * grid.dual_half_length
    k = math.ceil(level / dy)  # at most one off the least k with k dy >= level,
    k += (k * dy < level) - ((k - 1) * dy >= level)  # as both sides round
    if k >= h:
        raise GridTooSmallError(
            f"the outer {_LIMIT_BAND:.0%} of one side of the dual window holds no node; "
            "enlarge the grid size to read off the constant term")
    # complex, so the means are bit for bit those of the complex samples
    bands = [re[a:b] + 1j * (0.0 if im is None else im[a:b])
             for a, b in ((k, h), (h, 2 * h + 1 - k))]
    # the means scaled by s, a power of two and so exact: 1, or, where a band's sum or the
    # sum of the two means leaves the doubles, one over a bound on the band's node count
    s = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        m_plus, m_minus = (complex(np.mean(band)) for band in bands)
        if not cmath.isfinite(m_plus + m_minus):
            s = 2.0 ** -h.bit_length()
            m_plus, m_minus = (complex(np.mean(band * s)) for band in bands)
    c = 0.5 * (m_plus + m_minus)
    if abs(m_plus - m_minus) > _LIMIT_CONSISTENCY * (s + abs(c)):
        raise InconsistentLimitError(
            f"one-sided symbol limits disagree: {m_plus / s:.6g} vs {m_minus / s:.6g}")
    return c / s


def _samples(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
             offset: float = 0.0) -> tuple[np.ndarray, Optional[np.ndarray]]:
    # the real and imaginary parts of psi at (k + offset) dy for grid's dual nodes k dy in FFT
    # order, block by block, so a symbol's temporaries never exceed one block; the imaginary
    # part is None while every block is real
    h, dy = grid.size // 2, grid.dy
    re, im = np.empty(grid.size), None
    for k in (*range(0, h, _BLOCK), *range(-h, 0, _BLOCK)):  # none crosses from y >= 0 to y < 0
        part = (np.arange(k, min(k + _BLOCK, h if k >= 0 else 0)) + offset) * dy
        block = np.asarray(psi(part), dtype=np.complex128)
        if block.shape != part.shape:
            raise InvalidParameterError(
                f"symbol returned shape {block.shape} for {part.shape[0]} dual nodes; "
                "it must be pointwise and keep the shape of its argument")
        if not np.isfinite(block).all():
            raise InvalidParameterError("symbol evaluated to non-finite values on the dual grid")
        re[k % grid.size:][:block.size] = block.real
        if im is None and block.imag.any():
            im = np.zeros(grid.size)
        if im is not None:
            im[k % grid.size:][:block.size] = block.imag
    return re, im


def _inverse_window(values: np.ndarray, n: int) -> np.ndarray:
    """``ifft(values)`` at the nodes ``|j| < n <= M`` of ``M`` real ``values`` in FFT order, up to
    rounding, from their real-input transform ``R = rfft(values) / M``: the inverse is
    ``conj(R_j)`` at ``0 <= j <= M/2`` and ``R_{M-j}`` above, and at ``-j`` the conjugate of that
    at ``j``.  Non-finite input or output raises."""
    if not np.isfinite(values).all():
        raise InvalidParameterError("values contain non-finite entries")
    h = values.size // 2
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as non-finite
        r = np.fft.rfft(values, norm="forward")
    if not np.isfinite(r).all():
        raise InvalidParameterError("values contain non-finite entries")
    window = np.empty(2 * n - 1, dtype=np.complex128)  # allocated before r, it lifts the peak
    upper = window[n - 1:]  # the nodes 0 <= j < n
    np.conjugate(r[:n], out=upper[:h + 1])
    upper[h + 1:] = r[h - 1:values.size - n:-1]  # j > M/2: the doubled window at oversample 1
    del r  # freed before the next part's transform
    np.conjugate(upper[:0:-1], out=window[:n - 1])
    return window


def _window(psi: Callable[[np.ndarray], np.ndarray], fine: GridSpec, c: Optional[complex],
            n: int, offset: float = 0.0) -> tuple[complex, np.ndarray]:
    # one pass: c, read off psi's samples on fine if None, and g at |j| < n from them less c,
    # the inverse of the real part plus i times that of the imaginary part, if any
    re, im = _samples(psi, fine, offset)
    if c is None:
        c = _limit_at_infinity(re, im, fine)
    if im is None and c.imag != 0:
        im = np.zeros(fine.size)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as non-finite
        np.subtract(re, c.real, out=re)
        window = _inverse_window(re, n)
        del re  # freed before the imaginary part's transform
        if im is not None:
            np.subtract(im, c.imag, out=im)
            window += 1j * _inverse_window(im, n)
        np.divide(window, fine.dx, out=window)
    if not np.isfinite(window).all():
        raise InvalidParameterError("values contain non-finite entries")
    return c, window


def _check_squares(half_length: float) -> None:
    # (2 L)^2, the tail fit's largest square, must be a double
    if not math.isfinite(4.0 * half_length * half_length):
        raise InvalidParameterError(f"half_length {half_length!r} squares beyond a double")


def _wiener_components(c: complex, absg: np.ndarray, dx: float):
    # the window mass, the tail fit and the total, from |g| at the window's nodes |j| < n
    n = (absg.size + 1) // 2
    x, L = np.arange(1 - n, n) * dx, n * dx  # L exactly: dx = 2 L / N, n = N / 2
    left = x <= -(1.0 - _TAIL_BAND) * L
    right = x >= (1.0 - _TAIL_BAND) * L
    with np.errstate(over="ignore"):  # an overflow makes the total inf, refused below
        density_l1 = dx * float(np.sum(absg))
        c_left = float(np.max(absg[left] * x[left] ** 2)) if left.any() else 0.0
        c_right = float(np.max(absg[right] * x[right] ** 2)) if right.any() else 0.0
    tail = (c_left + c_right) / L
    total = abs(c) + density_l1 + tail
    if not math.isfinite(total):
        raise InvalidParameterError("the measure norm's estimate overflows a double")
    return density_l1, tail, total


def wiener_norm(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
                oversample: int = 8) -> WienerEstimate:
    """Estimate ``|c| + ||g||_1`` for a symbol ``psi = c + ft[g]``.

    The constant term is the one ``psi`` declares (``psi.const_at_infinity``), else the
    mean of ``psi`` over the outer 5% of each side of the dual window; disagreeing one-sided
    reads raise :class:`InconsistentLimitError`, a side band without nodes
    :class:`GridTooSmallError` (a declared term skips the read, e.g. for odd symbols that
    decay in magnitude but not pointwise).  The density is recovered on a window ``oversample``
    times larger to keep aliasing images out of the reported mass, its
    absolute integral over the caller's window is taken, and a ``C / x^2``
    tail fit on the outer 10% of each side is added.

    Convergence is assessed by repeating the computation on a doubled
    window with the same constant term (see the module notes); the estimate is
    flagged converged when the totals agree within ``max(1e-3, 1e-2 * total)``.
    ``oversample`` must be a power of two (:meth:`GridSpec.refined`),
    and ``(2 L)^2``, the tail fit's largest square, a double; otherwise
    :class:`InvalidParameterError`, also raised for a total beyond the doubles.

    ``psi`` is called on consecutive blocks of the dual nodes; it must be
    pointwise in ``y`` and return ``y``'s shape.  A result of another shape,
    or a non-finite value, raises :class:`InvalidParameterError`.
    """
    fine = grid.refined(oversample)
    _check_squares(grid.half_length)
    m, n, dx = fine.size, grid.size, fine.dx  # the doubled window: |j| < N, 2M nodes
    # E_j / dx and O_j / dx at |j| < N, the M-point inverses of the even nodes k dy and, next,
    # the odd nodes (k + 1/2) dy less c.  Half E_j plus e^{i pi j / M} O_j is the 2M-point inverse
    # (Cooley and Tukey, 1965); the middle |j| < N / 2 of E_j / dx is the single window's pass
    c, e = _window(psi, fine, getattr(psi, "const_at_infinity", None), n)
    density_l1, tail, total = _wiener_components(c, np.abs(e[n // 2:n // 2 + n - 1]), dx)
    window = _window(psi, fine, c, n, 0.5)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as non-finite
        window *= np.exp(np.arange(1 - n, n) * (1j * np.pi / m))
        window += e
        window *= 0.5
    if not np.isfinite(window).all():
        raise InvalidParameterError("values contain non-finite entries")
    refined_total = _wiener_components(c, np.abs(window), dx)[2]
    converged = abs(total - refined_total) <= max(1e-3, 1e-2 * total)
    return WienerEstimate(
        oversample=oversample,
        const_at_infinity=c,
        density_l1=density_l1,
        tail_bound=tail,
        total=total,
        refined_total=refined_total,
        converged=converged,
    )


def factor_norm(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec,
                partner: Optional[float], extent: float, oversample: int) -> float:
    """The norm bound of the convolution operator with symbol ``psi`` (see the module notes):
    ``L^p -> L^p`` for ``partner`` None, where a ``(2 L)^2`` beyond the doubles raises
    :class:`InvalidParameterError`, else ``L^p -> L^q`` for ``partner`` the ``s`` of ``p < q``."""
    if partner is None:
        _check_squares(grid.half_length)
    n = max(min(grid.size, _FACTOR_SIZE), 32)
    while extent >= GridSpec(grid.half_length, n // 2).dual_half_length:
        n *= 2

    def one_pass(size: int) -> float:
        fine = GridSpec(grid.half_length, size).refined(oversample)
        c, g = _window(psi, fine, getattr(psi, "const_at_infinity", None), size // 2)
        g = np.abs(g)  # and the complex window is dropped
        if partner is None:
            return _wiener_components(c, g, fine.dx)[2]
        return _lp(g, fine.dx, partner)

    coarse = one_pass(n // 2)  # its arrays are freed before the finer pass allocates
    finer = one_pass(n)
    return max(finer, 2.0 * finer - coarse)
