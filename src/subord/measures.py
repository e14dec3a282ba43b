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
out to ``2 L * oversample`` where they are harmless.

The constant term is the one the symbol declares, its ``const_at_infinity`` (see
:class:`subord.comparison.Multiplier`) if not None; any other callable declares none.  Else
it is read once, before any inversion, off the symbol's values on the outer 5% of each side
of the refined grid's dual window, and :func:`wiener_norm` uses it for the doubled window
too: doubling keeps ``dx``, so a second read would average ``psi`` over the same band.
Both bands are counted in nodes, on each side: the ``int(0.05 h)`` outermost of ``h`` dual
nodes, and for the ``C / x^2`` tail fit the ``int(0.1 n)`` outermost of a window ``|j| < n``.

The doubled window's dual grid has the ``2 M`` nodes ``k dy / 2``, ``M = oversample * N``:
the refined grid's nodes and the midpoints between them.  It is sampled and inverted in
``P = 2 M / K = 2 oversample`` phases of ``K = N`` nodes, phase ``q`` holding the nodes
``(P r + q) dy / 2`` (decimation in time, Cooley and Tukey 1965, pruned to the nodes the
window reads, Markel 1971).  A phase samples the symbol's real part, and its imaginary part
only if some block has one, straight into FFT order, less the constant term's parts, and
inverts each part with one real-input FFT, read at ``0 <= j < N``, one period, the nodes
above ``N / 2`` from the half spectrum's mirror image: each part's window is Hermitian.  With
``A_q`` the ``K``-point inverse of phase ``q`` and the twiddle ``w = e^{i pi j / M}``, the
``2 M``-point inverse is ``(E + w O) / P`` and the refined grid's ``M``-point one ``2 E / P``,
``E`` and ``O`` the sums of ``w^(q - q mod 2) A_q`` over the even and the odd phases, each
accumulated by Horner's rule in ``w^2``.  So the even phases give the single window,
``|j| < N / 2``, and all phases the doubled one, ``|j| < N``; no array of ``M`` or ``2 M``
points is allocated, and no ``N``-point twiddle table either.  The twiddles ``w^k``,
``k = 1, 2``, come from a two-level table, ``e^{i pi k (B a + b) / M} = e^{i pi k B a / M}
e^{i pi k b / M}`` with ``b < B`` and the block ``B`` fixed by ``M`` alone, kept as its two
levels of about ``sqrt(M)`` entries and expanded one block of ``_BLOCK`` nodes at a time where
it multiplies, in Horner's step and in ``E + w O``.  A node's twiddle does not depend on how
many nodes are requested, so the single window's ``total`` is bit for bit that of the even
phases alone, a pass on the caller's grid, and ``refined_total`` that of a direct doubled pass
with the same constant term, up to rounding.  The nodes above ``N / 2`` add the half
spectrum's conjugated mirror image in place, real and imaginary parts apart, with no copy.

A symbol that declares itself ``even``, ``psi(-y) == psi(y)`` bit for bit (see
:class:`subord.comparison.Multiplier`), has in phase ``P - q`` phase ``q``'s samples reversed,
so each part's ``A_(P - q)`` is ``e^{-2 pi i j / K} conj(A_q)`` and a mirrored pair adds
``w^q A_q + conj(w^q A_q) = 2 Re(w^q A_q)`` (the real-even fold of Cooley, Lewis and Welch
1970).  Its pass samples and inverts the phases ``q <= P / 2`` only, each weighted 2 but ``0``
and ``P / 2``, which mirror themselves, and takes the real part of each part's ``E`` and
``E + w O``: 9 of 16 phases at oversample 8, 5 of 8 at 4, 3 of 4 at 2, 17 of 32 at 16 and both
at 1.  Any other callable, the cofactors of :mod:`subord.diffops` among them, has every phase
inverted.

:func:`factor_norm` bounds a convolution operator ``L^p -> L^q`` by its symbol, for the
factors of ``diffop-verify``.  One pass, the even phases on a grid with the caller's
half-length ``L`` and ``size`` nodes refined by ``oversample``, gives ``F_size``: for
``p == q`` (no ``partner``) the measure norm's single-window total
``|c| + window mass + C/x^2 tail``, the ``total`` of :func:`wiener_norm` on that grid (``c``
declared or read off that grid's outer bands), and for ``p < q`` the window ``L^s`` norm of
the density, ``s`` the ``partner`` exponent: a symbol with no constant at infinity is
convolution with its density alone.  The error falls like ``dx = 2 L / size``, so the factor
is ``max(F_n, 2 F_n - F_{n/2})`` over the passes on ``(L, n/2)`` and ``(L, n)``: first-order
Richardson extrapolation in ``dx``, never below the finer pass.  ``n`` is ``_FACTOR_SIZE``,
or the caller's ``N`` if smaller, at least 32, and doubled while the ``extent`` of the
symbol's features, such as ``|r| + delta`` of a cofactor's neighborhood, leaves the dual
window of ``(L, n/2)``.  No window-doubling test runs.  For ``p == q``, ``(2 L)^2`` must be a
double, as for :func:`wiener_norm`.

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
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import GridTooSmallError, InconsistentLimitError, InvalidParameterError
from .fourier_core import _BLOCK, _QUIET, GridSpec, _lp, _refuse_non_finite

__all__ = ["WienerEstimate", "factor_norm", "wiener_norm"]

#: fraction of the dual window, per side, averaged to read off the constant term
_LIMIT_BAND = 0.05
#: fraction of the spatial window, per side, read by the tail fit
_TAIL_BAND = 0.10
#: mismatch allowed between the two one-sided constant-term reads
_LIMIT_CONSISTENCY = 1e-3
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


def _evaluate(psi: Callable[[np.ndarray], np.ndarray], y: np.ndarray) -> np.ndarray:
    # psi at the nodes y, refused unless of y's shape and finite
    block = np.asarray(psi(y), dtype=np.complex128)
    if block.shape != y.shape:
        raise InvalidParameterError(
            f"symbol returned shape {block.shape} for {y.shape[0]} dual nodes; "
            "it must be pointwise and keep the shape of its argument")
    if not np.isfinite(block).all():
        raise InvalidParameterError("symbol evaluated to non-finite values on the dual grid")
    return block


def _limit_at_infinity(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec) -> complex:
    # the constant term: the means of psi over grid's dual nodes k dy and -k dy, k >= h -
    # int(_LIMIT_BAND h), the outer 5% of each side, sampled block by block, which must agree
    h, dy = grid.size // 2, grid.dy
    k = h - int(_LIMIT_BAND * h)
    if k >= h:
        raise GridTooSmallError(
            f"the outer {_LIMIT_BAND:.0%} of one side of the dual window holds no node; "
            "enlarge the grid size to read off the constant term")
    values = [np.concatenate([_evaluate(psi, np.arange(a, min(a + _BLOCK, b)) * dy)
                              for a in range(lo, b, _BLOCK)]) for lo, b in ((k, h), (-h, 1 - k))]
    # joined as re + i im, the parts a pass inverts, with im 0.0 where no band node has one
    imaginary = any(v.imag.any() for v in values)
    bands = [v.real + 1j * (v.imag if imaginary else 0.0) for v in values]
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


def _samples(psi: Callable[[np.ndarray], np.ndarray], size: int, phases: int, phase: int,
             step: float) -> tuple[np.ndarray, Optional[np.ndarray]]:
    # the real and imaginary parts of psi at the nodes (phases r + phase) step for r < size in
    # FFT order (r - size for r >= size / 2), block by block, so a symbol's temporaries never
    # exceed one block; the imaginary part is None while every block is real
    h = size // 2
    re, im = np.empty(size), None
    for k in (*range(0, h, _BLOCK), *range(-h, 0, _BLOCK)):  # none crosses from y >= 0 to y < 0
        block = _evaluate(psi, (np.arange(k, min(k + _BLOCK, h if k >= 0 else 0)) * phases
                                + phase) * step)
        re[k % size:][:block.size] = block.real
        if im is None and block.imag.any():
            im = np.zeros(size)
        if im is not None:
            im[k % size:][:block.size] = block.imag
    return re, im


@_QUIET
def _add_inverse(acc: np.ndarray, values: np.ndarray) -> None:
    """Add to ``acc`` the inverse DFT of the ``K`` real ``values`` in FFT order at the nodes
    ``0 <= j < acc.size <= K``, from their real-input transform ``R = rfft(values) / K``: the
    inverse is ``conj(R_j)`` at ``j <= K/2`` and ``R_{K-j}`` above.  Non-finite input or output
    raises."""
    _refuse_non_finite(values)
    h = values.size // 2
    r = np.fft.rfft(values, norm="forward")
    _refuse_non_finite(r)
    np.conjugate(r, out=r)
    acc[:h + 1] += r[:acc.size]
    # the doubled window adds the mirror image's conjugate, part by part, with no copy
    tail, mirror = acc[h + 1:], r[h - 1:values.size - acc.size:-1]
    tail.real += mirror.real
    tail.imag -= mirror.imag


@_QUIET
def _horner_step(acc: Optional[np.ndarray], values: Optional[np.ndarray], term: float,
                 twiddle: _Twiddles, count: int, weight: float) -> Optional[np.ndarray]:
    # acc twiddle plus weight times the inverse of values less term, at 0 <= j < count; None
    # for 0
    if acc is not None:
        _twiddle(acc, twiddle)
    if values is None:
        return acc
    np.subtract(values, term, out=values)
    if weight != 1.0:
        values *= weight  # exact, or inf, which _add_inverse refuses
    if acc is None:
        acc = np.zeros(count, dtype=np.complex128)
    _add_inverse(acc, values)
    return acc


def _accumulate(psi: Callable[[np.ndarray], np.ndarray], c: complex, size: int, phases: int,
                parity: int, step: float, twiddle: _Twiddles, count: int, fold: bool):
    # the real part's and the imaginary part's (None for 0) sum over the phases q of the parity
    # of twiddle^((q - parity) / 2) times the inverse of phase q's samples less c, at
    # 0 <= j < count, by Horner's rule from the highest q down; with fold, for an even psi,
    # over q <= phases / 2 only, weighted 2 but for 0 and phases / 2 (see the module notes)
    re_acc = im_acc = None
    for q in range(phases - 2 + parity, -1, -2):
        if fold and q > phases // 2:  # phase phases - q reversed
            continue
        weight = 2.0 if fold and 0 < q < phases // 2 else 1.0
        re, im = _samples(psi, size, phases, q, step)
        if im is None and c.imag != 0:
            im = np.zeros(size)
        re_acc = _horner_step(re_acc, re, c.real, twiddle, count, weight)
        del re  # freed before the imaginary part's transform
        im_acc = _horner_step(im_acc, im, c.imag, twiddle, count, weight)
        del im  # and before the next phase is sampled
    return re_acc, im_acc


#: the quarter turns ``i^q``: a product with one is exact
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


#: a two-level twiddle table, ``(fine, coarse)``: see :func:`_twiddles`
_Twiddles = tuple[np.ndarray, np.ndarray]


def _twiddles(m: int, count: int, k: int) -> _Twiddles:
    """The table of ``e^{i pi k j / m}`` at ``0 <= j < count``, for a power of two ``m >= 2``,
    as its two levels, over ``j = B a + b``, ``0 <= b < B``, with the block ``B`` fixed by ``m``
    alone: ``fine``, the ``B`` values ``e^{i pi k b / m}``, and ``coarse``, the values
    ``e^{i pi k B a / m}`` of the rows ``a`` that ``j`` reaches.  :func:`_expand` forms their
    products.  The coarse factor is a quarter turn times ``e^{i pi r / m}``, ``r < m / 2``, and
    the fine one is added to ``1`` as ``e^{i theta} - 1 = -2 sin^2(theta / 2) + i sin(theta)``:
    each node is within a few units in the last place of the exact value."""
    block = 1 << (m.bit_length() // 2)
    angle = np.arange(block) * (np.pi * k / m)
    half = np.sin(0.5 * angle)
    fine = -2.0 * half * half + 1j * np.sin(angle)
    turns, rest = np.divmod(np.arange(-(-count // block)) * (k * block), m // 2)
    coarse = np.exp(rest * (1j * np.pi / m)) * _QUARTER_TURNS[turns % 4]
    return fine, coarse


def _expand(twiddle: _Twiddles, start: int, stop: int) -> np.ndarray:
    """The tabled twiddles at ``start <= j < stop``, for ``start`` a multiple of ``_BLOCK`` and
    at most ``_BLOCK`` nodes: whole rows of the table or, where a row is longer than a block, part
    of one.  Each is ``coarse * fine + coarse``, so that a node's value does not depend on
    ``count`` or on the nodes expanded with it.  A row is formed with its coarse factor as a
    scalar, which takes none of the buffers that numpy allocates to broadcast a column."""
    fine, coarse = twiddle
    first, size = start % fine.size, stop - start
    width = min(fine.size - first, size)
    chunk = np.empty(-(-size // width) * width, dtype=np.complex128)
    for out, c in zip(chunk.reshape(-1, width), coarse[start // fine.size:]):
        np.multiply(c, fine[first:first + width], out=out)
        out += c
    return chunk[:size]


def _twiddle(acc: np.ndarray, twiddle: _Twiddles) -> None:
    # acc times the tabled twiddles at 0 <= j < acc.size, in place, expanded block by block;
    # its callers are quiet
    for start in range(0, acc.size, _BLOCK):
        stop = min(start + _BLOCK, acc.size)
        acc[start:stop] *= _expand(twiddle, start, stop)


@_QUIET
def _twiddled_sum(e: Optional[np.ndarray], o: Optional[np.ndarray],
                  w: _Twiddles) -> Optional[np.ndarray]:
    # e + w o, in o's array, with None for 0
    if o is not None:
        _twiddle(o, w)
        if e is not None:
            o += e
    return e if o is None else o


@_QUIET
def _abs_window(re: np.ndarray, im: Optional[np.ndarray], n: int, scale: float) -> np.ndarray:
    # |g| at |j| < n, g = (re + i im) / scale at j >= 0 and (conj(re) + i conj(im)) / scale at
    # -j, from a real part's and an imaginary part's (None for 0) inverses at 0 <= j < n; each
    # part's window is Hermitian.  A non-finite g raises
    absg = np.empty(2 * n - 1)
    halves = [(re[:n], None if im is None else im[:n], absg[n - 1:])]
    if im is not None:
        halves.append((np.conjugate(re[n - 1:0:-1]), np.conjugate(im[n - 1:0:-1]), absg[:n - 1]))
    for a, b, out in halves:
        if b is None and a.dtype.kind == "f":  # scaled straight into out
            g = np.divide(a, scale, out=out)
        else:
            g = (a if b is None else a + 1j * b) / scale
        _refuse_non_finite(g)
        np.abs(g, out=out)
    if im is None:
        absg[:n - 1] = absg[:n - 1:-1]
    return absg


def _windows(psi: Callable[[np.ndarray], np.ndarray], grid: GridSpec, oversample: int,
             doubled: bool) -> Iterator[tuple[complex, np.ndarray]]:
    """Yield the constant term and ``|g|`` on the window ``|j| < N/2`` of ``grid`` refined by
    ``oversample``, then, if ``doubled``, on the doubled window ``|j| < N`` (see the module
    notes)."""
    fine = grid.refined(oversample)
    n, m = grid.size, fine.size
    phases = 2 * m // n  # of n nodes each
    step = 0.5 * fine.dy
    c = getattr(psi, "const_at_infinity", None)
    if c is None:
        try:
            c = _limit_at_infinity(psi, fine)
        except (GridTooSmallError, InconsistentLimitError):
            for q in range(phases):  # a fault of the symbol's values elsewhere comes first
                _samples(psi, n, phases, q, step)
            raise
    fold = getattr(psi, "even", False)
    count = n if doubled else n // 2
    squared = _twiddles(m, count, 2)  # w^2, for the twiddle w = e^{i pi j / M}
    even = _accumulate(psi, c, n, phases, 0, step, squared, count, fold)
    if fold:  # each part's window is real; copied, the complex sums are freed
        even = [None if e is None else e.real.copy() for e in even]
    yield c, _abs_window(*even, n // 2, fine.dx * (phases // 2))
    if doubled:
        odd = _accumulate(psi, c, n, phases, 1, step, squared, count, fold)
        del squared
        w = _twiddles(m, count, 1)
        parts = [_twiddled_sum(e, o, w) for e, o in zip(even, odd)]
        del even, odd, w
        if fold:
            parts = [None if p is None else p.real for p in parts]
        yield c, _abs_window(*parts, n, fine.dx * phases)


def _check_squares(half_length: float) -> None:
    # (2 L)^2, the tail fit's largest square, must be a double
    if not math.isfinite(4.0 * half_length * half_length):
        raise InvalidParameterError(f"half_length {half_length!r} squares beyond a double")


def _wiener_components(c: complex, absg: np.ndarray, dx: float):
    # the window mass, the tail fit on n - k <= |j| < n and the total, from |g| at |j| < n
    n = (absg.size + 1) // 2
    k, L = int(_TAIL_BAND * n), n * dx  # L exactly: dx = 2 L / N, n = N / 2
    x2 = (np.arange(n - k, n) * dx) ** 2
    with np.errstate(over="ignore"):  # an overflow makes the total inf, refused below
        density_l1 = dx * float(np.sum(absg))
        c_left = float(np.max(absg[:k][::-1] * x2, initial=0.0))
        c_right = float(np.max(absg[absg.size - k:] * x2, initial=0.0))
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
    dx = grid.refined(oversample).dx  # oversample is checked first
    _check_squares(grid.half_length)
    windows = _windows(psi, grid, oversample, doubled=True)
    c, absg = next(windows)
    density_l1, tail, total = _wiener_components(c, absg, dx)
    del absg  # freed before the odd phases are sampled
    refined_total = _wiener_components(c, next(windows)[1], dx)[2]
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
        pair_grid = GridSpec(grid.half_length, size)
        dx = pair_grid.refined(oversample).dx
        c, g = next(_windows(psi, pair_grid, oversample, doubled=False))
        if partner is None:
            return _wiener_components(c, g, dx)[2]
        return _lp(g, dx, partner)

    coarse = one_pass(n // 2)  # its arrays are freed before the finer pass allocates
    finer = one_pass(n)
    return max(finer, 2.0 * finer - coarse)
