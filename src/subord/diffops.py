"""Polynomial differential operators and two-operator domination.

A polynomial ``P`` acts on functions as ``P(-i d/dx)``; on the frequency
side this is plain multiplication by ``P(y)``.  Given three polynomials with
``deg target <= deg op1`` and, at every common real root of ``op1`` and
``op2``, a root of ``target`` of at least the lower of their multiplicities,
the symbol splits as

    target(y) = h1(y) op1(y) + h2(y) op2(y)

with bounded cofactors, since near such a root the two operators generate the
ideal of that power of ``y - r`` (Hörmander, *Linear Partial Differential
Operators*, 1963, ch. III).  ``h1`` is ``target / op1`` away from its poles,
the real roots of higher multiplicity in ``op1`` than in ``target``, and a
linear interpolant across a neighborhood of each pole; ``h2`` carries the
remainder inside those neighborhoods.  When both cofactors are transforms of
finite measures, norms of ``target(-i d/dx) f`` are dominated by norms of the
two operator images — including with different exponents on each side, via
the convolution inequality for mixed exponents.

Everything here works with ascending coefficient sequences (``c[k]`` is the
coefficient of ``y^k``), which may be complex.  Root structure is decided
exactly over Q (:func:`real_roots`), values on grids in doubles.

An operator applies through real-input FFTs (Sorensen, Jones, Heideman and Burrus,
*IEEE Trans. ASSP* 35, 1987).  Each part of a test function, ``Re f`` and ``Im f`` where it is
nonzero, has a Hermitian spectrum, and so has each part of ``P = A + iB`` with
``A(-y) = conj A(y)`` and ``B(-y) = conj B(y)``; the image's parts are then the inverses of
the Hermitian spectra ``A R_re - B R_im`` and ``B R_re + A R_im``, each held and inverted on the
``N/2 + 1`` nodes ``y >= 0`` in FFT order, none of them where it is 0 (:func:`_image`).  An
image's ``L^2`` norm needs no inverse: Parseval's identity reads it off that spectrum
(:func:`_image_norm`).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .comparison import Multiplier, Report, _fill_limits, _fmt_p, _quotient, _verify
from .errors import (
    BandwidthExceededError,
    HypothesesViolatedError,
    InadmissibleExponentsError,
    InvalidParameterError,
    NeighborhoodDegenerateError,
    VerificationFailureError,
)
from .fourier_core import (_BLOCK, _QUIET, SPACE, GridSpec, SampledFunction, _lp, _outer_band,
                           _refuse_non_finite)
from .measures import factor_norm
from .testkit import TestFunction, diffop_suite

__all__ = [
    "poly_degree",
    "poly_label",
    "real_roots",
    "Violation",
    "decomposition_hypotheses",
    "SymbolDecomposition",
    "construct_decomposition",
    "apply_diffop",
    "partner_exponent",
    "diffop_subordination",
]

#: identity residual allowed, relative to the sup of the target symbol
_IDENTITY_TOL = 1e-10
#: spectrum fraction allowed in the outer band of the dual window when applying an operator
_BANDWIDTH_LEVEL = 1e-8


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _as_poly(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if c.ndim != 1 or c.size == 0:
        raise InvalidParameterError("polynomial coefficients must be a nonempty 1-d sequence")
    if not np.isfinite(c).all():
        raise InvalidParameterError("polynomial coefficients must be finite")
    return npoly.polytrim(c)


def poly_degree(coeffs) -> int:
    """Degree after trimming trailing zeros; the zero polynomial has degree -1."""
    c = _as_poly(coeffs)
    if c.size == 1 and c[0] == 0:
        return -1
    return c.size - 1


def _coeff_str(value: complex) -> str:
    if value.imag == 0:  # + 0.0 drops a signed zero, as in the real part of -1j
        return f"{value.real + 0.0:g}"
    return f"({value.real + 0.0:g}{value.imag:+g}j)"


def poly_label(coeffs) -> str:
    """Human-readable form like ``y^2-1``; contains no commas."""
    c = _as_poly(coeffs)
    terms = []
    for k in range(c.size - 1, -1, -1):
        v = c[k]
        if v == 0 and c.size > 1:
            continue
        power = "" if k == 0 else ("y" if k == 1 else f"y^{k}")
        if power and v == 1:
            body = power
        elif power and v == -1:
            body = f"-{power}"
        else:
            body = _coeff_str(v) + power
        if terms and not body.startswith("-"):
            terms.append("+" + body)
        else:
            terms.append(body)
    return "".join(terms) if terms else "0"


def _euclid(a: np.ndarray, b: np.ndarray) -> list:
    """``a``, ``b`` and the negated remainders of Euclid's algorithm over Q down to the last
    nonzero one, ``gcd(a, b)``; for square-free ``a`` and ``b = a'``, a Sturm sequence.  Each
    remainder is divided by the size of its leading coefficient, which keeps its signs."""
    seq = [npoly.polytrim(a), npoly.polytrim(b)]
    while seq[-1].any():
        r = npoly.polydiv(seq[-2], seq[-1])[1]
        seq.append(-r / (abs(r[-1]) or 1))
    return seq[:-1]


def _real_part(coeffs) -> np.ndarray:
    """A polynomial over Q with the real roots of ``coeffs``, each of the same multiplicity: a
    real root of ``a + ib`` is one of ``gcd(a, b)``."""
    parts = zip(*((x, 0) if isinstance(x, (int, Fraction)) else (complex(x).real, complex(x).imag)
                  for x in np.atleast_1d(np.asarray(coeffs, dtype=object))))
    # an int or Fraction as it is; a float as its shortest decimal, the one that rounds to it
    return _euclid(*(np.array([Fraction(v if isinstance(v, (int, Fraction)) else repr(v))
                               for v in part]) for part in parts))[-1]


def _square_free(p: np.ndarray) -> np.ndarray:
    """``p / gcd(p, p')``, with each root of ``p`` once."""
    return npoly.polydiv(p, _euclid(p, npoly.polyder(p))[-1])[0] if p.any() else p


def _roots(p: np.ndarray) -> np.ndarray:
    """Sorted real roots of square-free ``p`` over Q, each correctly rounded to a double.

    Halves ``(lo, hi]`` from a power of two beyond Cauchy's bound until a Sturm sequence
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2) counts one root,
    then bisects on the sign of ``p``, tested at every midpoint for a dyadic root such as one
    halfway between two doubles, until both ends round to one double."""
    sturm = [s * math.lcm(*(c.denominator for c in s)) for s in _euclid(p, npoly.polyder(p))]
    sturm = [np.array([c.numerator for c in s], dtype=object) for s in sturm]  # integers

    def value(s: np.ndarray, x: Fraction) -> int:  # den^deg s(num/den), in integers
        powers = np.arange(s.size)[::-1].astype(object)
        return npoly.polyval(x.numerator, s * x.denominator ** powers)

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (value(s, x) for s in sturm) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 2 ** math.ceil(1 + max((abs(c / p[-1]) for c in p[:-1]), default=0)).bit_length()
    if bound > 2 ** 1023:
        raise InvalidParameterError("polynomial roots may overflow a double")
    found, stack = [], [(Fraction(-bound), Fraction(bound), variations(-bound), variations(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = variations(mid)
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
        elif vlo > vhi:  # one root, where p changes sign
            v = sign = value(sturm[0], hi)
            while v and float(lo) != float(hi):
                mid = (lo + hi) / 2
                v = value(sturm[0], mid) * sign
                lo, hi = (lo, mid) if v >= 0 else (mid, hi)
            found.append(float(hi))
    return np.sort(found)


def real_roots(coeffs) -> np.ndarray:
    """Sorted distinct real roots, decided over Q and each rounded to the nearest double.

    An int or ``Fraction`` coefficient is read as it is, a float as its shortest decimal."""
    _as_poly(coeffs)  # nonempty, 1-d and finite
    return _roots(_square_free(_real_part(coeffs)))


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


def _refuse_overflow(kind: str, flag: int):  # numpy's error callback, not an inf carried on
    raise InvalidParameterError("polynomial values overflow a double")


def _root_table(target, op1, op2):
    """``(violations, poles of target / op1, real roots of op1 or op2)``, decided over Q once for
    :func:`decomposition_hypotheses` and :func:`construct_decomposition`."""
    violations = []
    for name, poly in (("target", target), ("op1", op1), ("op2", op2)):
        if poly_degree(poly) < 0:
            violations.append(Violation(
                code="zero_polynomial",
                detail=f"{name} is the zero polynomial"))
    if violations:
        return tuple(violations), np.empty(0), np.empty(0)
    if poly_degree(target) > poly_degree(op1):
        violations.append(Violation(
            code="degree",
            detail=f"target degree {poly_degree(target)} exceeds op1 degree {poly_degree(op1)}; "
                   "the outer cofactor would be unbounded"))
    q, r1, r2 = (_real_part(c) for c in (target, op1, op2))
    g1, g2 = _euclid(r1, q)[-1], _euclid(r2, q)[-1]
    # each operator's real roots of higher multiplicity than in the target, that many times over
    d1, d2 = npoly.polydiv(r1, g1)[0], npoly.polydiv(r2, g2)[0]
    for r in _roots(_square_free(_euclid(d1, d2)[-1])):
        violations.append(Violation(
            code="common_root",
            detail=f"op1 and op2 share the real root y={r:.9g}, where the target vanishes to "
                   "lower order than both"))
    poles = _roots(_square_free(d1))
    # the other real roots of op1 = d1 g1 or op2 are those of g1 op2
    return tuple(violations), poles, np.union1d(poles, _roots(_square_free(npoly.polymul(g1, r2))))


def decomposition_hypotheses(target, op1, op2) -> tuple[Violation, ...]:
    """The violated structural conditions for a bounded decomposition, if any.

    Required: all three polynomials nonzero, ``deg target <= deg op1``, and
    at every common real root ``r`` of the two operators the multiplicities obey
    ``m_target(r) >= min(m_op1(r), m_op2(r))`` (otherwise no bounded
    combination of the two symbols can reproduce the target near that point).
    A violation of the last is a ``common_root`` violation naming ``r``.
    """
    return _root_table(target, op1, op2)[0]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymbolDecomposition:
    """The constructed pair of cofactors plus diagnostics.

    ``neighborhoods`` holds ``(center, halfwidth)`` for each pole of
    ``target / op1``: each real root of ``op1`` of higher multiplicity than in
    ``target``.  ``identity_residual`` is the largest pointwise defect of
    ``target - (h1 op1 + h2 op2)`` over the dual grid and refined local
    grids; ``cofactor2_sup`` is measured on the same points.  Each cofactor declares its
    constant term (:attr:`Multiplier.const_at_infinity`).
    """

    target: np.ndarray
    op1: np.ndarray
    op2: np.ndarray
    grid: GridSpec
    neighborhoods: tuple[tuple[float, float], ...]
    cofactor1: Multiplier
    cofactor2: Multiplier
    identity_residual: float
    cofactor2_sup: float


def _local_grid(center: float, halfwidth: float, spacing: float) -> np.ndarray:
    # an odd node count, so the center is a node, and at least 65
    n = max(int(round(2.0 * halfwidth / spacing)) + 1, 65) | 1
    return np.linspace(center - halfwidth, center + halfwidth, n)


@np.errstate(over="call", call=_refuse_overflow)
def construct_decomposition(target, op1, op2, grid: GridSpec) -> SymbolDecomposition:
    """Build the two cofactors and verify the identity they must satisfy.

    The neighborhood of each pole of ``target / op1`` has halfwidth
    ``min(1, half the distance to the nearest other real root of op1 or
    op2)``, roots that ``target`` cancels included.  Inside it the first
    cofactor interpolates linearly between the two boundary values of
    ``target / op1`` and the second cofactor carries the remainder divided by
    ``op2``; outside, the first cofactor is ``target / op1`` and the second
    is 0.  Where ``op1`` or ``op2`` is below the normal doubles, the cofactor
    takes the limit of :func:`subord.comparison._fill_limits`, the rule of
    :func:`subord.comparison.ratio_multiplier`.  Both cofactors declare their
    constant term (:class:`Multiplier`'s ``const_at_infinity``): the ratio of
    the leading coefficients of ``target`` and ``op1`` for the first if their
    degrees agree, else 0, and 0 for the second.

    Raises :class:`HypothesesViolatedError` when the structural conditions
    fail (:func:`decomposition_hypotheses`),
    :class:`NeighborhoodDegenerateError` when a neighborhood is too narrow
    for the dual grid to see or leaves the dual window,
    :class:`FillUndefinedError` where a cofactor has no limit to take,
    :class:`VerificationFailureError` when the reconstructed symbol misses
    the target beyond rounding, and :class:`InvalidParameterError` when a
    value overflows a double.
    """
    q, p1, p2 = _as_poly(target), _as_poly(op1), _as_poly(op2)
    violations, poles, roots = _root_table(target, op1, op2)
    if violations:
        raise HypothesesViolatedError(violations)

    segments = []
    for r in poles:
        # half the distance to the nearest other real root of op1 or op2, at most 1
        gaps = np.abs(roots[roots != r] - r)
        delta = min(1.0, float(gaps.min(initial=2.0)) / 2.0)
        if delta < 4.0 * grid.dy or abs(r) + delta >= grid.dual_half_length:
            raise NeighborhoodDegenerateError(
                f"neighborhood of root y={r:.6g} has halfwidth {delta:.3g}: below four dual-grid "
                f"steps ({grid.dy:.3g}) or out of the dual window |y| < {grid.dual_half_length:.3g}")
        # linear interpolant data
        left, right = r - delta, r + delta
        lval = complex(npoly.polyval(left, q) / npoly.polyval(left, p1))
        rval = complex(npoly.polyval(right, q) / npoly.polyval(right, p1))
        slope = (rval - lval) / (2.0 * delta)  # complex arithmetic, which overflows silently
        if not cmath.isfinite(slope):
            raise InvalidParameterError("polynomial values overflow a double")
        segments.append((float(r), delta, lval, slope))

    def held(y: np.ndarray):
        # a mask per neighborhood of the y it holds (a shared edge goes to the first), and the rest
        free = np.ones(y.shape, dtype=bool)
        masks = []
        for center, delta, _, _ in segments:
            masks.append(free & (np.abs(y - center) <= delta))
            free &= ~masks[-1]
        return masks, free

    # each cofactor refuses an overflow wherever it is sampled, not only on this grid: a
    # Multiplier call ignores overflows, which would reach a factor as inf or nan
    @np.errstate(over="call", call=_refuse_overflow)
    def h1_fn(y: np.ndarray) -> np.ndarray:
        out = np.empty(y.shape, dtype=np.complex128)
        masks, rest = held(y)
        for (center, delta, lval, slope), m in zip(segments, masks):
            out[m] = lval + (y[m] - (center - delta)) * slope
        out[rest] = _fill_limits(lambda z: _quotient(npoly.polyval(z, q), npoly.polyval(z, p1)),
                                 y[rest], poly_label(p1))
        return out

    @np.errstate(over="call", call=_refuse_overflow)
    def h2_fn(y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=np.complex128)
        inside = ~held(y)[1]
        out[inside] = _fill_limits(
            lambda z: _quotient(npoly.polyval(z, q) - h1_fn(z) * npoly.polyval(z, p1),
                                npoly.polyval(z, p2)), y[inside], poly_label(p2))
        return out

    label1 = f"cofactor1[{poly_label(q)}|{poly_label(p1)}]"
    label2 = f"cofactor2[{poly_label(q)}|{poly_label(p1)}|{poly_label(p2)}]"
    at_infinity = q[-1] / p1[-1] if poly_degree(q) == poly_degree(p1) else 0.0
    cofactor1 = Multiplier(label=label1, _fn=h1_fn, const_at_infinity=at_infinity)
    cofactor2 = Multiplier(label=label2, _fn=h2_fn, const_at_infinity=0.0)

    # one pass over the dual nodes k dy, -N/2 <= k < N/2, block by block, with sup |Q|, then
    # refined local grids around each pole; maxima, so the same as over the whole grid at once
    h = grid.size // 2
    sup_q = residual = sup_h2 = 0.0
    for dual, pts in itertools.chain(
            ((True, np.arange(k, min(k + _BLOCK, h)) * grid.dy) for k in range(-h, h, _BLOCK)),
            ((False, _local_grid(c, d, grid.dy / 16.0)) for c, d, _, _ in segments)):
        v1, v2 = h1_fn(pts), h2_fn(pts)
        rebuilt = v1 * npoly.polyval(pts, p1) + v2 * npoly.polyval(pts, p2)
        target = npoly.polyval(pts, q)
        if dual:
            sup_q = max(sup_q, float(np.abs(target).max()))
        residual = max(residual, float(np.abs(target - rebuilt).max()))
        sup_h2 = max(sup_h2, float(np.abs(v2).max()))
    if residual > _IDENTITY_TOL * (1.0 + sup_q):
        raise VerificationFailureError(
            f"reconstructed symbol misses the target by {residual:.3g} "
            f"(allowed {_IDENTITY_TOL * (1.0 + sup_q):.3g})")

    return SymbolDecomposition(
        target=q, op1=p1, op2=p2, grid=grid,
        neighborhoods=tuple((c, d) for c, d, _, _ in segments),
        cofactor1=cofactor1, cofactor2=cofactor2,
        identity_residual=residual,
        cofactor2_sup=sup_h2,
    )


# ---------------------------------------------------------------------------
# applying operators
# ---------------------------------------------------------------------------

def _split(p: np.ndarray, grid: GridSpec):
    """Trimmed ``p`` split as ``A + iB``, each Hermitian (``A(-y) = conj A(y)``), from its
    coefficients ``c_k``: ``a_k = Re c_k`` and ``b_k = Im c_k`` for even ``k``, ``a_k = i Im c_k``
    and ``b_k = -i Re c_k`` for odd ``k``.  Returns ``(p, (A, B), sup)``: each of ``A`` and ``B``
    as its real and imaginary part on the nodes ``j dy``, ``0 <= j <= N/2``, two float64 arrays,
    each None where its coefficients are all zero; and ``sup``, the largest ``|p|`` on the dual
    grid's nodes."""
    y = np.arange(grid.size // 2 + 1) * grid.dy
    even = np.arange(p.size) % 2 == 0
    pieces = [npoly.polyval(y, c) if c.any() else None
              for c in (np.where(even, p.real, 0.0), np.where(even, 0.0, p.imag),
                        np.where(even, p.imag, 0.0), np.where(even, 0.0, -p.real))]
    sup = float(np.abs(npoly.polyval(grid.dual_nodes(), p if p.imag.any() else p.real)).max())
    return p, (tuple(pieces[:2]), tuple(pieces[2:])), sup


def _abs_pair(re: Optional[np.ndarray], im: Optional[np.ndarray]):
    """``|re + i im|`` at ``+j dy`` and ``|conj re + i conj im|`` at ``-j dy``, ``0 <= j <= N/2``,
    from two half spectra, not both None (for 0): the join of :func:`subord.measures._abs_window`.
    With one part the two are one array."""
    if re is None or im is None:
        absv = np.abs(im if re is None else re)
        return absv, absv
    return np.abs(re + 1j * im), np.abs(np.conjugate(re) + 1j * np.conjugate(im))


@_QUIET  # a non-finite spectrum is refused
def _spectra(f: SampledFunction):
    """``(R_re, R_im, sup)`` of ``f``: the real-input FFT of each part of ``f``, ``Re f`` and
    ``Im f`` (``R_im`` None where ``Im f`` is 0), in FFT order, times ``dx``, so the spectrum is
    ``R_re + i R_im`` at ``+j dy`` and ``conj R_re + i conj R_im`` at ``-j dy``; and ``sup``, its
    largest magnitude over the dual grid.  Non-finite output raises."""
    if f.side != SPACE:
        raise InvalidParameterError("an operator applies to a space-side function")
    v, h = f.values, f.grid.size // 2
    spectra = []
    for part in (v.real, v.imag if v.imag.any() else None):
        if part is not None:
            part = np.fft.rfft(np.concatenate((part[h:], part[:h])))
            part *= f.grid.dx
            _refuse_non_finite(part)
        spectra.append(part)
    return (*spectra, _outer_band(*_abs_pair(*spectra))[1])


def _product(terms) -> Optional[np.ndarray]:
    """The sum of ``sign x r`` over ``terms = (sign, (Re x, Im x), r)``, None for 0: each part of
    ``x`` and ``r`` may be None, for 0."""
    sums = [None, None]  # of sign Re x r and of sign Im x r
    for sign, parts, r in terms:
        for k, x in enumerate(parts):
            if x is None or r is None:
                continue
            t = x * r
            if sums[k] is None:
                sums[k] = t if sign > 0 else np.negative(t, out=t)
            elif sign > 0:
                sums[k] += t
            else:
                sums[k] -= t
    real, imag = sums
    if imag is None:
        return real
    if real is None:
        real = np.zeros_like(imag)
    real.real -= imag.imag  # plus i imag, exactly
    real.imag += imag.real
    return real


@_QUIET  # a non-finite spectrum is refused by the callers
def _product_spectrum(split, spectra):
    """The half spectra ``S_re = A R_re - B R_im`` and ``S_im = B R_re + A R_im`` (None for 0) of
    ``P(-i d/dx) f``, for ``split = _split(p, grid)`` of trimmed ``p`` and ``spectra =
    _spectra(f)``, and the magnitudes of the product spectrum, ``|S_re + i S_im|`` at ``+j dy``
    and ``|conj S_re + i conj S_im|`` at ``-j dy`` (:func:`_abs_pair`); None when both are 0.  The
    product spectrum must have decayed in the outer 10% of the dual window; else
    :class:`BandwidthExceededError` is raised."""
    p, (a, b), p_sup = split
    r_re, r_im, f_sup = spectra
    s_re = _product(((1.0, a, r_re), (-1.0, b, r_im)))
    s_im = _product(((1.0, b, r_re), (1.0, a, r_im)))
    if s_re is None and s_im is None:
        return None
    pos, neg = _abs_pair(s_re, s_im)
    band, peak = _outer_band(pos, neg)
    # The transform of the input carries rounding residue of order eps at the
    # window edge even when the true spectrum has long underflowed, and the
    # symbol amplifies it by |P(edge)|.  Band content below that floor is
    # indistinguishable from rounding, so only genuine spectrum above it
    # counts against the decay requirement.
    noise_floor = 32.0 * np.finfo(float).eps * p_sup * f_sup
    if band > max(_BANDWIDTH_LEVEL * peak, noise_floor):
        raise BandwidthExceededError(
            f"spectrum of {poly_label(p)} applied to this function reaches {band / peak:.2e} "
            "of its peak in the outer 10% of the dual window; increase the grid size")
    return s_re, s_im, pos, neg


@_QUIET  # a non-finite image is refused by _inverse
def _image(split, spectra, grid: GridSpec):
    """``P(-i d/dx) f`` (see :func:`_product_spectrum`) as its real part and its imaginary part,
    ``irfft(S_re) / dx`` and ``irfft(S_im) / dx``, each in FFT order, None for 0.  A non-finite
    image raises.

    At the Nyquist node, where ``+-pi/dx`` alias, the image applies the mean of ``p(pi/dx)`` and
    ``p(-pi/dx)``, the value that keeps a real function real under an even real ``p`` and
    imaginary under an odd one (Johnson, *Notes on FFT-based differentiation*, MIT, 2011);
    every other dual node applies ``p`` itself."""
    found = _product_spectrum(split, spectra)
    if found is None:
        return None, None
    s_re, s_im = found[0], found[1]
    del found  # the magnitudes are freed before the inverses are allocated
    return tuple(None if s is None else _inverse(s, grid) for s in (s_re, s_im))


def _image_norm(split, spectra, grid: GridSpec, p: float) -> float:
    """``||P(-i d/dx) f||_p`` on the rectangle rule.  For ``p = 2`` it is Parseval's identity for
    the discrete pair, ``sum |g_j|^2 dx = sum |G_k|^2 dy / (2 pi)`` over the ``N`` nodes, read
    off the product spectrum's magnitudes with no inverse transform; at the Nyquist node ``G``
    is what :func:`_image` applies there, ``Re S_re + i Re S_im``.  Else it is the norm of
    :func:`_image`.  A non-finite spectrum or image raises."""
    if p != 2.0:
        return _lp(_abs_image(_image(split, spectra, grid), grid.size), grid.dx, p)
    found = _product_spectrum(split, spectra)
    if found is None:
        return 0.0
    s_re, s_im, pos, neg = found
    h = grid.size // 2
    nyquist = abs(complex(*(0.0 if s is None else s[h].real for s in (s_re, s_im))))
    magnitudes = np.concatenate((pos[:h], neg[1:h], [nyquist]))
    _refuse_non_finite(magnitudes)
    return _lp(magnitudes, grid.dy / (2.0 * math.pi), 2.0)


def _inverse(s: np.ndarray, grid: GridSpec) -> np.ndarray:
    # the N reals, in FFT order, whose spectrum is s at j dy, 0 <= j <= N/2; non-finite raises
    g = np.fft.irfft(s, n=grid.size)
    g /= grid.dx
    _refuse_non_finite(g)
    return g


def _abs_image(image, size: int) -> np.ndarray:
    # |re + i im| of an image of _image, consuming its arrays
    re, im = image
    if re is None and im is None:
        return np.zeros(size)
    if re is None or im is None:
        part = im if re is None else re
        return np.abs(part, out=part)
    return np.hypot(re, im, out=re)


def apply_diffop(coeffs, f: SampledFunction) -> SampledFunction:
    """Apply ``P(-i d/dx)`` by multiplying the transform with ``P(y)``.

    The parts of ``f`` and of ``P`` are transformed and applied as in ``diffop-verify``'s
    corpus (:func:`_image`), and the image's parts are shifted back to the centred grid.  The
    product spectrum must have decayed in the outer 10% of the dual window — otherwise the
    grid cannot represent the derivative and :class:`BandwidthExceededError` is raised
    (enlarge ``size`` to widen the dual window).
    """
    grid = f.grid
    image = _image(_split(_as_poly(coeffs), grid), _spectra(f), grid)
    h = grid.size // 2
    values = np.zeros(grid.size, dtype=np.complex128)
    for part, out in zip(image, (values.real, values.imag)):
        if part is not None:
            out[:h], out[h:] = part[h:], part[:h]
    return SampledFunction._owning(grid, values, SPACE)


# ---------------------------------------------------------------------------
# norm subordination with mixed exponents
# ---------------------------------------------------------------------------

def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def partner_exponent(q: float, p: float) -> float:
    """The ``s`` with ``1/s = 1 + 1/q - 1/p``, as in the convolution inequality."""
    if p == q:  # exactly 1, which 1 + 1/q - 1/p need not round to
        return 1.0
    inv_s = 1.0 + _inv(q) - _inv(p)
    if inv_s < 0 or inv_s > 1:
        raise InadmissibleExponentsError(
            f"no convolution partner exponent for q={q}, p={p}")
    return math.inf if inv_s == 0 else 1.0 / inv_s


def _check_exponent_value(name: str, p: float) -> float:
    p = float(p)
    if not p >= 1.0:  # false for nan and -inf as well
        raise InadmissibleExponentsError(f"{name} must lie in [1, inf], got {p}")
    return p


def _validate_exponents(q: float, p1: float, p2: float,
                        deg_target: int, deg_op1: int) -> tuple[float, float, float]:
    q = _check_exponent_value("q", q)
    p1 = _check_exponent_value("p1", p1)
    p2 = _check_exponent_value("p2", p2)
    problems = []
    if p1 > q:
        problems.append(f"p1={p1} exceeds q={q}")
    if p2 > q:
        problems.append(f"p2={p2} exceeds q={q}")
    if deg_target == deg_op1 and p1 != q:
        problems.append(
            f"p1={p1} differs from q={q} although target and op1 have equal degree; "
            "the first cofactor keeps a constant at infinity and only maps L^q to L^q")
    if problems:
        raise InadmissibleExponentsError("; ".join(problems))
    return q, p1, p2


def diffop_subordination(d: SymbolDecomposition, q: float,
                         p1: Optional[float] = None, p2: Optional[float] = None,
                         oversample: int = 4,
                         suite: Optional[Sequence[TestFunction]] = None) -> Report:
    """Verify ``||target f||_q <= C (||op1 f||_p1 + ||op2 f||_p2)`` on a corpus.

    ``d`` is the decomposition of :func:`construct_decomposition`; its
    polynomials and its grid are the ones checked.  Exponents default to
    ``p1 = p2 = q``.  Lower exponents are admissible only where the
    corresponding cofactor decays: ``p1 < q`` needs
    ``deg target < deg op1``; the second cofactor is always compactly
    supported, so any ``p2 <= q`` works.  The constant is the larger of the two
    per-operator factors of :func:`subord.measures.factor_norm`, passed each cofactor,
    which declares its constant term, the partner exponent if ``p < q`` and the
    neighborhoods' extent (the :mod:`subord.measures` notes give the grid pair and the
    extrapolation); no factor is flagged unconverged, and acceptance criterion 07 compares
    the constant with a single pass on a finer grid.  The corpus is checked on ``d.grid``
    itself by :func:`_image`: each polynomial is split once into its Hermitian parts
    (:func:`_split`), each test function transformed once, one real-input FFT per nonzero part
    (:func:`_spectra`), and each image inverted with one real-input FFT per nonzero part of its
    own, so a real function under an even or an odd real polynomial costs one, except at the
    exponent 2, whose norm is read off the image's spectrum with no inverse (:func:`_image_norm`).
    """
    grid = d.grid
    q_, p1_, p2_ = _validate_exponents(
        q, q if p1 is None else p1, q if p2 is None else p2,
        poly_degree(d.target), poly_degree(d.op1))

    extent = max((abs(r) + delta for r, delta in d.neighborhoods), default=0.0)
    factor1, factor2 = (factor_norm(h, grid, None if p == q_ else partner_exponent(q_, p),
                                    extent, oversample)
                        for h, p in ((d.cofactor1, p1_), (d.cofactor2, p2_)))
    exponents = f"q={_fmt_p(q_)};p1={_fmt_p(p1_)};p2={_fmt_p(p2_)}"
    operators = [(_split(p, grid), e) for p, e in ((d.target, q_), (d.op1, p1_), (d.op2, p2_))]

    def rows(f):
        spectra = _spectra(f)
        del f  # only the half spectra are read
        lhs, *rhs = (_image_norm(split, spectra, grid, e) for split, e in operators)
        yield None, exponents, lhs, rhs[0] + rhs[1]

    if suite is None:
        suite = diffop_suite(max(poly_degree(p) for p in (d.target, d.op1, d.op2)))
    return _verify(suite, grid, rows, max(factor1, factor2), "subordination",
                   factor1=factor1, factor2=factor2, q=q_, p1=p1_, p2=p2_)
