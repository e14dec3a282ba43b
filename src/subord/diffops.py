"""Polynomial differential operators and two-operator domination.

A polynomial ``P`` acts on functions as ``P(-i d/dx)``; on the frequency
side this is plain multiplication by ``P(y)``.  Given three polynomials with
``deg target <= deg op1`` and every common real root of ``op1`` and ``op2``
also a root of ``target``, the symbol splits as

    target(y) = h1(y) op1(y) + h2(y) op2(y)

with bounded cofactors: ``h1`` is ``target / op1`` away from the real roots
of ``op1`` and a linear interpolant across a neighborhood of each root, and
``h2`` carries the remainder inside those neighborhoods.  When both
cofactors are transforms of finite measures, norms of ``target(-i d/dx) f``
are dominated by norms of the two operator images — including with different
exponents on each side, via the convolution inequality for mixed exponents.

Everything here works with ascending coefficient sequences (``c[k]`` is the
coefficient of ``y^k``), which may be complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .comparison import Multiplier, Report, _fmt_p, _probe_limit, _verify
from .errors import (
    BandwidthExceededError,
    HypothesesViolatedError,
    InadmissibleExponentsError,
    InvalidParameterError,
    MultiplicityObstructionError,
    NeighborhoodDegenerateError,
    VerificationFailureError,
)
from .fourier_core import (GridSpec, SampledFunction, _lp, _outer_band, apply_symbol, forward_ft,
                           lp_norm)
from .measures import _samples, _wiener_components, _window_density
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
    "verify_identity",
    "partner_exponent",
    "diffop_subordination",
]

#: imaginary parts below this (relative) level count as real roots
_IMAG_TOL = 1e-7
#: roots of two polynomials closer than this (relative) are one shared root (see _root_spread)
_CLUSTER_TOL = 1e-7
#: spread and lower Taylor terms allowed for the copies of one root, in rounding units (_one_root)
_CLUSTER_SLACK = 10.0
#: relative residual allowed when confirming a root location
_ROOT_RESIDUAL = 1e-8
#: relative level below which the second symbol counts as zero inside a neighborhood
_DIVISION_GUARD = 1e-12
#: identity residual allowed, relative to the sup of the target symbol
_IDENTITY_TOL = 1e-10
#: sup-norm defect allowed on functions, relative to 1 + sup |target f|
_IDENTITY_DEFECT = 1e-6
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
    last = c.size
    while last > 1 and c[last - 1] == 0:
        last -= 1
    return c[:last].copy()


def poly_degree(coeffs) -> int:
    """Degree after trimming trailing zeros; the zero polynomial has degree -1."""
    c = _as_poly(coeffs)
    if c.size == 1 and c[0] == 0:
        return -1
    return c.size - 1


def _coeff_str(value: complex) -> str:
    if value.imag == 0:
        return f"{value.real:g}"
    return f"({value.real:g}{value.imag:+g}j)"


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


def _poly_scale(coeffs: np.ndarray, y: float) -> float:
    # magnitude scale of the evaluation, for relative residual thresholds
    return float(np.abs(coeffs).max()) * max(1.0, abs(y)) ** (coeffs.size - 1)


def _root_spread(m: int) -> float:
    # the m copies of a root of multiplicity m spread about eps^(1/m) (relative: 1.5e-8, 1e-5,
    # 2e-4, 1e-3 for m = 2 .. 5), doubled from m = 3 on; at the degree, the widest imag part kept
    return _CLUSTER_TOL if m <= 2 else 2.0 * _CLUSTER_TOL ** (2.0 / m)


def _one_root(c: np.ndarray, group: np.ndarray) -> bool:
    # whether group is the m copies of one root z, their mean: rounding at s = eps S(z) spreads
    # it over r = (s / |a_m|)^(1/m), a_j = P^(j)(z) / j!, wide if a root nearby shrinks a_m; the
    # copies lie within 10 r of z and each |a_j| r^j, j < m, below 10 s, as no run of simple roots
    m, z = group.size, complex(np.mean(group))
    s = np.finfo(float).eps * _poly_scale(c, abs(z))
    a = [abs(npoly.polyval(z, npoly.polyder(c, j))) / math.factorial(j) for j in range(m + 1)]
    r = (s / a[m]) ** (1.0 / m) if a[m] else math.inf
    return (float(np.abs(group - z).max()) <= _CLUSTER_SLACK * r
            and all(a[j] * r**j <= _CLUSTER_SLACK * s for j in range(m)))


def real_roots(coeffs) -> np.ndarray:
    """Sorted distinct real roots of the polynomial, each once whatever its multiplicity.

    In order of real part, the companion-matrix roots are taken in runs, each the
    longest that passes for one root of its multiplicity (:func:`_one_root`).
    A run whose mean is real to ``1e-7`` is one root at the mean of its real parts, where the
    spread cancels; :class:`VerificationFailureError` unless P vanishes at just the real runs.
    """
    c = _as_poly(coeffs)
    roots = npoly.polyroots(c)
    near = roots[np.abs(roots.imag) <= _root_spread(c.size - 1) * (1.0 + np.abs(roots.real))]
    near = near[np.argsort(near.real)]
    locations = []
    while near.size:
        size = next((k for k in range(near.size, 1, -1) if _one_root(c, near[:k])), 1)
        group, near = near[:size], near[size:]
        loc, imag = float(np.mean(group.real)), abs(float(np.mean(group.imag)))
        real = imag <= _IMAG_TOL * (1.0 + abs(loc))
        residual = abs(complex(npoly.polyval(loc, c)))
        if real != (residual <= _ROOT_RESIDUAL * _poly_scale(c, loc)):  # none dropped silently
            raise VerificationFailureError(
                f"candidate real root y={loc:.9g} of {poly_label(c)} has residual {residual:.3g}, "
                + ("beyond the accepted level" if real else f"yet lies {imag:.3g} off the axis"))
        if real:
            locations.append(loc)
    return np.asarray(locations)


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


def _refuse_overflow(kind: str, flag: int):  # numpy's error callback, not an inf carried on
    raise InvalidParameterError("polynomial values overflow a double")


@np.errstate(over="call", call=_refuse_overflow)
def _root_table(q: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    """``(violations, real roots of p1, real roots of p2 not shared with p1)``,
    found once for :func:`decomposition_hypotheses` and :func:`construct_decomposition`."""
    violations = []
    for name, poly in (("target", q), ("op1", p1), ("op2", p2)):
        if poly_degree(poly) < 0:
            violations.append(Violation(
                code="zero_polynomial",
                detail=f"{name} is the zero polynomial"))
    if violations:
        return tuple(violations), np.empty(0), np.empty(0)
    if poly_degree(q) > poly_degree(p1):
        violations.append(Violation(
            code="degree",
            detail=f"target degree {poly_degree(q)} exceeds op1 degree {poly_degree(p1)}; "
                   "the outer cofactor would be unbounded"))
    roots1 = real_roots(p1)
    roots2 = real_roots(p2)
    shared = np.abs(roots2[:, None] - roots1) <= _CLUSTER_TOL * (1.0 + np.abs(roots2[:, None]))
    for r in roots1[shared.any(axis=0)]:
        value = abs(complex(npoly.polyval(r, q)))
        if value > _ROOT_RESIDUAL * _poly_scale(q, r):
            violations.append(Violation(
                code="common_root",
                detail=f"op1 and op2 share the real root y={r:.9g} but "
                       f"target({r:.9g}) = {value:.3g} does not vanish there"))
    return tuple(violations), roots1, roots2[~shared.any(axis=1)]


def decomposition_hypotheses(target, op1, op2) -> tuple[Violation, ...]:
    """The violated structural conditions for a bounded decomposition, if any.

    Required: all three polynomials nonzero, ``deg target <= deg op1``, and
    every common real root of the two operators is a real root of the
    target (otherwise no bounded combination of the two symbols can
    reproduce the target near that point).
    """
    return _root_table(_as_poly(target), _as_poly(op1), _as_poly(op2))[0]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymbolDecomposition:
    """The constructed pair of cofactors plus diagnostics.

    ``neighborhoods`` holds ``(center, halfwidth)`` for each real root of
    ``op1``.  ``identity_residual`` is the largest pointwise defect of
    ``target - (h1 op1 + h2 op2)`` over the dual grid and refined local
    grids; ``cofactor2_sup`` and the two Lipschitz numbers are measured on
    the same points.
    """

    target: np.ndarray
    op1: np.ndarray
    op2: np.ndarray
    grid: GridSpec
    neighborhoods: tuple[tuple[float, float], ...]
    cofactor1: Multiplier
    cofactor2: Multiplier
    cofactor1_at_infinity: complex
    identity_residual: float
    cofactor2_sup: float
    cofactor1_lipschitz: float
    cofactor2_lipschitz: float


def _local_grid(center: float, halfwidth: float, spacing: float) -> np.ndarray:
    # an odd node count, so the center is a node, and at least 65
    n = max(int(round(2.0 * halfwidth / spacing)) + 1, 65) | 1
    return np.linspace(center - halfwidth, center + halfwidth, n)


def _max_slope(values: np.ndarray, points: np.ndarray) -> float:
    return float(np.max(np.abs(np.diff(values)) / np.diff(points)))


@np.errstate(over="call", call=_refuse_overflow)
def construct_decomposition(target, op1, op2, grid: GridSpec) -> SymbolDecomposition:
    """Build the two cofactors and verify the identity they must satisfy.

    The neighborhood of each real root of ``op1`` has halfwidth
    ``min(1, half the distance to the nearest other root of op1, half the
    distance to the nearest root of op2 that is not shared)``.  Inside it
    the first cofactor interpolates linearly between the two boundary
    values of ``target / op1`` and the second cofactor carries the
    remainder divided by ``op2`` (where ``op2`` nearly vanishes it takes the
    limit of :func:`subord.comparison._probe_limit`, or 0 where that has none;
    at a shared root the remainder vanishes with it).

    Raises :class:`HypothesesViolatedError` when the structural conditions
    fail, :class:`NeighborhoodDegenerateError` when a neighborhood is too
    narrow for the dual grid to see or leaves the dual window,
    :class:`MultiplicityObstructionError` when the second cofactor grows
    under local refinement (a shared root of higher multiplicity in ``op2``
    than the remainder can cancel), :class:`VerificationFailureError`
    when the reconstructed symbol misses the target beyond rounding, and
    :class:`InvalidParameterError` when a value overflows a double.
    """
    q, p1, p2 = _as_poly(target), _as_poly(op1), _as_poly(op2)
    violations, roots1, op2_only = _root_table(q, p1, p2)
    if violations:
        raise HypothesesViolatedError(violations)

    segments = []
    for r in roots1:
        # half the distance to the nearest other root of op1 or unshared root of op2, at most 1
        gaps = np.abs(np.concatenate([roots1[roots1 != r], op2_only]) - r)
        delta = min(1.0, float(gaps.min(initial=2.0)) / 2.0)
        if delta < 4.0 * grid.dy or abs(r) + delta >= grid.dual_half_length:
            raise NeighborhoodDegenerateError(
                f"neighborhood of root y={r:.6g} has halfwidth {delta:.3g}: below four dual-grid "
                f"steps ({grid.dy:.3g}) or out of the dual window |y| < {grid.dual_half_length:.3g}")
        # linear interpolant data
        left, right = r - delta, r + delta
        lval = complex(npoly.polyval(left, q) / npoly.polyval(left, p1))
        rval = complex(npoly.polyval(right, q) / npoly.polyval(right, p1))
        segments.append((float(r), delta, lval, (rval - lval) / (2.0 * delta)))

    def held(y: np.ndarray):
        # a mask per neighborhood of the y it holds (a shared edge goes to the first), and the rest
        free = np.ones(y.shape, dtype=bool)
        masks = []
        for center, delta, _, _ in segments:
            masks.append(free & (np.abs(y - center) <= delta))
            free &= ~masks[-1]
        return masks, free

    def h1_fn(y: np.ndarray) -> np.ndarray:
        out = np.empty(y.shape, dtype=np.complex128)
        masks, rest = held(y)
        for (center, delta, lval, slope), m in zip(segments, masks):
            out[m] = lval + (y[m] - (center - delta)) * slope
        out[rest] = npoly.polyval(y[rest], q) / npoly.polyval(y[rest], p1)
        return out

    max_c2 = float(np.abs(p2).max())
    deg_p2 = p2.size - 1

    def _h2_direct(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # remainder / op2 with a mask of points where op2 is too small to divide
        num = npoly.polyval(y, q) - h1_fn(y) * npoly.polyval(y, p1)
        den = npoly.polyval(y, p2)
        guard = _DIVISION_GUARD * max_c2 * np.maximum(1.0, np.abs(y)) ** deg_p2
        bad = np.abs(den) < guard
        return np.divide(num, den, out=np.zeros(y.shape, dtype=np.complex128), where=~bad), bad

    def h2_fn(y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=np.complex128)
        inside = ~held(y)[1]
        ym = y[inside]
        vals, bad = _h2_direct(ym)
        # a point too close to a zero of op2 takes the probe limit, or 0 where it has none
        limit, undefined = _probe_limit(_h2_direct, ym[bad])
        vals[bad] = np.where(undefined, 0.0, limit)
        out[inside] = vals
        return out

    label1 = f"cofactor1[{poly_label(q)}|{poly_label(p1)}]"
    label2 = f"cofactor2[{poly_label(q)}|{poly_label(p1)}|{poly_label(p2)}]"
    cofactor1 = Multiplier(label=label1, _fn=h1_fn)
    cofactor2 = Multiplier(label=label2, _fn=h2_fn)

    at_infinity = complex(q[-1] / p1[-1]) if poly_degree(q) == poly_degree(p1) else 0.0 + 0.0j

    # diagnostics: dual grid plus refined local grids around each root
    ydual = grid.dual_nodes()
    locals16 = [_local_grid(c, d, grid.dy / 16.0) for c, d, _, _ in segments]
    h2_16 = [h2_fn(pts) for pts in locals16]
    sup16 = max((float(np.abs(v).max()) for v in h2_16), default=0.0)
    sup32 = max((float(np.abs(h2_fn(_local_grid(c, d, grid.dy / 32.0))).max())
                 for c, d, _, _ in segments), default=0.0)
    if sup16 > 0.0 and sup32 >= 1.5 * sup16:
        raise MultiplicityObstructionError(
            f"second cofactor grows under refinement (sup {sup16:.4g} -> {sup32:.4g}); "
            "a shared real root has higher multiplicity in op2 than the remainder cancels")

    sup_q = float(np.abs(npoly.polyval(ydual, q)).max())
    residual = sup_h2 = lip1 = lip2 = 0.0
    for pts, v2 in zip([ydual] + locals16, [h2_fn(ydual)] + h2_16):
        v1 = h1_fn(pts)
        rebuilt = v1 * npoly.polyval(pts, p1) + v2 * npoly.polyval(pts, p2)
        defect = np.abs(npoly.polyval(pts, q) - rebuilt)
        residual = max(residual, float(defect.max()))
        sup_h2 = max(sup_h2, float(np.abs(v2).max()))
        lip1 = max(lip1, _max_slope(v1, pts))
        lip2 = max(lip2, _max_slope(v2, pts))
    if residual > _IDENTITY_TOL * (1.0 + sup_q):
        raise VerificationFailureError(
            f"reconstructed symbol misses the target by {residual:.3g} "
            f"(allowed {_IDENTITY_TOL * (1.0 + sup_q):.3g})")

    return SymbolDecomposition(
        target=q, op1=p1, op2=p2, grid=grid,
        neighborhoods=tuple((c, d) for c, d, _, _ in segments),
        cofactor1=cofactor1, cofactor2=cofactor2,
        cofactor1_at_infinity=at_infinity,
        identity_residual=residual,
        cofactor2_sup=sup_h2,
        cofactor1_lipschitz=lip1,
        cofactor2_lipschitz=lip2,
    )


# ---------------------------------------------------------------------------
# applying operators
# ---------------------------------------------------------------------------

def apply_diffop(coeffs, f: SampledFunction) -> SampledFunction:
    """Apply ``P(-i d/dx)`` by multiplying the transform with ``P(y)``.

    The product spectrum must have decayed in the outer 10% of the dual
    window — otherwise the grid cannot represent the derivative and
    :class:`BandwidthExceededError` is raised (enlarge ``size`` to widen
    the dual window).
    """
    p = _as_poly(coeffs)
    return _apply_poly(p, npoly.polyval(f.grid.dual_nodes(), p), forward_ft(f))


def _apply_poly(p: np.ndarray, pvals: np.ndarray, F: SampledFunction) -> SampledFunction:
    """:func:`apply_diffop` for trimmed ``p``, its dual-node values ``pvals`` and ``F`` of ``f``."""
    band, peak = _outer_band(pvals * F.values)
    # The transform of the input carries rounding residue of order eps at the
    # window edge even when the true spectrum has long underflowed, and the
    # symbol amplifies it by |P(edge)|.  Band content below that floor is
    # indistinguishable from rounding, so only genuine spectrum above it
    # counts against the decay requirement.
    noise_floor = (32.0 * np.finfo(float).eps * float(np.abs(pvals).max())
                   * float(np.abs(F.values).max()))
    if band > max(_BANDWIDTH_LEVEL * peak, noise_floor):
        raise BandwidthExceededError(
            f"spectrum of {poly_label(p)} applied to this function reaches {band / peak:.2e} "
            "of its peak in the outer 10% of the dual window; increase the grid size")
    return apply_symbol(pvals, F)


# ---------------------------------------------------------------------------
# identity verification on functions
# ---------------------------------------------------------------------------

def _required_order(decomp: SymbolDecomposition) -> int:
    return max(poly_degree(decomp.target), poly_degree(decomp.op1), poly_degree(decomp.op2))


def verify_identity(decomp: SymbolDecomposition) -> Report:
    """Check ``target f = h1 (op1 f) + h2 (op2 f)`` on actual functions.

    Each case is the sup-norm defect over ``1 + sup |target f|``, so the
    report's ``constant`` is the allowed defect ``1e-6``, with no further
    slack, and ``worst_ratio`` the largest relative error.  The corpus is
    :func:`subord.testkit.diffop_suite` of the highest degree of the triple.
    """
    y = decomp.grid.dual_nodes()  # each polynomial and cofactor sampled once per call
    target, op1, op2 = ((p, npoly.polyval(y, p)) for p in (decomp.target, decomp.op1, decomp.op2))
    h1, h2 = decomp.cofactor1(y), decomp.cofactor2(y)

    def rows(f, F):
        direct = _apply_poly(*target, F)
        # each image goes back through space before its cofactor applies
        rebuilt = (apply_symbol(h1, forward_ft(_apply_poly(*op1, F)))
                   + apply_symbol(h2, forward_ft(_apply_poly(*op2, F))))
        yield (None, "p=inf", float(np.abs(direct.values - rebuilt.values).max()),
               1.0 + float(np.abs(direct.values).max()))

    return _verify(diffop_suite(_required_order(decomp)), decomp.grid, rows,
                   _IDENTITY_DEFECT, "identity", slack=0.0)


# ---------------------------------------------------------------------------
# norm subordination with mixed exponents
# ---------------------------------------------------------------------------

def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def partner_exponent(q: float, p: float) -> float:
    """The ``s`` with ``1/s = 1 + 1/q - 1/p``, as in the convolution inequality."""
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


def _operator_factor(symbol: Multiplier, grid: GridSpec, q: float, p: float,
                     oversample: int, const_at_infinity: complex) -> float:
    """Norm bound for the convolution operator with this symbol, L^p -> L^q.

    For ``p == q`` it is the measure norm's single-window total ``|c| + window
    mass + C/x^2 tail``, the ``total`` of :func:`measures.wiener_norm`.  No
    window-doubling test runs on it: no report ever read its outcome.  The
    refinement-drift check of acceptance criterion 07 is the guard."""
    vals = _samples(symbol, grid.refined(oversample))
    if p == q:
        return _wiener_components(vals, grid, oversample, const_at_infinity)[3]
    # p < q: the symbol has no constant at infinity, so the operator is
    # convolution with the density alone and its norm is bounded by the
    # partner-exponent norm of the density over the window.
    _, _, absg, dx = _window_density(vals, grid, oversample, const_at_infinity)
    return _lp(absg, dx, partner_exponent(q, p))


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
    supported, so any ``p2 <= q`` works.  The constant is the larger of the
    two per-operator factors (measure norm for ``p = q``, window partner
    norm of the cofactor density otherwise).  A measure-norm factor is the
    single-window total ``|c| + window mass + C/x^2 tail``, one estimator
    pass with no window-doubling test, so no factor is flagged unconverged;
    acceptance criterion 07's refinement-drift check is the guard.
    """
    grid = d.grid
    q_, p1_, p2_ = _validate_exponents(
        q, q if p1 is None else p1, q if p2 is None else p2,
        poly_degree(d.target), poly_degree(d.op1))

    factor1 = _operator_factor(d.cofactor1, grid, q_, p1_, oversample, d.cofactor1_at_infinity)
    factor2 = _operator_factor(d.cofactor2, grid, q_, p2_, oversample, 0.0)
    exponents = f"q={_fmt_p(q_)};p1={_fmt_p(p1_)};p2={_fmt_p(p2_)}"
    y = grid.dual_nodes()  # each polynomial sampled once per call
    target, op1, op2 = ((p, npoly.polyval(y, p)) for p in (d.target, d.op1, d.op2))

    def rows(f, F):
        lhs = lp_norm(_apply_poly(*target, F), q_)
        rhs = lp_norm(_apply_poly(*op1, F), p1_) + lp_norm(_apply_poly(*op2, F), p2_)
        yield None, exponents, lhs, rhs

    if suite is None:
        suite = diffop_suite(_required_order(d))
    return _verify(suite, grid, rows, max(factor1, factor2), "subordination",
                   factor1=factor1, factor2=factor2, q=q_, p1=p1_, p2=p2_)
