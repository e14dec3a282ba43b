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

from .comparison import Multiplier, Report, _fmt_p, _verify, apply_multiplier
from .errors import (
    BandwidthExceededError,
    HypothesesViolatedError,
    InadmissibleExponentsError,
    InvalidParameterError,
    MultiplicityObstructionError,
    NeighborhoodDegenerateError,
    VerificationFailureError,
)
from .fourier_core import GridSpec, SampledFunction, _outer_band, apply_symbol, forward_ft, lp_norm
from .measures import wiener_norm
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
#: roots closer than this (relative) are merged into one location
_CLUSTER_TOL = 1e-7
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


def real_roots(coeffs) -> np.ndarray:
    """Sorted distinct real roots of the polynomial.

    Companion-matrix roots are kept when their imaginary part is below
    ``1e-7`` relative to the real part, clustered within the same relative
    distance (a double root comes back as one location), and each cluster
    representative is confirmed by a residual check —
    :class:`VerificationFailureError` if the polynomial does not actually
    vanish there.
    """
    c = _as_poly(coeffs)
    if c.size - 1 <= 0:
        return np.empty(0)
    roots = npoly.polyroots(c)
    real = np.sort(roots.real[np.abs(roots.imag) <= _IMAG_TOL * (1.0 + np.abs(roots.real))])
    if not real.size:
        return np.empty(0)
    # a root farther than the clustering distance from its predecessor starts a cluster
    starts = np.flatnonzero(np.diff(real) > _CLUSTER_TOL * (1.0 + np.abs(real[1:]))) + 1
    locations = []
    for group in np.split(real, starts):
        loc = float(np.mean(group))
        residual = abs(complex(npoly.polyval(loc, c)))
        if residual > _ROOT_RESIDUAL * _poly_scale(c, loc):
            raise VerificationFailureError(
                f"candidate real root y={loc:.9g} of {poly_label(c)} has residual "
                f"{residual:.3g}, beyond the accepted level")
        locations.append(loc)
    return np.asarray(locations)


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


def decomposition_hypotheses(target, op1, op2) -> tuple[Violation, ...]:
    """The violated structural conditions for a bounded decomposition, if any.

    Required: all three polynomials nonzero, ``deg target <= deg op1``, and
    every common real root of the two operators is a real root of the
    target (otherwise no bounded combination of the two symbols can
    reproduce the target near that point).
    """
    violations = []
    q, p1, p2 = _as_poly(target), _as_poly(op1), _as_poly(op2)
    for name, poly in (("target", q), ("op1", p1), ("op2", p2)):
        if poly_degree(poly) < 0:
            violations.append(Violation(
                code="zero_polynomial",
                detail=f"{name} is the zero polynomial"))
    if violations:
        return tuple(violations)
    if poly_degree(q) > poly_degree(p1):
        violations.append(Violation(
            code="degree",
            detail=f"target degree {poly_degree(q)} exceeds op1 degree {poly_degree(p1)}; "
                   "the outer cofactor would be unbounded"))
    roots1 = real_roots(p1)
    roots2 = real_roots(p2)
    for r in roots1:
        near = roots2[np.abs(roots2 - r) <= _CLUSTER_TOL * (1.0 + abs(r))]
        if near.size == 0:
            continue
        value = abs(complex(npoly.polyval(r, q)))
        if value > _ROOT_RESIDUAL * _poly_scale(q, r):
            violations.append(Violation(
                code="common_root",
                detail=f"op1 and op2 share the real root y={r:.9g} but "
                       f"target({r:.9g}) = {value:.3g} does not vanish there"))
    return tuple(violations)


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
    n = int(round(2.0 * halfwidth / spacing)) + 1
    n = max(n, 65)
    if n % 2 == 0:
        n += 1
    return np.linspace(center - halfwidth, center + halfwidth, n)


def _max_slope(values: np.ndarray, points: np.ndarray) -> float:
    return float(np.max(np.abs(np.diff(values)) / np.diff(points)))


def construct_decomposition(target, op1, op2, grid: GridSpec) -> SymbolDecomposition:
    """Build the two cofactors and verify the identity they must satisfy.

    The neighborhood of each real root of ``op1`` has halfwidth
    ``min(1, half the distance to the nearest other root of op1, half the
    distance to the nearest root of op2 that is not shared)``.  Inside it
    the first cofactor interpolates linearly between the two boundary
    values of ``target / op1`` and the second cofactor carries the
    remainder divided by ``op2`` (values where ``op2`` nearly vanishes are
    replaced by the average of nearby values; at a shared root the
    remainder vanishes with it).

    Raises :class:`HypothesesViolatedError` when the structural conditions
    fail, :class:`NeighborhoodDegenerateError` when a neighborhood is too
    narrow for the dual grid to see, :class:`MultiplicityObstructionError`
    when the second cofactor grows under local grid refinement (a shared
    root of higher multiplicity in ``op2`` than the remainder can cancel),
    and :class:`VerificationFailureError` when the reconstructed symbol
    misses the target beyond rounding.
    """
    q, p1, p2 = _as_poly(target), _as_poly(op1), _as_poly(op2)
    violations = decomposition_hypotheses(q, p1, p2)
    if violations:
        raise HypothesesViolatedError(violations)

    roots1 = real_roots(p1)
    roots2 = real_roots(p2)
    shared = np.abs(roots2[:, None] - roots1) <= _CLUSTER_TOL * (1.0 + np.abs(roots2[:, None]))
    op2_only = roots2[~shared.any(axis=1)]

    neighborhoods = []
    for r in roots1:
        delta = 1.0
        others = roots1[np.abs(roots1 - r) > 0]
        if others.size:
            delta = min(delta, float(np.min(np.abs(others - r))) / 2.0)
        if op2_only.size:
            delta = min(delta, float(np.min(np.abs(op2_only - r))) / 2.0)
        if delta < 4.0 * grid.dy:
            raise NeighborhoodDegenerateError(
                f"neighborhood of root y={r:.6g} has halfwidth {delta:.3g}, below four "
                f"dual-grid steps ({grid.dy:.3g}); refine the window before decomposing")
        neighborhoods.append((float(r), float(delta)))

    # linear interpolant data per neighborhood
    segments = []
    for center, delta in neighborhoods:
        left, right = center - delta, center + delta
        lval = complex(npoly.polyval(left, q) / npoly.polyval(left, p1))
        rval = complex(npoly.polyval(right, q) / npoly.polyval(right, p1))
        segments.append((center, delta, lval, (rval - lval) / (2.0 * delta)))

    def h1_fn(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape, dtype=np.complex128)
        claimed = np.zeros(y.shape, dtype=bool)
        for center, delta, lval, slope in segments:
            m = (np.abs(y - center) <= delta) & ~claimed
            out[m] = lval + (y[m] - (center - delta)) * slope
            claimed |= m
        rest = ~claimed
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
        out = np.zeros(y.shape, dtype=np.complex128)
        ok = ~bad
        out[ok] = num[ok] / den[ok]
        return out, bad

    def h2_fn(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape, dtype=np.complex128)
        claimed = np.zeros(y.shape, dtype=bool)
        for center, delta, _, _ in segments:
            m = (np.abs(y - center) <= delta) & ~claimed
            claimed |= m
            ym = y[m]
            vals, bad = _h2_direct(ym)
            # a point too close to a zero of op2 takes the mean of the usable
            # values at the two probes y -+ 1e-6 (1 + |y|), or 0 if neither is
            yb = ym[bad]
            step = 1e-6 * (1.0 + np.abs(yb))
            pv, pbad = _h2_direct(np.stack([yb - step, yb + step]))
            pv = np.where(pbad, pv[::-1], pv)  # an unusable probe repeats the other
            vals[bad] = np.where(pbad.all(axis=0), 0.0, (pv[0] + pv[1]) / 2.0)
            out[m] = vals
        return out

    label1 = f"cofactor1[{poly_label(q)}|{poly_label(p1)}]"
    label2 = f"cofactor2[{poly_label(q)}|{poly_label(p1)}|{poly_label(p2)}]"
    cofactor1 = Multiplier(label=label1, _fn=h1_fn)
    cofactor2 = Multiplier(label=label2, _fn=h2_fn)

    if poly_degree(q) == poly_degree(p1):
        at_infinity = complex(q[-1] / p1[-1])
    else:
        at_infinity = 0.0 + 0.0j

    # diagnostics: dual grid plus refined local grids around each root
    ydual = grid.dual_nodes()
    locals16 = [_local_grid(c, d, grid.dy / 16.0) for c, d in neighborhoods]
    locals32 = [_local_grid(c, d, grid.dy / 32.0) for c, d in neighborhoods]

    sup16 = max((float(np.abs(h2_fn(pts)).max()) for pts in locals16), default=0.0)
    sup32 = max((float(np.abs(h2_fn(pts)).max()) for pts in locals32), default=0.0)
    if sup16 > 0.0 and sup32 >= 1.5 * sup16:
        raise MultiplicityObstructionError(
            f"second cofactor grows under refinement (sup {sup16:.4g} -> {sup32:.4g}); "
            "a shared real root has higher multiplicity in op2 than the remainder cancels")

    sup_q = float(np.abs(npoly.polyval(ydual, q)).max())
    residual = 0.0
    sup_h2 = 0.0
    lip1 = 0.0
    lip2 = 0.0
    for pts in [ydual] + locals16:
        v1 = h1_fn(pts)
        v2 = h2_fn(pts)
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
        neighborhoods=tuple(neighborhoods),
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
    return _apply_poly(_as_poly(coeffs), forward_ft(f))


def _apply_poly(p: np.ndarray, F: SampledFunction) -> SampledFunction:
    """:func:`apply_diffop` for trimmed coefficients ``p`` and the transform ``F`` of ``f``."""
    pvals = npoly.polyval(F.grid.dual_nodes(), p)
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


def verify_identity(decomp: SymbolDecomposition,
                    suite: Optional[Sequence[TestFunction]] = None) -> Report:
    """Check ``target f = h1 (op1 f) + h2 (op2 f)`` on actual functions.

    Each case is the sup-norm defect over ``1 + sup |target f|``, so the
    report's ``constant`` is the allowed defect ``1e-6``, with no further
    slack, and ``worst_ratio`` the largest relative error.
    """
    def rows(f, F):
        direct = _apply_poly(decomp.target, F)
        rebuilt = (apply_multiplier(decomp.cofactor1, _apply_poly(decomp.op1, F))
                   + apply_multiplier(decomp.cofactor2, _apply_poly(decomp.op2, F)))
        yield (None, "p=inf", float(np.abs(direct.values - rebuilt.values).max()),
               1.0 + float(np.abs(direct.values).max()))

    if suite is None:
        suite = diffop_suite(_required_order(decomp))
    return _verify(suite, decomp.grid, rows, _IDENTITY_DEFECT, "identity", slack=0.0)


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
    """Norm bound for the convolution operator with this symbol, L^p -> L^q."""
    if p == q:
        est = wiener_norm(symbol, grid, oversample=oversample,
                          const_at_infinity=const_at_infinity)
        return est.total
    # p < q: the symbol has no constant at infinity, so the operator is
    # convolution with the density alone and its norm is bounded by the
    # partner-exponent norm of the density over the window.
    s = partner_exponent(q, p)
    est = wiener_norm(symbol, grid, oversample=oversample, const_at_infinity=0.0)
    g = est.density
    x = g.grid.nodes()
    window = np.abs(x) < grid.half_length
    absg = np.abs(g.values[window])
    if math.isinf(s):
        return float(absg.max())
    return float((g.grid.dx * np.sum(absg**s)) ** (1.0 / s))


def diffop_subordination(target, op1, op2, grid: GridSpec, q: float,
                         p1: Optional[float] = None, p2: Optional[float] = None,
                         oversample: int = 4,
                         suite: Optional[Sequence[TestFunction]] = None,
                         decomposition: Optional[SymbolDecomposition] = None,
                         ) -> Report:
    """Verify ``||target f||_q <= C (||op1 f||_p1 + ||op2 f||_p2)`` on a corpus.

    Exponents default to ``p1 = p2 = q``.  Lower exponents are admissible
    only where the corresponding cofactor decays: ``p1 < q`` needs
    ``deg target < deg op1``; the second cofactor is always compactly
    supported, so any ``p2 <= q`` works.  The constant is the larger of the
    two per-operator factors (measure norm for ``p = q``, window partner
    norm of the cofactor density otherwise).
    """
    if decomposition is None:
        decomposition = construct_decomposition(target, op1, op2, grid)
    d = decomposition
    q_, p1_, p2_ = _validate_exponents(
        q, q if p1 is None else p1, q if p2 is None else p2,
        poly_degree(d.target), poly_degree(d.op1))

    factor1 = _operator_factor(d.cofactor1, grid, q_, p1_, oversample, d.cofactor1_at_infinity)
    factor2 = _operator_factor(d.cofactor2, grid, q_, p2_, oversample, 0.0)
    exponents = f"q={_fmt_p(q_)};p1={_fmt_p(p1_)};p2={_fmt_p(p2_)}"

    def rows(f, F):
        lhs = lp_norm(_apply_poly(d.target, F), q_)
        rhs = lp_norm(_apply_poly(d.op1, F), p1_) + lp_norm(_apply_poly(d.op2, F), p2_)
        yield None, exponents, lhs, rhs

    if suite is None:
        suite = diffop_suite(_required_order(d))
    return _verify(suite, grid, rows, max(factor1, factor2), "subordination",
                   factor1=factor1, factor2=factor2, q=q_, p1=p1_, p2=p2_, decomposition=d)
