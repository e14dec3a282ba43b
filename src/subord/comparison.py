"""Comparison principle for convolution operators on the line.

Two Fourier multipliers ``m1`` and ``m2`` satisfy

    || T_{m1} f ||_p  <=  K * || T_{m2} f ||_p      (all p in [1, inf])

whenever the ratio ``psi = m1 / m2`` is the transform of a finite measure
with norm at most ``K`` — the operator comparison is inherited from the
scalar factorization ``m1 = psi * m2``.  This module builds the ratio symbol
(filling removable zeros of the denominator), estimates ``K`` through
:func:`subord.measures.wiener_norm`, and verifies the resulting inequality on
a corpus of test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    AllCasesSkippedError,
    FillUndefinedError,
    InvalidParameterError,
    NestedZerosViolatedError,
)
from .fourier_core import GridSpec, SampledFunction, _finite, apply_symbol, forward_ft, lp_norm
from .measures import WienerEstimate, wiener_norm
from .testkit import TestFunction, materialize, means_suite

if TYPE_CHECKING:
    from .diffops import SymbolDecomposition

__all__ = [
    "Multiplier",
    "constant",
    "gw_symbol",
    "one_minus_gw_symbol",
    "gw_ratio",
    "gaussian_ft",
    "exp_abs_ft",
    "REGISTRY",
    "named_multiplier",
    "apply_multiplier",
    "ratio_multiplier",
    "Case",
    "Report",
    "verify_comparison",
]

#: relative level below which a denominator sample counts as a zero
ZERO_LEVEL = 1e-9
#: relative slack of every pass rule ``ratio <= constant * (1 + TOLERANCE)``
TOLERANCE = 1e-2


@dataclass(frozen=True, eq=False)
class Multiplier:
    """A frequency symbol ``y -> m(y)``, callable on float arrays."""

    label: str
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.asarray(self._fn(y), dtype=np.complex128)


# ---------------------------------------------------------------------------
# registry of closed-form symbols
# ---------------------------------------------------------------------------

def constant(value: complex = 1.0) -> Multiplier:
    """The constant symbol ``m(y) = value``."""
    c = complex(value)
    return Multiplier(
        label=f"constant({c.real:g})" if c.imag == 0 else f"constant({c})",
        _fn=lambda y: np.full(np.asarray(y, dtype=float).shape, c, dtype=np.complex128))


def _check_exponent(alpha: float) -> float:
    """The order of a smoothing symbol or mean: finite and positive."""
    return _finite(alpha, "exponent")


def gw_symbol(alpha: float) -> Multiplier:
    """``exp(-|y|^alpha)``: the symbol of the generalized smoothing kernel."""
    alpha = _check_exponent(alpha)
    return Multiplier(
        label=f"gw_symbol(alpha={alpha:g})",
        _fn=lambda y: np.exp(-np.abs(y) ** alpha).astype(np.complex128))


def one_minus_gw_symbol(alpha: float) -> Multiplier:
    """``1 - exp(-|y|^alpha)``, computed as ``-expm1`` so small ``y`` stay accurate."""
    alpha = _check_exponent(alpha)
    return Multiplier(
        label=f"one_minus_gw_symbol(alpha={alpha:g})",
        _fn=lambda y: (-np.expm1(-np.abs(y) ** alpha)).astype(np.complex128))


def gw_ratio(alpha: float, beta: float) -> Multiplier:
    """``(1 - exp(-|y|^beta)) / (1 - exp(-|y|^alpha))`` for ``beta > alpha``.

    The singularity at the origin is removable (the ratio behaves like
    ``|y|^(beta-alpha)``), so the symbol is pinned to its limit 0 there.  At
    the far end both numerator and denominator saturate to exactly 1.
    """
    alpha = _check_exponent(alpha)
    beta = _check_exponent(beta)
    if not beta > alpha:
        raise InvalidParameterError(
            f"ratio symbol requires beta > alpha, got alpha={alpha}, beta={beta}")

    def fn(y: np.ndarray) -> np.ndarray:
        ay = np.abs(np.asarray(y, dtype=float))
        num = -np.expm1(-(ay**beta))
        den = -np.expm1(-(ay**alpha))
        out = np.zeros_like(den)
        nz = den != 0.0
        out[nz] = num[nz] / den[nz]
        return out.astype(np.complex128)

    return Multiplier(label=f"gw_ratio(alpha={alpha:g},beta={beta:g})", _fn=fn)


def gaussian_ft() -> Multiplier:
    """``sqrt(pi) exp(-y^2/4)``: transform of the unit gaussian."""
    return Multiplier(
        label="gaussian_ft",
        _fn=lambda y: (np.sqrt(np.pi) * np.exp(-(np.asarray(y, dtype=float) ** 2) / 4.0)
                       ).astype(np.complex128))


def exp_abs_ft() -> Multiplier:
    """``2 / (1 + y^2)``: transform of ``exp(-|x|)``."""
    return Multiplier(
        label="exp_abs_ft",
        _fn=lambda y: (2.0 / (1.0 + np.asarray(y, dtype=float) ** 2)).astype(np.complex128))


REGISTRY: dict[str, Callable[..., Multiplier]] = {
    "constant": constant,
    "gw_symbol": gw_symbol,
    "one_minus_gw_symbol": one_minus_gw_symbol,
    "gw_ratio": gw_ratio,
    "gaussian_ft": gaussian_ft,
    "exp_abs_ft": exp_abs_ft,
}


def named_multiplier(name: str, **params) -> Multiplier:
    """Build a registry symbol from its name, e.g. for command-line use."""
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise InvalidParameterError(f"unknown multiplier {name!r}; known: {known}")
    try:
        return REGISTRY[name](**params)
    except TypeError:
        raise InvalidParameterError(
            f"multiplier {name!r} does not accept parameters {sorted(params)}") from None


# ---------------------------------------------------------------------------
# operators and ratio symbols
# ---------------------------------------------------------------------------

def apply_multiplier(m: Multiplier, f: SampledFunction) -> SampledFunction:
    """The convolution operator with symbol ``m``: multiply the transform."""
    return apply_symbol(m(f.grid.dual_nodes()), forward_ft(f))


def _masked_runs(mask: np.ndarray) -> np.ndarray:
    # contiguous [start, stop) runs of True, one row each
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    return edges.reshape(-1, 2)


def ratio_multiplier(numerator: Multiplier, denominator: Multiplier,
                     grid: GridSpec) -> Multiplier:
    """The ratio symbol ``numerator / denominator`` with zeros filled.

    Denominator samples below :data:`ZERO_LEVEL` times its sup over the dual grid
    count as zeros.  Every zero node must also be a zero of the numerator
    (:class:`NestedZerosViolatedError` otherwise), each contiguous zero run
    must have unmasked neighbors on both sides (:class:`FillUndefinedError`
    otherwise), and the run is filled with the mean of the two neighboring
    ratio values.

    The returned symbol applies the same threshold pointwise wherever it is
    evaluated, so refined grids see the filled value near the zero instead
    of a blown-up quotient.
    """
    y0 = grid.dual_nodes()
    v1 = numerator(y0)
    v2 = denominator(y0)
    sup1 = float(np.abs(v1).max())
    sup2 = float(np.abs(v2).max())
    if sup2 == 0.0:
        raise InvalidParameterError("denominator symbol vanishes identically on the dual grid")
    threshold = ZERO_LEVEL * sup2
    mask = np.abs(v2) <= threshold
    bad = mask & (np.abs(v1) > ZERO_LEVEL * max(sup1, 1e-300))
    if bad.any():
        raise NestedZerosViolatedError(
            f"denominator {denominator.label} vanishes at y={y0[bad][:5]} where "
            f"numerator {numerator.label} does not; no finite ratio exists there")

    centers, values = [], []
    for start, stop in _masked_runs(mask):
        if start == 0 or stop == grid.size:
            raise FillUndefinedError(
                f"zero run of {denominator.label} touches the dual window edge; "
                "no neighboring ratio values to fill from")
        left = v1[start - 1] / v2[start - 1]
        right = v1[stop] / v2[stop]
        centers.append(0.5 * (y0[start] + y0[stop - 1]))
        values.append(0.5 * (left + right))
    fill_centers = np.asarray(centers, dtype=float)
    fill_values = np.asarray(values, dtype=np.complex128)
    num_label, den_label = numerator.label, denominator.label

    def fn(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        a = numerator(y)
        b = denominator(y)
        out = np.empty_like(a)
        masked = np.abs(b) <= threshold
        ok = ~masked
        out[ok] = a[ok] / b[ok]
        if masked.any():
            if not fill_centers.size:
                raise FillUndefinedError(
                    f"{den_label} fell below its zero threshold off the construction "
                    "grid and no fill value is on record")
            pick = np.abs(y[masked, None] - fill_centers[None, :]).argmin(axis=1)
            out[masked] = fill_values[pick]
        return out

    return Multiplier(label=f"({num_label})/({den_label})", _fn=fn)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One verified row: ``lhs <= constant * (1 + TOLERANCE) * rhs``.

    ``eps`` is the scale of a summability case (``None`` elsewhere) and
    ``exponents`` the norm exponents as printed, e.g. ``p=2`` or
    ``q=2;p1=2;p2=1``.
    """

    label: str
    eps: Optional[float]
    exponents: str
    lhs: float
    rhs: float
    ratio: float
    passed: bool


@dataclass(frozen=True)
class Report:
    """Result of every verification routine.

    The fields after ``passed`` are filled only by the routines that produce
    them: ``estimate`` by :func:`verify_comparison` and
    :func:`subord.summability.gw_verify`; the factors,
    the resolved exponents ``q``, ``p1``, ``p2`` and the decomposition by
    :func:`subord.diffops.diffop_subordination`.
    """

    cases: tuple[Case, ...]
    constant: float
    worst_ratio: float
    passed: bool
    estimate: Optional[WienerEstimate] = None
    factor1: Optional[float] = None
    factor2: Optional[float] = None
    q: Optional[float] = None
    p1: Optional[float] = None
    p2: Optional[float] = None
    decomposition: Optional[SymbolDecomposition] = None


#: a verifier's rows for one sampled function ``f`` and its transform ``F``:
#: ``(eps or None, exponents, lhs, rhs)``
Rows = Callable[[SampledFunction, SampledFunction],
                Iterable[tuple[Optional[float], str, float, float]]]


def _fmt_p(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _verify(suite: Sequence[TestFunction], grid: GridSpec, rows: Rows, constant: float,
            what: str, slack: float = TOLERANCE, **extra) -> Report:
    """The loop shared by every verifier: sample and transform each function
    once, then check its rows.

    A row whose right side is below ``1e-12 * (1 + lhs)`` carries no
    information and is skipped; the others pass when ``lhs / rhs <=
    constant * (1 + slack)``.  :class:`AllCasesSkippedError` is raised
    when every row was skipped.
    """
    cases = []
    for fn in suite:
        f = materialize(fn, grid)
        for eps, exponents, lhs, rhs in rows(f, forward_ft(f)):
            if rhs <= 1e-12 * (1.0 + lhs):
                continue
            ratio = lhs / rhs
            cases.append(Case(label=fn.label, eps=eps, exponents=exponents, lhs=lhs, rhs=rhs,
                              ratio=ratio, passed=ratio <= constant * (1.0 + slack)))
    if not cases:
        raise AllCasesSkippedError(f"no {what} case had a usable right-hand side")
    return Report(cases=tuple(cases), constant=constant,
                  worst_ratio=max(case.ratio for case in cases),
                  passed=all(case.passed for case in cases), **extra)


def verify_comparison(multiplier1: Multiplier, multiplier2: Multiplier, grid: GridSpec,
                      suite: Optional[Sequence[TestFunction]] = None,
                      p_values: Sequence[float] = (1.0, 2.0, math.inf),
                      oversample: int = 8) -> Report:
    """Estimate the comparison constant and check the inequality on a corpus.

    The constant is the measure norm of :func:`ratio_multiplier`
    ``(multiplier1, multiplier2)`` as estimated by :func:`wiener_norm`; the
    report carries that estimate.  For each function and each exponent the
    two operator outputs are compared in norm; a case passes when ``lhs <=
    constant * rhs * (1 + TOLERANCE)``.  Cases whose right side is below
    ``1e-12 * (1 + lhs)`` carry no information and are skipped; if every
    case is skipped, :class:`AllCasesSkippedError` is raised.
    """
    ratio = ratio_multiplier(multiplier1, multiplier2, grid)
    estimate = wiener_norm(ratio, grid, oversample=oversample)
    y = grid.dual_nodes()
    symbol1, symbol2 = multiplier1(y), multiplier2(y)

    def rows(f, F):
        out1 = apply_symbol(symbol1, F)
        out2 = apply_symbol(symbol2, F)
        for p in p_values:
            yield None, f"p={_fmt_p(float(p))}", lp_norm(out1, p), lp_norm(out2, p)

    return _verify(means_suite() if suite is None else suite, grid, rows,
                   estimate.total, "comparison", estimate=estimate)
