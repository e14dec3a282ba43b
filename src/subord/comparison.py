"""Comparison principle for convolution operators on the line.

Two Fourier multipliers ``m1`` and ``m2`` satisfy

    || T_{m1} f ||_p  <=  K * || T_{m2} f ||_p      (all p in [1, inf])

whenever the ratio ``psi = m1 / m2`` is the transform of a finite measure
with norm at most ``K`` — the operator comparison is inherited from the
scalar factorization ``m1 = psi * m2``.  This module builds the ratio symbol
(its limit at removable zeros of the denominator), estimates ``K`` through
:func:`subord.measures.wiener_norm`, and verifies the resulting inequality on
a corpus of test functions.  The paper's part I, the subordination of
summability means, is this principle applied to the error symbols
``1 - exp(-|eps y|^alpha)`` at several scales: :func:`verify_comparison` and
:func:`subord.summability.gw_verify` share one row routine, :func:`_verify_symbols`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

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
#: relative step of the two probes that take the limit at a removable zero (_fill_limits)
_PROBE_STEP = 1e-6


def _finite_complex(value: complex, what: str) -> complex:
    """``value`` as a complex number; both parts must be finite."""
    c = complex(value)
    return complex(*(_finite(part, what, positive=False) for part in (c.real, c.imag)))


@dataclass(frozen=True, eq=False)
class Multiplier:
    """A frequency symbol ``y -> m(y)``, callable on float arrays.  ``const_at_infinity``, if
    not None, declares its constant term, the atom at 0 of its measure, with finite parts:
    :mod:`subord.measures` takes it instead of reading it off the samples.  ``even`` declares
    ``m(-y) == m(y)`` bit for bit at every ``y``: :mod:`subord.measures` then samples and
    inverts only the phases that are not the mirror image of another.  A false declaration is
    not detected; it silently corrupts the estimated norm."""

    label: str
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    const_at_infinity: Optional[complex] = None
    even: bool = False

    def __post_init__(self):
        if self.const_at_infinity is not None:  # checked and made complex once, when built
            c = _finite_complex(self.const_at_infinity, "const_at_infinity")
            object.__setattr__(self, "const_at_infinity", c)

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        # |y|**alpha overflows only where the symbol has reached its limit, exp(-inf) = 0
        with np.errstate(over="ignore"):
            return np.asarray(self._fn(y), dtype=np.complex128)


# ---------------------------------------------------------------------------
# registry of closed-form symbols
# ---------------------------------------------------------------------------

def constant(value: complex = 1.0) -> Multiplier:
    """The constant symbol ``m(y) = value``; both parts must be finite."""
    c = _finite_complex(value, "constant value")
    return Multiplier(
        label=f"constant({c.real:g})" if c.imag == 0 else f"constant({c})",
        _fn=lambda y: np.full(y.shape, c), even=True)


def gw_symbol(alpha: float) -> Multiplier:
    """``exp(-|y|^alpha)``: the symbol of the generalized smoothing kernel."""
    alpha = _finite(alpha, "exponent")
    return Multiplier(
        label=f"gw_symbol(alpha={alpha:g})",
        _fn=lambda y: np.exp(-np.abs(y) ** alpha), even=True)


def one_minus_gw_symbol(alpha: float) -> Multiplier:
    """``1 - exp(-|y|^alpha)``, computed as ``-expm1`` so small ``y`` stay accurate."""
    alpha = _finite(alpha, "exponent")
    return Multiplier(
        label=f"one_minus_gw_symbol(alpha={alpha:g})",
        _fn=lambda y: -np.expm1(-np.abs(y) ** alpha), even=True)


def gw_ratio(alpha: float, beta: float) -> Multiplier:
    """``(1 - exp(-|y|^beta)) / (1 - exp(-|y|^alpha))`` for ``beta > alpha``.

    The singularity at the origin is removable (the ratio behaves like
    ``|y|^(beta-alpha)``), so the symbol is pinned to its limit 0 there.  At
    the far end both numerator and denominator saturate to exactly 1.
    """
    alpha = _finite(alpha, "exponent")
    beta = _finite(beta, "exponent")
    if not beta > alpha:
        raise InvalidParameterError(
            f"ratio symbol requires beta > alpha, got alpha={alpha}, beta={beta}")

    def fn(y: np.ndarray) -> np.ndarray:
        # ``**`` keeps numpy's exact paths for 2 and 0.5
        num, den = (-np.expm1(-np.abs(y) ** e) for e in (beta, alpha))
        out = np.zeros(den.shape, dtype=np.complex128)
        np.divide(num, den, out=out.real, where=den != 0.0)
        return out

    return Multiplier(label=f"gw_ratio(alpha={alpha:g},beta={beta:g})", _fn=fn, even=True)


def gaussian_ft() -> Multiplier:
    """``sqrt(pi) exp(-y^2/4)``: transform of the unit gaussian."""
    return Multiplier(
        label="gaussian_ft",
        _fn=lambda y: np.sqrt(np.pi) * np.exp(-(y ** 2) / 4.0), even=True)


def exp_abs_ft() -> Multiplier:
    """``2 / (1 + y^2)``: transform of ``exp(-|x|)``."""
    return Multiplier(
        label="exp_abs_ft",
        _fn=lambda y: 2.0 / (1.0 + y ** 2), even=True)


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


def _quotient(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a / b`` where ``b`` is a normal double, 0 elsewhere, and the mask of the elsewhere:
    a complex quotient by less overflows."""
    unusable = np.abs(b) < np.finfo(float).tiny
    return np.divide(a, b, out=np.zeros_like(a), where=~unusable), unusable


def _fill_limits(direct: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                 y: np.ndarray, what: str) -> np.ndarray:
    """``direct(y) -> (values, unusable)`` with each unusable value replaced by its limit, the
    package's one rule for removable zeros: the mean of the usable values of ``direct`` at the
    probes ``y -+ _PROBE_STEP (1 + |y|)``.  Where neither probe is usable, the probes step 16
    times further out, three times at most; where none is usable then, ``what`` has no limit
    there and :class:`FillUndefinedError` is raised."""
    out, unusable = direct(y)
    at = y[unusable]
    step, limit = _PROBE_STEP * (1.0 + np.abs(at)), np.empty(at.shape, dtype=np.complex128)
    todo = np.ones(at.shape, dtype=bool)
    for _ in range(4):
        if not todo.any():
            break
        values, bad = direct(np.stack([at[todo] - step[todo], at[todo] + step[todo]]))
        values = np.where(bad, values[::-1], values)  # an unusable probe repeats the other
        limit[todo] = (values[0] + values[1]) / 2.0
        todo[todo] = bad.all(axis=0)
        step *= 16.0
    if todo.any():
        raise FillUndefinedError(f"{what} vanishes at both probes beside y={at[todo][:5]}, "
                                 f"out to {_PROBE_STEP * 16.0 ** 3:g} (1 + |y|); no limit exists")
    out[unusable] = limit
    return out


def ratio_multiplier(numerator: Multiplier, denominator: Multiplier,
                     grid: GridSpec) -> Multiplier:
    """The ratio symbol ``numerator / denominator``, continuous across removable zeros.

    Denominator samples below :data:`ZERO_LEVEL` times its sup over the dual grid
    count as zeros; each must be a zero of the numerator
    (:class:`NestedZerosViolatedError` otherwise) and away from the dual window's
    edge (:class:`FillUndefinedError` otherwise).  The returned symbol depends on
    ``y`` alone: the plain quotient where the denominator is a normal double, else
    the limit of :func:`_fill_limits` (:class:`FillUndefinedError` where it has
    none), the rule that also fills both cofactors of diffops.  It is ``even`` when both
    symbols are: the probes beside ``-y`` are those beside ``y`` negated and swapped.
    """
    y0 = grid.dual_nodes()
    v1 = numerator(y0)
    v2 = denominator(y0)
    sup1 = float(np.abs(v1).max())
    sup2 = float(np.abs(v2).max())
    if sup2 == 0.0:
        raise InvalidParameterError("denominator symbol vanishes identically on the dual grid")
    mask = np.abs(v2) <= ZERO_LEVEL * sup2
    bad = mask & (np.abs(v1) > ZERO_LEVEL * max(sup1, 1e-300))
    if bad.any():
        raise NestedZerosViolatedError(
            f"denominator {denominator.label} vanishes at y={y0[bad][:5]} where "
            f"numerator {numerator.label} does not; no finite ratio exists there")
    if mask[0] or mask[-1]:
        raise FillUndefinedError(
            f"zero run of {denominator.label} touches the dual window edge; "
            "no neighboring ratio values to fill from")

    def fn(y: np.ndarray) -> np.ndarray:
        return _fill_limits(lambda z: _quotient(numerator(z), denominator(z)), y,
                            denominator.label)

    return Multiplier(label=f"({numerator.label})/({denominator.label})", _fn=fn,
                      even=numerator.even and denominator.even)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One verified row: ``lhs <= constant * (1 + TOLERANCE) * rhs``.

    ``eps`` is the scale at which both error symbols of a summability case are
    dilated (``None`` elsewhere) and ``exponents`` the norm exponents as printed,
    e.g. ``p=2`` or ``q=2;p1=2;p2=1``.
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
    them: ``estimate`` by the comparison principle's two drivers, :func:`verify_comparison`
    and :func:`subord.summability.gw_verify`; the factors and
    the resolved exponents ``q``, ``p1``, ``p2`` by
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


#: a verifier's rows for one sampled function ``f``, which it transforms as it needs:
#: ``(eps or None, exponents, lhs, rhs)``; ``eps`` is set by ``gw_verify``'s scales only
Rows = Callable[[SampledFunction], Iterable[tuple[Optional[float], str, float, float]]]


def _fmt_p(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _verify(suite: Sequence[TestFunction], grid: GridSpec, rows: Rows, constant: float,
            what: str, **extra) -> Report:
    """The loop shared by every verifier: sample each function once and check its
    rows; ``rows`` gets the samples alone, holds the only reference to them and
    transforms them as it needs.

    A row whose right side is below ``1e-12 * (1 + lhs)`` carries no
    information and is skipped; the others pass when ``lhs / rhs <=
    constant * (1 + TOLERANCE)``.  :class:`AllCasesSkippedError` is raised
    when every row was skipped.
    """
    cases = []
    for fn in suite:
        f = materialize(fn, grid)
        found = rows(f)
        del f  # held by rows alone, which may release it
        for eps, exponents, lhs, rhs in found:
            if rhs <= 1e-12 * (1.0 + lhs):
                continue
            ratio = lhs / rhs
            cases.append(Case(label=fn.label, eps=eps, exponents=exponents, lhs=lhs, rhs=rhs,
                              ratio=ratio, passed=ratio <= constant * (1.0 + TOLERANCE)))
    if not cases:
        raise AllCasesSkippedError(f"no {what} case had a usable right-hand side")
    return Report(cases=tuple(cases), constant=constant,
                  worst_ratio=max(case.ratio for case in cases),
                  passed=all(case.passed for case in cases), **extra)


def _verify_symbols(pairs: Sequence[tuple[Optional[float], np.ndarray, np.ndarray]],
                    grid: GridSpec, p_values: Sequence[float], estimate: WienerEstimate,
                    what: str) -> Report:
    """Check ``||T_{s1} f||_p <= K ||T_{s2} f||_p`` on :func:`subord.testkit.means_suite`
    for each pair ``(eps or None, s1, s2)`` of symbols sampled on the dual nodes, with
    ``K = estimate.total``: one forward transform of each function serves every pair and
    exponent, and each case keeps its pair's ``eps``."""

    def rows(f):
        F = forward_ft(f)
        del f  # only the spectrum is read
        for eps, symbol1, symbol2 in pairs:
            out1 = apply_symbol(symbol1, F)
            out2 = apply_symbol(symbol2, F)
            for p in p_values:
                yield eps, f"p={_fmt_p(float(p))}", lp_norm(out1, p), lp_norm(out2, p)

    return _verify(means_suite(), grid, rows, estimate.total, what, estimate=estimate)


def verify_comparison(multiplier1: Multiplier, multiplier2: Multiplier, grid: GridSpec,
                      p_values: Sequence[float] = (1.0, 2.0, math.inf),
                      oversample: int = 8) -> Report:
    """Estimate the comparison constant and check the inequality on a corpus.

    The constant is the measure norm of :func:`ratio_multiplier`
    ``(multiplier1, multiplier2)`` as estimated by :func:`wiener_norm`; the
    report carries that estimate.  For each function of
    :func:`subord.testkit.means_suite` and each exponent the two operator
    outputs are compared in norm; a case passes when ``lhs <=
    constant * rhs * (1 + TOLERANCE)``.  Cases whose right side is below
    ``1e-12 * (1 + lhs)`` carry no information and are skipped; if every
    case is skipped, :class:`AllCasesSkippedError` is raised.
    """
    ratio = ratio_multiplier(multiplier1, multiplier2, grid)
    estimate = wiener_norm(ratio, grid, oversample=oversample)
    y = grid.dual_nodes()
    return _verify_symbols([(None, multiplier1(y), multiplier2(y))], grid, p_values,
                           estimate, "comparison")
