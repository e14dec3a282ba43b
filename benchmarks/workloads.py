"""The three workloads: fixed ``subord`` invocations and how each report is checked.

Every check compares a report with :mod:`oracle`, which computes its values
without ``subord``; none compares with a stored copy of an earlier report.
A check returns the list of problems it found, empty when the report holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

#: relative slack for identities between numbers printed in one report
_SAME = 1e-12
#: the program's own pass rule: ratio <= constant * (1 + tolerance)
_TOLERANCE = 1e-2
#: identity residual allowed by the program, relative to 1 + sup |Q| on the dual grid
_IDENTITY_TOL = 1e-10
#: corpus of the mean and comparison drivers, and the part smooth enough
#: for degree-2 symbols (all but the kinked exp_abs)
MEANS_CORPUS = ("gaussian_a1", "gaussian_a4", "exp_abs_a1", "bump_R2", "bspline_m4",
                "modulated_gaussian_a1_w3")
DIFFOP_CORPUS = tuple(label for label in MEANS_CORPUS if label != "exp_abs_a1")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``--out`` is appended by the runner."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    exit_code: int = 0
    #: why this operation fails its check today; empty when it should pass
    known_fault: str = ""


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _grid(report: dict) -> tuple[float, int]:
    return float(report["grid"]["half_length"]), int(report["grid"]["size"])


def _as_float(value) -> float:
    return math.inf if value == "inf" else float(value)


def _check_estimate(est: dict, problems: list[str], limit: float) -> None:
    # internal consistency and the exactly known constant term
    c = complex(*est["const_at_infinity"])
    parts = abs(c) + est["density_l1"] + est["tail_bound"]
    if not _close(parts, est["total"], _SAME):
        problems.append(f"total {est['total']!r} is not |c| + density_l1 + tail_bound = {parts!r}")
    if abs(c - limit) > 1e-6:
        problems.append(f"constant at infinity {c} differs from the symbol's limit {limit}")
    if not est["converged"]:
        problems.append("estimate not converged")


def _check_constant_at_least(constant: float, floor: float, what: str,
                             problems: list[str]) -> None:
    if constant < floor - oracle.ROUNDING:
        problems.append(f"constant {constant!r} is below {what} = {floor!r}")


def _check_l2(reported: float, exact: float, case_id: str, side: str,
              problems: list[str]) -> None:
    if not _close(reported, exact, oracle.L2_RTOL):
        problems.append(f"{case_id}: {side} {reported!r} differs from Plancherel {exact!r}")


def _check_cases(report: dict, labels, problems: list[str]) -> None:
    seen = {case["test_function"] for case in report["cases"]}
    if seen != set(labels):
        problems.append(f"cases cover {sorted(seen)}, expected {sorted(labels)}")
    for case in report["cases"]:
        if not _close(case["ratio"], case["lhs_norm"] / case["rhs_norm"], _SAME):
            problems.append(f"{case['case_id']}: ratio is not lhs / rhs")
        if case["ratio"] > report["constant"] * (1.0 + _TOLERANCE):
            problems.append(f"{case['case_id']}: ratio {case['ratio']!r} exceeds the constant")


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_mean_comparison(report: dict, alpha: float, beta: float) -> list[str]:
    """``gw-compare`` (scales from the cases) and ``compare`` of 1 - exp(-|y|^a)."""
    problems: list[str] = []
    if not report.get("passed"):
        problems.append("report not passed")
    _check_estimate(report["estimate"], problems, limit=1.0)
    if report["constant"] != report["estimate"]["total"]:
        problems.append("constant is not the estimate total")
    _check_constant_at_least(report["constant"], oracle.sup_mean_error_ratio(alpha, beta),
                             "sup |psi|", problems)
    _check_cases(report, MEANS_CORPUS, problems)
    L, N = _grid(report)
    l2_cases = 0
    for case in report["cases"]:
        if case["p_or_exponents"] != "p=2":
            continue
        l2_cases += 1
        eps = 1.0 if case["epsilon"] is None else case["epsilon"]
        label = case["test_function"]
        lhs = oracle.plancherel_l2(lambda y: oracle.one_minus_stable(beta, eps * y), label, L, N)
        rhs = oracle.plancherel_l2(lambda y: oracle.one_minus_stable(alpha, eps * y), label, L, N)
        _check_l2(case["lhs_norm"], lhs, case["case_id"], "lhs", problems)
        _check_l2(case["rhs_norm"], rhs, case["case_id"], "rhs", problems)
    scales = {case["epsilon"] for case in report["cases"]}
    if l2_cases != len(MEANS_CORPUS) * len(scales):
        problems.append(f"{l2_cases} p=2 cases, expected one per function and scale")
    return problems


def check_stable_norm(report: dict) -> list[str]:
    """``wiener-norm`` of exp(-|y|^alpha): the exact norm is 1."""
    problems: list[str] = []
    est = report["estimate"]
    _check_estimate(est, problems, limit=0.0)
    if est["converged"] and not oracle.stable_total_ok(est["total"]):
        problems.append(f"converged total {est['total']!r} is below the exact norm "
                        f"{oracle.STABLE_LAW_NORM}")
    return problems


def check_ratio_norm(report: dict, alpha: float, beta: float) -> list[str]:
    """``wiener-norm`` of the mean-error ratio: at least its supremum."""
    problems: list[str] = []
    est = report["estimate"]
    _check_estimate(est, problems, limit=1.0)
    _check_constant_at_least(est["total"], oracle.sup_mean_error_ratio(alpha, beta),
                             "sup |psi|", problems)
    return problems


def _dual_sup_bound(coeffs, report: dict) -> float:
    L, N = _grid(report)
    top = math.pi * N / (2.0 * L)
    return sum(abs(c) * top ** k for k, c in enumerate(coeffs))


def check_lemma2(report: dict, Q, P1, P2) -> list[str]:
    """Neighborhoods sit on the real roots of P1 and the identity holds."""
    problems: list[str] = []
    roots = oracle.real_roots(P1)
    centers = [c for c, _ in report["neighborhoods"]]
    if len(centers) != len(roots) or any(abs(c - r) > 1e-9 for c, r in zip(centers, roots)):
        problems.append(f"neighborhood centers {centers} are not the real roots {roots} of P1")
    if any(not 0.0 < d <= 1.0 for _, d in report["neighborhoods"]):
        problems.append("a neighborhood half-width is outside (0, 1]")
    if report["identity_residual"] > _IDENTITY_TOL * (1.0 + _dual_sup_bound(Q, report)):
        problems.append(f"identity residual {report['identity_residual']!r} too large")
    limit = Q[-1] / P1[-1] if len(Q) == len(P1) else 0.0
    if abs(complex(*report["cofactor1_at_infinity"]) - limit) > oracle.ROUNDING:
        problems.append(f"cofactor1 at infinity is not lim Q/P1 = {limit}")
    # at a root r of P1 the identity leaves Q(r) = h2(r) P2(r)
    floor = max((abs(oracle.polynomial(Q, r) / oracle.polynomial(P2, r)) for r in roots),
                default=0.0)
    if report["cofactor2_sup"] < floor - oracle.ROUNDING:
        problems.append(f"cofactor2_sup {report['cofactor2_sup']!r} below |Q/P2| at a root")
    return problems


def check_diffop(report: dict, Q, P1, P2, q: float, p1: float, p2: float) -> list[str]:
    """Constant at least S when p1 = p2 = q; q = 2 norms and ratios by Plancherel."""
    problems: list[str] = []
    if not report.get("passed"):
        problems.append("report not passed")
    if (_as_float(report["q"]), _as_float(report["p1"]), _as_float(report["p2"])) != (q, p1, p2):
        problems.append("exponents differ from the ones requested")
    if report["constant"] != max(report["factor1"], report["factor2"]):
        problems.append("constant is not the larger factor")
    if report["identity_residual"] > _IDENTITY_TOL * (1.0 + _dual_sup_bound(Q, report)):
        problems.append(f"identity residual {report['identity_residual']!r} too large")
    _check_cases(report, DIFFOP_CORPUS, problems)
    S = oracle.domination_sup(Q, P1, P2)
    if p1 == p2 == q:
        _check_constant_at_least(report["constant"], S, "S", problems)
    if q != 2.0:
        return problems
    L, N = _grid(report)

    def norm(poly, p, label):
        if p == 2.0:
            return oracle.plancherel_l2(lambda y: oracle.polynomial(poly, y), label, L, N)
        if p == 1.0 and len(poly) == 1:
            return abs(poly[0]) * oracle.l1_norm(label)
        return None

    for case in report["cases"]:
        label = case["test_function"]
        _check_l2(case["lhs_norm"], norm(Q, 2.0, label), case["case_id"], "lhs", problems)
        rhs = [norm(P1, p1, label), norm(P2, p2, label)]
        if None not in rhs:
            _check_l2(case["rhs_norm"], sum(rhs), case["case_id"], "rhs", problems)
        if p1 == p2 == 2.0 and case["ratio"] > S * (1.0 + 1e-9):
            problems.append(f"{case['case_id']}: ratio {case['ratio']!r} exceeds S = {S!r}")
    return problems


def check_selftest(report: dict) -> list[str]:
    """Every battery entry passed and each printed constant obeys its oracle."""
    problems: list[str] = []
    checks = {c["name"]: c for c in report["checks"]}
    problems += [f"selftest check {name} failed" for name, c in checks.items()
                 if not c["passed"]]
    norm = checks["measure_norm_of_exp_abs_symbol"]["detail"]
    if not oracle.stable_total_ok(norm["total"]):
        problems.append(f"measure norm of exp(-|y|) {norm['total']!r} below 1")
    _check_constant_at_least(checks["reflexive_comparison_constant_one"]["detail"]["constant"],
                             1.0, "sup |psi| of psi = 1", problems)
    _check_constant_at_least(checks["mean_error_subordination_1_2"]["detail"]["constant"],
                             oracle.sup_mean_error_ratio(1.0, 2.0), "sup |psi|", problems)
    decomposition = checks["decomposition_first_order_under_second"]["detail"]
    if decomposition["identity_residual"] > _IDENTITY_TOL * (
            1.0 + _dual_sup_bound([0, 1], report)):
        problems.append("decomposition identity residual too large")
    mixed = checks["mixed_norm_domination_first_order"]["detail"]
    S = oracle.domination_sup([0, 1], [0, 0, 1], [1])
    _check_constant_at_least(mixed["constant"], S, "S", problems)
    if mixed["worst_ratio"] > S * (1.0 + 1e-9):
        problems.append(f"mixed-norm worst ratio {mixed['worst_ratio']!r} exceeds S = {S!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

_PAIRS = ((0.5, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 4.0))
_ORACLE_GRID = ("--grid-L", "160", "--grid-N", "262144")
_ORACLE_GRID_SMALL = ("--grid-L", "160", "--grid-N", "65536")
_STABLE_FAULT = ("the C/x^2 tail model and the one-doubling convergence test in "
                 "measures.wiener_norm: the alpha=0.5 density decays like |x|^-1.5, so the "
                 "estimate is flagged converged at 0.974 < 1")
_TRIPLES = (
    # (name: Q-P1-P2 with m for minus and p for plus, Q, P1, P2, q, p1, p2, flags)
    ("y-y2-1-q2", [0, 1], [0, 0, 1], [1], 2.0, 2.0, 2.0, ("--q", "2")),
    ("y-y2-1-q2-p2_1", [0, 1], [0, 0, 1], [1], 2.0, 2.0, 1.0, ("--q", "2", "--p2", "1")),
    ("y-y2m1-1-q2", [0, 1], [-1, 0, 1], [1], 2.0, 2.0, 2.0, ("--q", "2")),
    ("1py-y2m1-1py-qinf", [1, 1], [-1, 0, 1], [1, 1], math.inf, math.inf, math.inf,
     ("--q", "inf")),
)


def _poly_flags(Q, P1, P2) -> tuple[str, ...]:
    text = lambda c: "[" + ",".join(str(v) for v in c) + "]"
    return ("--Q", text(Q), "--P1", text(P1), "--P2", text(P2))


def _desk() -> list[Op]:
    ops = [Op("selftest", ("selftest",), check_selftest)]
    for a, b in _PAIRS:
        ops.append(Op(f"gw-compare-{a:g}-{b:g}",
                      ("gw-compare", "--alpha", f"{a:g}", "--beta", f"{b:g}"),
                      partial(check_mean_comparison, alpha=a, beta=b)))
    ops.append(Op("compare-1mgw2-1mgw1",
                  ("compare", "--m1", "one_minus_gw_symbol:alpha=2",
                   "--m2", "one_minus_gw_symbol:alpha=1"),
                  partial(check_mean_comparison, alpha=1.0, beta=2.0)))
    for name, Q, P1, P2 in (("y-y2-1", [0, 1], [0, 0, 1], [1]),
                            ("y-y2m1-1", [0, 1], [-1, 0, 1], [1])):
        ops.append(Op(f"lemma2-{name}", ("lemma2",) + _poly_flags(Q, P1, P2),
                      partial(check_lemma2, Q=Q, P1=P1, P2=P2)))
    for alpha in ("1", "1.5", "2"):
        ops.append(Op(f"wiener-norm-gw_symbol-{alpha}",
                      ("wiener-norm", "--multiplier", f"gw_symbol:alpha={alpha}"),
                      check_stable_norm))
    return ops


def _oracle_norms() -> list[Op]:
    ops = []
    for a, b in _PAIRS:
        ops.append(Op(f"wiener-norm-gw_ratio-{a:g}-{b:g}",
                      ("wiener-norm", "--multiplier", f"gw_ratio:alpha={a:g},beta={b:g}")
                      + _ORACLE_GRID,
                      partial(check_ratio_norm, alpha=a, beta=b)))
    for alpha in ("0.5", "1", "1.5", "2"):
        ops.append(Op(f"wiener-norm-gw_symbol-{alpha}-L160",
                      ("wiener-norm", "--multiplier", f"gw_symbol:alpha={alpha}")
                      + _ORACLE_GRID_SMALL,
                      check_stable_norm,
                      known_fault=_STABLE_FAULT if alpha == "0.5" else ""))
    return ops


def _diffop_fine() -> list[Op]:
    return [Op(f"diffop-verify-{name}",
               ("diffop-verify", "--grid-N", "262144") + _poly_flags(Q, P1, P2) + flags,
               partial(check_diffop, Q=Q, P1=P1, P2=P2, q=q, p1=p1, p2=p2))
            for name, Q, P1, P2, q, p1, p2, flags in _TRIPLES]


WORKLOADS: dict[str, list[Op]] = {
    "desk": _desk(),
    "oracle_norms": _oracle_norms(),
    "diffop_fine": _diffop_fine(),
}
