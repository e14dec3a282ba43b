"""Acceptance suite: one test per shipped guarantee, at desk scale.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the verbose test listing) and asserts the same condition, so the suite is
both a human-readable checklist and a hard gate.
"""

import math

import numpy as np
import pytest

from subord.comparison import (
    constant,
    exp_abs_ft,
    gw_symbol,
    one_minus_gw_symbol,
    verify_comparison,
)
from subord.diffops import (
    construct_decomposition,
    decomposition_hypotheses,
    diffop_subordination,
)
from subord.errors import (
    HypothesesViolatedError,
    NestedZerosViolatedError,
)
from subord.fourier_core import (
    SPACE,
    GridSpec,
    SampledFunction,
    apply_symbol,
    forward_ft,
    inverse_ft,
    lp_norm,
)
from subord.measures import wiener_norm
from subord.summability import gw_verify
from subord.testkit import (
    bspline,
    bump,
    exp_abs,
    gaussian,
    materialize,
    modulated_gaussian,
)
from subord.cli import main as cli_main

DESK = GridSpec(40.0, 16384)
FINE = GridSpec(40.0, 2 ** 18)


def _report(number, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number:02d}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_transform_oracle():
    g = GridSpec(20.0, 4096)
    x, y = g.nodes(), g.dual_nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    F = forward_ft(f)
    band = np.abs(y) <= 10.0
    exact = np.sqrt(np.pi) * np.exp(-y[band] ** 2 / 4.0)
    rel = float((np.abs(F.values[band] - exact) / exact).max())
    rt = float(np.abs(inverse_ft(F).values - f.values).max())
    _report(1, rel <= 1e-6 and rt <= 1e-10,
            f"gaussian transform rel err {rel:.2e} (<=1e-6), round trip {rt:.2e} (<=1e-10)")


def test_criterion_02_wiener_estimator_calibration():
    exp_est = wiener_norm(gw_symbol(1.0), DESK)
    const_est = wiener_norm(constant(1.0), DESK)
    ok = (exp_est.converged and abs(exp_est.total - 1.0) <= 1e-3
          and const_est.total == 1.0 and const_est.density_l1 == 0.0)
    _report(2, ok,
            f"exp symbol total {exp_est.total:.6f} (1 +- 1e-3, converged), "
            f"constant total {const_est.total} (exact atom)")


def test_criterion_03_reflexivity_and_nested_zero_rejection():
    worst_const = 0.0
    worst_ratio = 0.0
    for m in (constant(1.0), exp_abs_ft(), one_minus_gw_symbol(1.0)):
        rep = verify_comparison(m, m, DESK)
        worst_const = max(worst_const, abs(rep.constant - 1.0))
        worst_ratio = max(worst_ratio, rep.worst_ratio)
    rejected = False
    try:
        verify_comparison(exp_abs_ft(), one_minus_gw_symbol(1.0), DESK)
    except NestedZerosViolatedError:
        rejected = True
    _report(3, worst_const <= 1e-6 and worst_ratio <= 1.0 + 1e-6 and rejected,
            f"reflexive constants within {worst_const:.1e} of 1, worst ratio "
            f"{worst_ratio:.12f}, uncovered denominator zero rejected")


def test_criterion_04_mean_comparison_all_pairs():
    # closed-form facts, not past output: each ratio symbol tends to 0 at y = 0 and
    # to 1 at infinity, so ||mu|| >= |c| + |psi(0) - c| = 2; and C(1, 2) = 2 exactly
    ok = True
    details = []
    for alpha, beta in ((0.5, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 4.0)):
        report = gw_verify(alpha, beta, DESK)
        exact = (alpha, beta) != (1.0, 2.0) or abs(report.constant - 2.0) <= 1e-3
        floor = report.constant >= 2.0
        ok = ok and report.passed and report.estimate.converged and floor and exact
        details.append(f"({alpha:g},{beta:g}): C={report.constant:.5f} "
                       f"worst={report.worst_ratio:.3f} "
                       f"{'>=2' if floor else 'BELOW FLOOR 2'}"
                       f"{'' if exact else ' NOT 2'}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_error_decreases_with_scale():
    # the driver's rows for the unit gaussian: rhs is ||f - U[1, eps] f||_2, lhs the same at 2
    report = gw_verify(1.0, 2.0, DESK, eps_values=(1.0, 0.5, 0.1, 0.05), p_values=(2.0,))
    cases = [case for case in report.cases if case.label == gaussian(1.0).label]
    ok = len(cases) == 4
    details = []
    for alpha, side in ((1.0, "rhs"), (2.0, "lhs")):
        errs = [getattr(case, side) for case in cases]
        ok = ok and all(a > b for a, b in zip(errs, errs[1:]))
        details.append(f"alpha={alpha:g}: " + " > ".join(f"{e:.4f}" for e in errs))
    _report(5, ok, "; ".join(details))


TRIPLES = [
    ([0, 1], [0, 0, 1], [1]),
    ([1, 0, 1], [1, 0, 1], [1]),
    ([0, 1], [0, 0, 0, 1], [0, 1]),
    ([-1, 0, 1], [1, 0, -2, 0, 1], [-1, 0, 1]),
]


def test_criterion_06_decomposition_identity():
    ok = True
    details = []
    for target, op1, op2 in TRIPLES:
        violations = decomposition_hypotheses(target, op1, op2)
        d = construct_decomposition(target, op1, op2, FINE)
        sup_q = float(np.abs(np.polyval(list(reversed(target)),
                                        FINE.dual_nodes())).max())
        resid_ok = d.identity_residual <= 1e-10 * (1.0 + sup_q)
        ok = ok and not violations and resid_ok
        details.append(f"deg({len(target)-1},{len(op1)-1},{len(op2)-1}): "
                       f"resid={d.identity_residual:.1e}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_mixed_norm_inequality_and_stability():
    d = construct_decomposition([0, 1], [0, 0, 1], [1], FINE)
    ok = True
    details = []
    for q, p2 in ((1.0, None), (2.0, None), (math.inf, None), (2.0, 1.0)):
        sub = diffop_subordination(d, q=q, p2=p2)
        ok = ok and sub.passed and math.isfinite(sub.constant)
        name = f"q={q:g}" + (f",p2={p2:g}" if p2 else "")
        details.append(f"{name}: C={sub.constant:.4f} worst={sub.worst_ratio:.3f}")
    # held against a direct single pass of each cofactor's measure norm, an estimate with
    # no grid pair and no extrapolation: on FINE.refined(2), which doubles L at FINE's dx,
    # and on FINE with half its dx
    coarse = diffop_subordination(d, q=2.0)
    for grid, bound, name in ((FINE.refined(2), 1e-2, "L"),
                              (GridSpec(FINE.half_length, 2 * FINE.size), 1e-3, "dx")):
        r = construct_decomposition([0, 1], [0, 0, 1], [1], grid)
        single = max(wiener_norm(h, r.grid, oversample=4).total  # h declares its constant term
                     for h in (r.cofactor1, r.cofactor2))
        drift = abs(coarse.constant - single)
        ok = ok and drift <= bound * max(1.0, coarse.constant)
        details.append(f"drift in {name} {drift:.2e} (<={bound:g})")
    _report(7, ok, "; ".join(details))


def test_criterion_08_hypothesis_rejection():
    named = False
    try:
        construct_decomposition([1], [0, 1], [0, 1], DESK)
    except HypothesesViolatedError as err:
        named = "y=0" in str(err)
    degree = bool(decomposition_hypotheses([0, 0, 0, 1], [0, 0, 1], [1]))
    # y vanishes at 0 to lower order than y^2 and y^2: the exact rule refuses it
    multiplicity = any(v.code == "common_root"
                       for v in decomposition_hypotheses([0, 1], [0, 0, 1], [0, 0, 1]))
    try:
        construct_decomposition([0, 1], [0, 0, 1], [0, 0, 1], DESK)
        multiplicity = False
    except HypothesesViolatedError as err:
        multiplicity = multiplicity and "y=0" in str(err)
    _report(8, named and degree and multiplicity,
            f"common-zero witness named: {named}; degree excess rejected: {degree}; "
            f"multiplicity obstruction reported: {multiplicity}")


def test_criterion_09_young_inequality():
    pairs_f = [(gaussian(1.0), gaussian(4.0)), (gaussian(1.0), exp_abs(1.0)),
               (bump(2.0), bspline(4)), (modulated_gaussian(1.0, 3.0), gaussian(1.0))]
    pairs_e = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, math.inf), (2.0, 2.0)]
    worst = 0.0
    count = 0
    for fn, gn in pairs_f:
        f, h = materialize(fn, DESK), materialize(gn, DESK)
        conv = apply_symbol(forward_ft(f).values, forward_ft(h))  # f * h
        for p, s in pairs_e:
            inv_q = 1.0 / p + (0.0 if s == math.inf else 1.0 / s) - 1.0
            q = math.inf if inv_q == 0.0 else 1.0 / inv_q
            ratio = lp_norm(conv, q) / (lp_norm(h, s) * lp_norm(f, p))
            worst = max(worst, ratio)
            count += 1
    _report(9, count == 20 and worst <= 1.0 + 1e-6,
            f"{count} (f,g,p,s) combinations, worst lhs/rhs = {worst:.12f}")


def test_criterion_10_selftest_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["selftest", "--out", str(a)])
    code_b = cli_main(["selftest", "--out", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    _report(10, code_a == 0 and code_b == 0 and identical,
            f"selftest exit codes ({code_a},{code_b}), reports byte-identical: {identical}")
