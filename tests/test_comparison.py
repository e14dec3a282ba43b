"""Multiplier registry, ratio construction, and the comparison principle.

The contract under test: if the denominator symbol vanishes only where the
numerator also vanishes and the ratio has a finite measure norm, then the
numerator operator is dominated by the denominator operator with constant
equal to that norm.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subord.comparison import (
    Multiplier,
    _verify,
    apply_multiplier,
    constant,
    exp_abs_ft,
    gaussian_ft,
    gw_ratio,
    named_multiplier,
    one_minus_gw_symbol,
    ratio_multiplier,
    verify_comparison,
)
from subord.errors import (
    AllCasesSkippedError,
    FillUndefinedError,
    InvalidParameterError,
    NestedZerosViolatedError,
)
from subord.fourier_core import GridSpec, forward_ft, inverse_ft, lp_norm
from subord.measures import wiener_norm
from subord.testkit import gaussian, materialize, means_suite

GRID = GridSpec(40.0, 16384)


def test_registry_lookup():
    m = named_multiplier("gw_symbol", alpha=1.0)
    y = np.array([0.0, 1.0, -2.0])
    assert np.allclose(m(y), np.exp(-np.abs(y)))
    with pytest.raises(InvalidParameterError):
        named_multiplier("no_such_symbol")
    with pytest.raises(InvalidParameterError):
        named_multiplier("gw_symbol", alpha=1.0, bogus=2.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
                                   complex(math.nan, 0.0)])
def test_constant_refuses_a_non_finite_value(value):
    with pytest.raises(InvalidParameterError, match="constant value must be finite"):
        constant(value)


def test_apply_multiplier_requires_space_side():
    f = materialize(gaussian(1.0), GRID)
    out = apply_multiplier(constant(3.0), f)
    assert np.abs(out.values - 3.0 * f.values).max() <= 1e-12
    with pytest.raises(InvalidParameterError):
        apply_multiplier(constant(1.0), forward_ft(f))


def test_gw_ratio_endpoint_values():
    r = gw_ratio(1.0, 2.0)
    vals = r(GRID.dual_nodes()).real
    assert r(np.array([0.0]))[0] == 0.0          # removable zero pinned
    assert r(0.0) == 0.0 and np.shape(r(2.0)) == ()  # a scalar in, a scalar out
    for y in (0.0, np.array(0.0)):  # a Python float or a 0-d array: a 0-d complex array
        v = r(y)
        assert isinstance(v, np.ndarray) and v.shape == () and v.dtype == np.complex128
        assert v == 0.0
    assert r(2.0) == pytest.approx((1.0 - np.exp(-4.0)) / (1.0 - np.exp(-2.0)), rel=1e-15)
    assert vals.max() == pytest.approx(1.1563747984508446, rel=1e-9)
    assert vals[0] == 1.0                        # saturates at the window edge
    with pytest.raises(InvalidParameterError):
        gw_ratio(2.0, 1.0)


def test_ratio_multiplier_fills_interior_zero():
    r = ratio_multiplier(one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0), GRID)
    y = GRID.dual_nodes()
    exact = gw_ratio(1.0, 2.0)(y)
    diff = np.abs(r(y) - exact)
    # agreement away from the origin, where the denominator vanishes
    assert diff[y != 0.0].max() <= 1e-12
    # the origin takes the limit 0 through the probes at -+1e-6, not a neighbours' mean
    assert abs(r(np.array([0.0]))[0]) <= 1e-5


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.25, 4.0), gap=st.floats(0.5, 3.0))
def test_ratio_multiplier_is_the_closed_form_ratio_on_any_grid(alpha, gap):
    # psi depends on y alone: the construction grid's nodes and the estimator's finer
    # ones read the same function, and y = 0 reads the limit ~ (1e-6)^(beta - alpha)
    beta = alpha + gap
    r = ratio_multiplier(one_minus_gw_symbol(beta), one_minus_gw_symbol(alpha), GRID)
    exact = gw_ratio(alpha, beta)
    for y in (GRID.dual_nodes(), GRID.refined(8).dual_nodes()):
        y = y[y != 0.0]
        assert np.abs(r(y) - exact(y)).max() <= 1e-12
    assert abs(r(np.array([0.0]))[0]) <= 2.0 * 1e-6 ** gap


@pytest.mark.parametrize("alpha,beta", ((0.5, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 4.0)))
def test_ratio_norm_matches_the_closed_form_constant(alpha, beta):
    ratio = ratio_multiplier(one_minus_gw_symbol(beta), one_minus_gw_symbol(alpha), GRID)
    oracle = wiener_norm(gw_ratio(alpha, beta), GRID).total
    assert abs(wiener_norm(ratio, GRID).total - oracle) <= 1e-3 * oracle


def test_ratio_multiplier_refuses_a_zero_without_a_probe_limit():
    # the denominator vanishes on |y| < 1 off the construction grid's zero threshold
    # and at both probes beside 0, so the ratio has no limit to take there
    m = Multiplier("flat", lambda y: np.where(np.abs(y) < 1.0, 0.0, 1.0))
    r = ratio_multiplier(m, m, GRID)
    assert r(np.array([2.0]))[0] == 1.0
    with pytest.raises(FillUndefinedError, match="both probes"):
        r(np.array([0.0]))


def test_ratio_multiplier_steps_out_where_both_probes_underflow():
    # 1 - exp(-|y|^60) underflows to 0 at y = -+1e-6; 16 times further out it does not
    m = one_minus_gw_symbol(60.0)
    assert ratio_multiplier(m, m, GRID)(np.array([0.0]))[0] == 1.0


def test_ratio_multiplier_rejects_uncovered_zero():
    # denominator vanishes at 0 where the numerator equals 1
    with pytest.raises(NestedZerosViolatedError):
        ratio_multiplier(constant(1.0), one_minus_gw_symbol(1.0), GRID)


def test_ratio_multiplier_boundary_run_needs_explicit_fill():
    # a gaussian symbol underflows to zero over most of the dual window,
    # so the masked region touches the boundary and has no neighbors
    with pytest.raises(FillUndefinedError):
        ratio_multiplier(gaussian_ft(), gaussian_ft(), GRID)


@pytest.mark.parametrize("m", [constant(1.0), exp_abs_ft(), one_minus_gw_symbol(1.0),
                               one_minus_gw_symbol(20.0)])
def test_reflexive_comparison_constant_is_one(m):
    report = verify_comparison(m, m, GRID)
    assert report.constant == pytest.approx(1.0, abs=1e-6)
    assert report.passed
    assert report.worst_ratio <= 1.0 + 1e-6


def test_comparison_of_mean_symbols():
    """1 - e^{-y^2} against 1 - e^{-|y|}: the bounded-ratio pair."""
    report = verify_comparison(one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0), GRID)
    assert report.estimate.converged
    assert report.constant == report.estimate.total
    # the exact norm is 2; the closed-form ratio's estimate is the reference
    assert report.constant >= 2.0
    assert abs(report.constant - wiener_norm(gw_ratio(1.0, 2.0), GRID).total) <= 1e-6
    assert report.passed
    assert report.worst_ratio == pytest.approx(1.0689040626101167, rel=1e-6)
    assert len(report.cases) == 18  # 6 functions x p in {1, 2, inf}


def test_verify_refuses_a_run_whose_every_case_is_skipped():
    # a right-hand side of 0 carries no information, so no case is kept
    def rows(f):
        yield None, "p=1", 1.0, 0.0

    with pytest.raises(AllCasesSkippedError, match="no comparison case"):
        _verify(means_suite()[:2], GRID, rows, 1.0, "comparison")


def test_comparison_cases_actually_bound_norms():
    m1, m2 = one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0)
    report = verify_comparison(m1, m2, GRID)
    f = materialize(gaussian(1.0), GRID)
    lhs = apply_multiplier(m1, f)
    rhs = apply_multiplier(m2, f)
    for p in (1.0, 2.0, math.inf):
        assert lp_norm(lhs, p) <= report.constant * lp_norm(rhs, p) * (1.0 + 1e-2)
