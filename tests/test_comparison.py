"""Multiplier registry, ratio construction, and the comparison principle.

The contract under test: if the denominator symbol vanishes only where the
numerator also vanishes and the ratio has a finite measure norm, then the
numerator operator is dominated by the denominator operator with constant
equal to that norm.
"""

import math

import numpy as np
import pytest

from subord.comparison import (
    Multiplier,
    apply_multiplier,
    constant,
    exp_abs_ft,
    gaussian_ft,
    gw_ratio,
    named_multiplier,
    one_minus_gw_symbol,
    ratio_multiplier,
    setup_comparison,
    verify_comparison,
)
from subord.errors import (
    FillUndefinedError,
    InvalidParameterError,
    NestedZerosViolatedError,
)
from subord.fourier_core import forward_ft, inverse_ft, lp_norm, make_grid
from subord.testkit import gaussian, materialize

GRID = make_grid(40.0, 16384)


def test_registry_lookup():
    m = named_multiplier("gw_symbol", alpha=1.0)
    y = np.array([0.0, 1.0, -2.0])
    assert np.allclose(m(y), np.exp(-np.abs(y)))
    with pytest.raises(InvalidParameterError):
        named_multiplier("no_such_symbol")
    with pytest.raises(InvalidParameterError):
        named_multiplier("gw_symbol", alpha=1.0, bogus=2.0)


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
    assert vals.max() == pytest.approx(1.1563747984508446, rel=1e-9)
    assert vals[0] == 1.0                        # saturates at the window edge
    with pytest.raises(InvalidParameterError):
        gw_ratio(2.0, 1.0)


def test_ratio_multiplier_fills_interior_zero():
    r = ratio_multiplier(one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0), GRID)
    y = GRID.dual_nodes()
    exact = gw_ratio(1.0, 2.0)(y)
    diff = np.abs(r(y) - exact)
    # agreement away from the filled node at the origin
    assert diff[y != 0.0].max() <= 1e-12
    # the filled value interpolates the neighbors rather than using the limit
    assert abs(r(np.array([0.0]))[0]) <= 2.0 * GRID.dy


def test_ratio_multiplier_rejects_uncovered_zero():
    # denominator vanishes at 0 where the numerator equals 1
    with pytest.raises(NestedZerosViolatedError):
        ratio_multiplier(constant(1.0), one_minus_gw_symbol(1.0), GRID)


def test_ratio_multiplier_boundary_run_needs_explicit_fill():
    # a gaussian symbol underflows to zero over most of the dual window,
    # so the masked region touches the boundary and has no neighbors
    with pytest.raises(FillUndefinedError):
        ratio_multiplier(gaussian_ft(), gaussian_ft(), GRID)
    r = ratio_multiplier(gaussian_ft(), gaussian_ft(), GRID, fill=1.0)
    assert np.allclose(r(GRID.dual_nodes()), 1.0)


@pytest.mark.parametrize("m", [constant(1.0), exp_abs_ft(), one_minus_gw_symbol(1.0)])
def test_reflexive_comparison_constant_is_one(m):
    setup = setup_comparison(m, m, GRID)
    assert setup.constant == pytest.approx(1.0, abs=1e-6)
    report = verify_comparison(setup)
    assert report.passed
    assert report.worst_ratio <= 1.0 + 1e-6


def test_comparison_of_mean_symbols():
    """1 - e^{-y^2} against 1 - e^{-|y|}: the bounded-ratio pair."""
    setup = setup_comparison(one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0), GRID)
    assert setup.estimate.converged
    assert setup.constant == pytest.approx(1.9819737910923465, rel=1e-9)
    report = verify_comparison(setup)
    assert report.passed
    assert report.worst_ratio == pytest.approx(1.0689040626101167, rel=1e-6)
    assert len(report.cases) == 18  # 6 functions x p in {1, 2, inf}


def test_comparison_cases_actually_bound_norms():
    setup = setup_comparison(one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0), GRID)
    f = materialize(gaussian(1.0), GRID)
    lhs = apply_multiplier(setup.multiplier1, f)
    rhs = apply_multiplier(setup.multiplier2, f)
    for p in (1.0, 2.0, math.inf):
        assert lp_norm(lhs, p) <= setup.constant * lp_norm(rhs, p) * (1.0 + 1e-2)
