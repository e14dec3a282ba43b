"""The Wiener-norm estimator and the Carlson-type sufficient bound."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from subord.comparison import (
    Multiplier,
    constant,
    exp_abs_ft,
    gaussian_ft,
    gw_symbol,
)
from subord.errors import (
    GridTooSmallError,
    InconsistentLimitError,
    InvalidParameterError,
    NotApplicableError,
)
from subord.fourier_core import GridSpec
from subord.measures import carlson_bound, wiener_norm

GRID = GridSpec(40.0, 16384)


# ---------------------------------------------------------------------------
# Wiener-norm estimation
# ---------------------------------------------------------------------------

def test_wiener_norm_of_exponential_symbol():
    """e^{-|y|} is the transform of the Cauchy kernel, total mass exactly 1."""
    est = wiener_norm(gw_symbol(1.0), GRID)
    assert est.converged
    assert est.total == pytest.approx(1.0, abs=1e-3)
    assert est.const_at_infinity == pytest.approx(0.0, abs=1e-6)


def test_wiener_norm_of_constant_is_pure_atom():
    est = wiener_norm(constant(1.0), GRID)
    assert est.total == 1.0
    assert est.density_l1 == 0.0
    assert est.converged


def test_wiener_norm_of_gaussian_symbol():
    # sqrt(pi) e^{-y^2/4} is the transform of e^{-x^2}: norm is sqrt(pi)
    est = wiener_norm(gaussian_ft(), GRID)
    assert est.converged
    assert est.total == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_wiener_norm_pins_requested_limit():
    est = wiener_norm(exp_abs_ft(), GRID, const_at_infinity=0.0)
    assert est.const_at_infinity == 0.0
    assert est.total == pytest.approx(2.0, abs=1e-3)


def test_wiener_norm_rejects_inconsistent_limits():
    odd = Multiplier(label="tanh", _fn=lambda y: np.tanh(y) + 0j)
    with pytest.raises(InconsistentLimitError):
        wiener_norm(odd, GRID)
    # pinning a limit bypasses the two-sided consistency requirement
    est = wiener_norm(odd, GRID, const_at_infinity=0.0)
    assert est.total > 0.0


@pytest.mark.parametrize("oversample", [1, 2])
def test_constant_term_needs_a_node_in_each_outer_band(oversample):
    """At 16 or 32 dual nodes the outer 5% of the upper side holds no node."""
    tiny = GridSpec(40.0, 16)
    with pytest.raises(GridTooSmallError):
        wiener_norm(gw_symbol(1.0), tiny, oversample=oversample)
    with pytest.raises(GridTooSmallError):
        carlson_bound(gw_symbol(1.0), tiny)
    # a pinned constant term reads no band
    assert wiener_norm(gw_symbol(1.0), tiny, oversample=oversample,
                       const_at_infinity=0.0).total > 0.0


def test_wiener_estimate_holds_numbers_only():
    est = wiener_norm(gw_symbol(1.0), GRID)
    for field in dataclasses.fields(est):
        assert isinstance(getattr(est, field.name), (bool, int, float, complex)), field.name


def test_wiener_norm_rejects_bad_oversample():
    with pytest.raises(InvalidParameterError):
        wiener_norm(gw_symbol(1.0), GRID, oversample=3)


def test_wiener_norm_peak_memory():
    # in complex arrays of the doubled window's fine grid; the shift copies, the full-window
    # node array and mask and the copied samples took 3.5
    grid = GridSpec(40.0, 2 ** 12)
    fine_array = 16 * grid.refined(2).refined(8).size
    wiener_norm(gw_symbol(1.0), grid)  # warm
    tracemalloc.start()
    try:
        wiener_norm(gw_symbol(1.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * fine_array


# ---------------------------------------------------------------------------
# Carlson-type sufficient bound
# ---------------------------------------------------------------------------

def test_carlson_bound_dominates_density_part():
    for m in (gw_symbol(1.0), gaussian_ft(), exp_abs_ft()):
        est = wiener_norm(m, GRID)
        bound = carlson_bound(m, GRID)
        assert est.density_l1 + est.tail_bound <= bound + 1e-12


def test_carlson_bound_of_constant_is_zero():
    # nothing left once the atom at infinity is removed
    assert carlson_bound(constant(1.0), GRID) == 0.0


def test_carlson_bound_frozen_value():
    assert carlson_bound(gw_symbol(1.0), GRID) == pytest.approx(
        6.168205438271537, rel=1e-9)


def test_carlson_bound_rejects_unresolved_oscillation():
    rough = Multiplier(label="rough",
                       _fn=lambda y: np.cos(20.0 * y) / (1.0 + 0.01 * y * y) + 0j)
    with pytest.raises(NotApplicableError):
        carlson_bound(rough, GRID)


@pytest.mark.parametrize("at_origin", [math.nan, math.inf])
def test_both_estimators_reject_a_non_finite_symbol(at_origin):
    # the symbol is non-finite at the dual node y = 0 only
    bad = Multiplier(label="bad",
                     _fn=lambda y: np.where(y == 0.0, at_origin, np.exp(-np.abs(y))) + 0j)
    with pytest.raises(InvalidParameterError):
        wiener_norm(bad, GRID)
    with pytest.raises(InvalidParameterError):
        carlson_bound(bad, GRID)
