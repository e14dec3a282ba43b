"""Grid construction, transform pair, norms, and convolution."""

import math

import numpy as np
import pytest

from subord.errors import GridMismatchError, InvalidParameterError
from subord.fourier_core import (
    FREQUENCY,
    SPACE,
    GridSpec,
    SampledFunction,
    WraparoundWarning,
    apply_symbol,
    convolve,
    forward_ft,
    inverse_ft,
    lp_norm,
    make_grid,
)


def test_grid_basic_geometry():
    g = make_grid(20.0, 4096)
    assert g.dx == pytest.approx(40.0 / 4096)
    # dual spacing depends only on the window length, not on N
    assert g.dy == pytest.approx(math.pi / 20.0)
    assert make_grid(20.0, 8192).dy == pytest.approx(math.pi / 20.0)
    assert g.dual_half_length == pytest.approx(math.pi / g.dx)
    x = g.nodes()
    assert x.shape == (4096,)
    assert x[g.size // 2] == 0.0
    y = g.dual_nodes()
    assert y[g.size // 2] == 0.0
    assert np.allclose(np.diff(y), g.dy)


def test_grid_refined():
    g = make_grid(20.0, 4096)
    r = g.refined(2)
    assert r.half_length == 40.0 and r.size == 8192
    # refinement keeps the space step (and hence the dual window) fixed
    assert r.dx == pytest.approx(g.dx)
    assert r.dual_half_length == pytest.approx(g.dual_half_length)


@pytest.mark.parametrize("L,N", [(0.0, 4096), (-3.0, 4096), (math.inf, 4096),
                                 (20.0, 1000), (20.0, 8), (20.0, 4095)])
def test_grid_rejects_bad_parameters(L, N):
    with pytest.raises(InvalidParameterError):
        make_grid(L, N)


def test_gaussian_transform_oracle():
    """FT of e^{-x^2} is sqrt(pi) e^{-y^2/4}; checked in relative error."""
    g = make_grid(20.0, 4096)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    F = forward_ft(f)
    y = g.dual_nodes()
    band = np.abs(y) <= 10.0
    exact = np.sqrt(np.pi) * np.exp(-y[band] ** 2 / 4.0)
    rel = np.abs(F.values[band] - exact) / exact
    assert rel.max() <= 1e-6


def test_round_trip_is_identity():
    g = make_grid(20.0, 4096)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x) * (1.0 + 0.3j), SPACE)
    back = inverse_ft(forward_ft(f))
    assert np.abs(back.values - f.values).max() <= 1e-10


def test_transform_side_bookkeeping():
    g = make_grid(20.0, 4096)
    f = SampledFunction(g, np.exp(-g.nodes() ** 2), SPACE)
    F = forward_ft(f)
    assert F.side == FREQUENCY
    with pytest.raises(InvalidParameterError):
        forward_ft(F)
    with pytest.raises(InvalidParameterError):
        inverse_ft(f)


def test_apply_symbol_multiplies_the_transform():
    """The symbol i y acts as d/dx; the unit symbol is the identity."""
    g = make_grid(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    F = forward_ft(f)
    derivative = apply_symbol(1j * g.dual_nodes(), F)
    assert derivative.side == SPACE
    assert np.abs(derivative.values - (-2.0 * x * np.exp(-x * x))).max() <= 1e-12
    assert np.abs(apply_symbol(np.ones(g.size), F).values - f.values).max() <= 1e-12
    with pytest.raises(InvalidParameterError):
        apply_symbol(np.ones(g.size), f)


def test_transform_linearity():
    g = make_grid(20.0, 4096)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    h = SampledFunction(g, np.exp(-2.0 * x * x), SPACE)
    lhs = forward_ft(SampledFunction(g, 2.0 * f.values - 1j * h.values, SPACE))
    rhs = 2.0 * forward_ft(f).values - 1j * forward_ft(h).values
    assert np.abs(lhs.values - rhs).max() <= 1e-12


def test_lp_norm_values():
    g = make_grid(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    # ||e^{-x^2}||_2 = (pi/2)^{1/4}
    assert lp_norm(f, 2.0) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-9)
    assert lp_norm(f, 2.0) == pytest.approx(1.1195151349202477, rel=1e-9)
    assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-15)
    e = SampledFunction(g, np.exp(-np.abs(x)), SPACE)
    assert lp_norm(e, 1.0) == pytest.approx(2.0, abs=1e-4)
    for bad in (0.5, -math.inf):
        with pytest.raises(InvalidParameterError):
            lp_norm(f, bad)


def test_plancherel():
    g = make_grid(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x) + 0.5j * np.exp(-2 * x * x), SPACE)
    F = forward_ft(f)
    assert lp_norm(F, 2.0) ** 2 == pytest.approx(2.0 * math.pi * lp_norm(f, 2.0) ** 2,
                                                 rel=1e-12)


def test_gaussian_self_convolution():
    """(e^{-x^2} * e^{-x^2})(x) = sqrt(pi/2) e^{-x^2/2}."""
    g = make_grid(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    conv = convolve(f, f)
    exact = np.sqrt(math.pi / 2.0) * np.exp(-x * x / 2.0)
    assert np.abs(conv.values - exact).max() <= 1e-10


def test_convolution_matches_transform_product():
    g = make_grid(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    h = SampledFunction(g, np.exp(-np.abs(x)), SPACE)
    conv = convolve(f, h)
    prod = forward_ft(f).values * forward_ft(h).values
    direct = inverse_ft(SampledFunction(g, prod, FREQUENCY))
    assert np.abs(conv.values - direct.values).max() <= 1e-12


def test_convolution_warns_on_wraparound():
    # a window far too small for e^{-|x|/4}: visible mass at the boundary
    g = make_grid(10.0, 1024)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-np.abs(x) / 4.0), SPACE)
    with pytest.warns(WraparoundWarning):
        convolve(f, f)


def test_grid_mismatch_rejected():
    f = SampledFunction(make_grid(20.0, 4096), np.zeros(4096), SPACE)
    h = SampledFunction(make_grid(20.0, 8192), np.zeros(8192), SPACE)
    with pytest.raises(GridMismatchError):
        f + h
    with pytest.raises(GridMismatchError):
        convolve(f, h)


def test_sampled_function_rejects_nonfinite():
    g = make_grid(20.0, 4096)
    v = np.zeros(4096)
    v[0] = np.nan
    with pytest.raises(InvalidParameterError):
        SampledFunction(g, v, SPACE)
