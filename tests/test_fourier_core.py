"""Grid construction, transform pair, symbol application and norms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subord.errors import InvalidParameterError
from subord.fourier_core import (
    FREQUENCY,
    SPACE,
    GridSpec,
    SampledFunction,
    apply_symbol,
    forward_ft,
    inverse_ft,
    lp_norm,
)


def test_grid_basic_geometry():
    g = GridSpec(20.0, 4096)
    assert g.dx == pytest.approx(40.0 / 4096)
    # dual spacing depends only on the window length, not on N
    assert g.dy == pytest.approx(math.pi / 20.0)
    assert GridSpec(20.0, 8192).dy == pytest.approx(math.pi / 20.0)
    assert g.dual_half_length == pytest.approx(math.pi / g.dx)
    x = g.nodes()
    assert x.shape == (4096,)
    assert x[g.size // 2] == 0.0
    y = g.dual_nodes()
    assert y[g.size // 2] == 0.0
    assert np.allclose(np.diff(y), g.dy)


def test_grid_refined():
    g = GridSpec(20.0, 4096)
    r = g.refined(2)
    assert r.half_length == 40.0 and r.size == 8192
    # refinement keeps the space step (and hence the dual window) fixed
    assert r.dx == pytest.approx(g.dx)
    assert r.dual_half_length == pytest.approx(g.dual_half_length)
    # the factor is an integer power of two >= 1; a bool is not an integer
    for factor in (3, 0, -2, True, 2.0):
        with pytest.raises(InvalidParameterError):
            g.refined(factor)


@pytest.mark.parametrize("L,N", [(0.0, 4096), (-3.0, 4096), (math.inf, 4096),
                                 (20.0, 1000), (20.0, 8), (20.0, 4095),
                                 # dx underflows to 0, pi / dx overflows
                                 (5e-324, 16), (1e-320, 16),
                                 # a size that is not an integer
                                 (40.0, 16384.0), (40.0, True),
                                 pytest.param(40.0, np.float64(16384), id="numpy-float-size"),
                                 pytest.param(40.0, np.bool_(True), id="numpy-bool-size"),
                                 pytest.param("40", 16384, id="string-half-length")])
def test_grid_rejects_bad_parameters(L, N):
    with pytest.raises(InvalidParameterError):
        GridSpec(L, N)


@pytest.mark.parametrize("L, N", [(40.0, np.int64(16384)), (np.float32(40), 16384),
                                  (np.float64(40), np.uint16(16384)), (40, np.int32(16384))])
def test_grid_accepts_numpy_numbers_and_stores_python_ones(L, N):
    grid = GridSpec(L, N)
    assert grid == GridSpec(40.0, 16384)
    assert type(grid.half_length) is float and type(grid.size) is int


def test_grid_accepts_extreme_half_lengths_whose_geometry_is_finite():
    for L in (1e-300, 1e300):
        grid = GridSpec(L, 4096)
        assert grid.dx > 0 and math.isfinite(grid.dual_half_length)


def test_gaussian_transform_oracle():
    """FT of e^{-x^2} is sqrt(pi) e^{-y^2/4}; checked in relative error."""
    g = GridSpec(20.0, 4096)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    F = forward_ft(f)
    y = g.dual_nodes()
    band = np.abs(y) <= 10.0
    exact = np.sqrt(np.pi) * np.exp(-y[band] ** 2 / 4.0)
    rel = np.abs(F.values[band] - exact) / exact
    assert rel.max() <= 1e-6


def test_round_trip_is_identity():
    g = GridSpec(20.0, 4096)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x) * (1.0 + 0.3j), SPACE)
    back = inverse_ft(forward_ft(f))
    assert np.abs(back.values - f.values).max() <= 1e-10


def test_transform_side_bookkeeping():
    g = GridSpec(20.0, 4096)
    f = SampledFunction(g, np.exp(-g.nodes() ** 2), SPACE)
    F = forward_ft(f)
    assert F.side == FREQUENCY
    with pytest.raises(InvalidParameterError):
        forward_ft(F)
    with pytest.raises(InvalidParameterError):
        inverse_ft(f)


def test_apply_symbol_multiplies_the_transform():
    """The symbol i y acts as d/dx; the unit symbol is the identity."""
    g = GridSpec(40.0, 16384)
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
    g = GridSpec(20.0, 4096)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    h = SampledFunction(g, np.exp(-2.0 * x * x), SPACE)
    lhs = forward_ft(SampledFunction(g, 2.0 * f.values - 1j * h.values, SPACE))
    rhs = 2.0 * forward_ft(f).values - 1j * forward_ft(h).values
    assert np.abs(lhs.values - rhs).max() <= 1e-12


def test_lp_norm_values():
    g = GridSpec(40.0, 16384)
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


@pytest.mark.parametrize("scale", [3.0, 1.0 / 3.0])
def test_lp_norm_of_a_large_finite_exponent(scale):
    # scale**p overflows or underflows for these p: the samples are divided by their max
    # first, and a p whose max**p is a normal double keeps the plain formula bit for bit
    g = GridSpec(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, scale * np.exp(-x * x), SPACE)
    # ||e^{-x^2}||_p = (pi/p)^{1/(2p)}
    assert lp_norm(f, 2000.0) == pytest.approx(scale * (math.pi / 2000.0) ** (1 / 4000), rel=1e-9)
    assert lp_norm(f, 1e308) == scale
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(f, p) == float((g.dx * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def test_plancherel():
    g = GridSpec(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x) + 0.5j * np.exp(-2 * x * x), SPACE)
    F = forward_ft(f)
    assert lp_norm(F, 2.0) ** 2 == pytest.approx(2.0 * math.pi * lp_norm(f, 2.0) ** 2,
                                                 rel=1e-12)


def test_gaussian_self_convolution():
    """(e^{-x^2} * e^{-x^2})(x) = sqrt(pi/2) e^{-x^2/2}: the operator with symbol F applied to f."""
    g = GridSpec(40.0, 16384)
    x = g.nodes()
    F = forward_ft(SampledFunction(g, np.exp(-x * x), SPACE))
    conv = apply_symbol(F.values, F)
    exact = np.sqrt(math.pi / 2.0) * np.exp(-x * x / 2.0)
    assert np.abs(conv.values - exact).max() <= 1e-10


def test_convolution_matches_transform_product():
    """With the transform of f as symbol, ``apply_symbol`` inverts the product of transforms."""
    g = GridSpec(40.0, 16384)
    x = g.nodes()
    f = SampledFunction(g, np.exp(-x * x), SPACE)
    h = SampledFunction(g, np.exp(-np.abs(x)), SPACE)
    conv = apply_symbol(forward_ft(f).values, forward_ft(h))
    prod = forward_ft(f).values * forward_ft(h).values
    direct = inverse_ft(SampledFunction(g, prod, FREQUENCY))
    assert np.abs(conv.values - direct.values).max() <= 1e-12


@pytest.mark.parametrize("side", ["spatial", "", None])
def test_sampled_function_rejects_an_unknown_side(side):
    with pytest.raises(InvalidParameterError, match="side must be"):
        SampledFunction(GridSpec(20.0, 16), np.zeros(16), side)


@pytest.mark.parametrize("shape", [(15,), (17,), (16, 1), (2, 16), ()])
def test_sampled_function_rejects_values_of_the_wrong_shape(shape):
    with pytest.raises(InvalidParameterError, match=r"values must have shape \(16,\)"):
        SampledFunction(GridSpec(20.0, 16), np.zeros(shape), SPACE)


def test_sampled_function_rejects_nonfinite():
    g = GridSpec(20.0, 4096)
    v = np.zeros(4096)
    v[0] = np.nan
    with pytest.raises(InvalidParameterError):
        SampledFunction(g, v, SPACE)


# ---------------------------------------------------------------------------
# the in-place transform path
# ---------------------------------------------------------------------------

def _reference(values, fft, scale, dx):
    # the shift-copy composition the transforms replaced
    return scale(np.fft.fftshift(fft(np.fft.ifftshift(values))), dx)


@settings(max_examples=60, deadline=None)
@given(power=st.integers(4, 12), half_length=st.floats(0.5, 500.0), seed=st.integers(0, 2**32 - 1))
def test_transforms_equal_the_shifted_fft_bit_for_bit(power, half_length, seed):
    grid = GridSpec(half_length, 2 ** power)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    F = forward_ft(SampledFunction(grid, values, SPACE))
    f = inverse_ft(SampledFunction(grid, values, FREQUENCY))
    assert F.values.tobytes() == _reference(values, np.fft.fft, np.multiply, grid.dx).tobytes()
    assert f.values.tobytes() == _reference(values, np.fft.ifft, np.divide, grid.dx).tobytes()


def test_transforms_keep_their_input_and_freeze_their_output():
    grid = GridSpec(20.0, 1024)
    f = SampledFunction(grid, np.exp(-grid.nodes() ** 2) * (1 + 1j), SPACE)
    before = f.values.copy()
    F = forward_ft(f)
    back = inverse_ft(F)
    shifted = apply_symbol(np.cos(grid.dual_nodes()), F)
    assert f.values.tobytes() == before.tobytes()
    for g in (F, back, shifted):
        assert not g.values.flags.writeable
        assert g.values.dtype == np.complex128
        with pytest.raises(ValueError):
            g.values[0] = 1.0


def test_sampled_function_copies_the_callers_array():
    grid = GridSpec(20.0, 256)
    arr = np.zeros(256, dtype=np.complex128)
    f = SampledFunction(grid, arr, SPACE)
    assert not np.shares_memory(f.values, arr)
    assert arr.flags.writeable
    arr[0] = 1.0
    assert f.values[0] == 0.0


def _peak_bytes(call) -> int:
    """Peak of the memory ``call()`` allocates, its result included; a first call warms caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_transform_allocates_one_output_and_a_half_length_temporary():
    # the shift copies, the scaling and the defensive copy took 2.0 output arrays at the peak
    grid = GridSpec(40.0, 2 ** 16)
    f = SampledFunction(grid, np.exp(-grid.nodes() ** 2), SPACE)
    F = forward_ft(f)
    one_array = 16 * grid.size
    assert _peak_bytes(lambda: forward_ft(f)) <= 1.6 * one_array
    assert _peak_bytes(lambda: inverse_ft(F)) <= 1.6 * one_array
