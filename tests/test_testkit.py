import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subord

from subord.errors import GridTooSmallError, InvalidParameterError
from subord.fourier_core import GridSpec, forward_ft
from subord.testkit import (
    _BOUNDARY_LEVEL,
    RAPID_DECAY,
    bspline,
    bump,
    diffop_suite,
    exp_abs,
    gaussian,
    materialize,
    means_suite,
    modulated_gaussian,
)

GRID = GridSpec(40.0, 16384)


@pytest.mark.parametrize("fn,tol", [
    (gaussian(1.0), 1e-10),
    (gaussian(4.0), 1e-10),
    (exp_abs(1.0), 1e-5),       # kink at 0: transform converges like 1/N
    (bspline(4), 1e-9),
    (modulated_gaussian(1.0, 3.0), 1e-10),
])
def test_closed_form_transform_matches_fft(fn, tol):
    numeric = forward_ft(materialize(fn, GRID))
    known = fn.transform(GRID.dual_nodes())
    assert np.abs(numeric.values - known).max() <= tol


def test_labels():
    assert gaussian(1.0).label == "gaussian_a1"
    assert exp_abs(0.5).label == "exp_abs_a0p5"
    assert bump(2.0).label == "bump_R2"
    assert bspline(4).label == "bspline_m4"
    assert modulated_gaussian(1.0, 3.0).label == "modulated_gaussian_a1_w3"


def test_bspline_values():
    f = materialize(bspline(4), GRID)
    x = GRID.nodes()
    # cubic cardinal B-spline: value 2/3 at the origin, support [-2, 2]
    assert f.values[GRID.size // 2].real == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.abs(f.values[np.abs(x) > 2.0]).max() == 0.0


@pytest.mark.parametrize("m", range(2, 9))
def test_bspline_matches_scipy_bitwise(m):
    """The numpy recursion reproduces scipy's basis element bit for bit;
    scipy is a reference here only, the package does not depend on it."""
    interpolate = pytest.importorskip("scipy.interpolate")
    knots = np.arange(m + 1, dtype=float) - m / 2.0
    element = interpolate.BSpline.basis_element(knots, extrapolate=False)
    for L, N in ((40.0, 2**14), (40.0, 2**18), (64.0, 2**14)):
        x = GridSpec(L, N).nodes()
        expected = np.nan_to_num(element(x), nan=0.0)
        assert bspline(m).profile(x).tobytes() == expected.tobytes()


def _truncated_power(m, x):
    # sum_j (-1)^j C(m, j) (x + m/2 - j)_+^(m-1) / (m-1)!
    total = sum((-1) ** j * math.comb(m, j) * np.maximum(x + m / 2.0 - j, 0.0) ** (m - 1)
                for j in range(m + 1))
    return total / math.factorial(m - 1)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 8), x=st.floats(-6.0, 6.0))
def test_bspline_partition_of_unity_and_truncated_powers(m, x):
    profile = bspline(m).profile
    shifts = np.arange(math.floor(x) - m, math.ceil(x) + m + 1, dtype=float)
    assert abs(float(np.sum(profile(x - shifts))) - 1.0) <= 1e-12
    # the spline is even; at -|x| the formula's terms stay small, so its own
    # cancellation error (up to 3e-12 at m=8 for x beyond m/2) stays below 1e-15
    assert abs(profile(np.array([x]))[0] - _truncated_power(m, -abs(x))) <= 1e-12


def test_import_leaves_scipy_out():
    src = str(Path(subord.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, subord, subord.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_bspline_rejects_low_order():
    with pytest.raises(InvalidParameterError):
        bspline(1)


def test_bump_is_compact_and_normalized():
    f = materialize(bump(2.0), GRID)
    x = GRID.nodes()
    assert np.abs(f.values).max() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(f.values[np.abs(x) >= 2.0]).max() == 0.0


@pytest.mark.parametrize("make,args", [
    (gaussian, (math.inf,)),
    (exp_abs, (math.inf,)),
    (bump, (math.inf,)),
    (modulated_gaussian, (1.0, math.inf)),
    (modulated_gaussian, (1.0, math.nan)),
])
def test_constructors_refuse_non_finite_parameters(make, args):
    with pytest.raises(InvalidParameterError):
        make(*args)


def test_bump_has_no_closed_form_transform():
    assert bump(2.0).transform is None


def test_means_suite_order_is_contractual():
    labels = [fn.label for fn in means_suite()]
    assert labels == [
        "gaussian_a1",
        "gaussian_a4",
        "exp_abs_a1",
        "bump_R2",
        "bspline_m4",
        "modulated_gaussian_a1_w3",
    ]


def test_diffop_suite_filters_by_smoothness():
    # exp_abs has order 0 and drops out for any derivative work;
    # bspline(4) has order 2 and drops out above second order
    assert [f.label for f in diffop_suite(2)] == [
        "gaussian_a1", "gaussian_a4", "bump_R2", "bspline_m4",
        "modulated_gaussian_a1_w3",
    ]
    assert [f.label for f in diffop_suite(3)] == [
        "gaussian_a1", "gaussian_a4", "bump_R2", "modulated_gaussian_a1_w3",
    ]
    assert [f.label for f in diffop_suite(0)] == [f.label for f in means_suite()]


def test_materialize_rejects_undersized_window():
    with pytest.raises(GridTooSmallError):
        materialize(gaussian(1.0), GridSpec(4.0, 64))
    with pytest.raises(GridTooSmallError):
        materialize(exp_abs(1.0), GridSpec(10.0, 1024))
    # zero at both end nodes, -L and L - dx, but large in the rest of the outer band
    grid = GridSpec(8.0, 256)
    L, dx = grid.half_length, grid.dx
    parabola = subord.TestFunction("parabola", lambda x: (x + L) * (L - dx - x), None, 0)
    with pytest.raises(GridTooSmallError):
        materialize(parabola, grid)


@settings(max_examples=150, deadline=None)
@given(half_length=st.floats(1.0, 1e3), n=st.integers(4, 12), log_level=st.floats(-14.0, 0.0),
       data=st.data())
def test_a_spike_anywhere_in_the_outer_band_of_the_window_is_refused(half_length, n,
                                                                     log_level, data):
    # the outer band is the first floor(N / 20) + 1 and the last floor(N / 20) nodes
    grid = GridSpec(half_length, 2 ** n)
    band = grid.size // 20
    k = data.draw(st.integers(0, 2 * band))
    spike = np.zeros(grid.size)
    spike[k if k <= band else grid.size - (k - band)] = 10.0 ** log_level  # peak 1 at x = 0
    fn = subord.TestFunction("spiked", lambda x: np.exp(-(x / (0.1 * half_length)) ** 2) + spike,
                             None, RAPID_DECAY)
    if spike.max() > 2.0 * _BOUNDARY_LEVEL:
        with pytest.raises(GridTooSmallError):
            materialize(fn, grid)
    elif spike.max() < 0.5 * _BOUNDARY_LEVEL:
        materialize(fn, grid)


def test_modulated_gaussian_is_shifted_gaussian_transform():
    fn = modulated_gaussian(1.0, 3.0)
    y = GRID.dual_nodes()
    shifted = gaussian(1.0).transform(y - 3.0)
    assert np.abs(fn.transform(y) - shifted).max() <= 1e-15
