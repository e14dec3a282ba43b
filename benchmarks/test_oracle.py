"""Tests of the benchmark's reference values and trace helpers.

Run with ``python -m pytest -q benchmarks``; they need numpy only.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import tracer


def _space_transform(profile, y, lo, hi, width=0.01):
    x, w = oracle._panel_rule(lo, hi, width)
    f = profile(x)
    return np.array([np.sum(w * f * np.exp(-1j * x * yi)) for yi in np.atleast_1d(y)])


def _bspline4(x):
    ax = np.abs(x)
    return np.where(ax < 1, 2.0 / 3.0 - ax ** 2 + ax ** 3 / 2.0,
                    np.where(ax < 2, (2.0 - ax) ** 3 / 6.0, 0.0))


PROFILES = {
    "gaussian_a1": (lambda x: np.exp(-x ** 2), 12.0),
    "gaussian_a4": (lambda x: np.exp(-(x / 4.0) ** 2), 40.0),
    "exp_abs_a1": (lambda x: np.exp(-np.abs(x)), 40.0),
    "bump_R2": (lambda x: oracle._bump_profile(2.0, x), 2.0),
    "bspline_m4": (_bspline4, 2.0),
    "modulated_gaussian_a1_w3": (lambda x: np.exp(-x ** 2) * np.exp(3j * x), 12.0),
}


@pytest.mark.parametrize("label", sorted(PROFILES))
def test_transforms_match_quadrature_of_the_profile(label):
    profile, half = PROFILES[label]
    y = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    direct = _space_transform(profile, y, -half, half)
    assert np.allclose(oracle.transform(label, y), direct, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("label", sorted(PROFILES))
def test_l1_norms_match_quadrature_of_the_profile(label):
    profile, half = PROFILES[label]
    x, w = oracle._panel_rule(-half, half, 0.01)
    assert oracle.l1_norm(label) == pytest.approx(np.sum(w * np.abs(profile(x))), rel=1e-9)


def test_sampled_exp_abs_is_the_sum_of_its_samples():
    dx, y = 0.05, np.array([0.0, 1.0, 17.0, 60.0])
    j = np.arange(-2000, 2001)
    direct = dx * np.exp(-np.abs(j * dx)) @ np.exp(-1j * np.outer(j * dx, y))
    assert np.allclose(oracle._sampled_exp_abs(y, dx), direct.real, rtol=1e-12)
    assert np.allclose(oracle._sampled_exp_abs(y, 1e-4), 2.0 / (1.0 + y ** 2), rtol=1e-6)


def test_plancherel_with_unit_symbol_is_the_space_norm():
    # ||exp(-x^2)||_2 = (pi / 2)^(1/4), ||exp(-|x|)||_2 = 1
    one = lambda y: np.ones_like(y)
    assert oracle.plancherel_l2(one, "gaussian_a1", 40.0, 16384) == pytest.approx(
        (math.pi / 2.0) ** 0.25, rel=1e-12)
    # the sampled exp_abs carries the rectangle rule's own value
    dx = 80.0 / 16384
    rect = math.sqrt(dx * np.sum(np.exp(-2.0 * np.abs((np.arange(16384) - 8192) * dx))))
    assert oracle.plancherel_l2(one, "exp_abs_a1", 40.0, 16384) == pytest.approx(rect, rel=1e-12)


def test_plancherel_of_a_derivative():
    # ||f'||_2^2 for f = exp(-x^2) is sqrt(pi / 2)
    value = oracle.plancherel_l2(lambda y: y, "gaussian_a1", 40.0, 16384)
    assert value == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-12)


@pytest.mark.parametrize("pair", [(0.5, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 4.0)])
def test_sup_of_mean_error_ratio_is_a_local_maximum(pair):
    alpha, beta = pair
    sup = oracle.sup_mean_error_ratio(alpha, beta)
    y = oracle._DENSE_Y
    peak = y[np.argmax(oracle.mean_error_ratio(alpha, beta, y))]
    fine = np.linspace(max(peak - 1e-3, 0.0), peak + 1e-3, 20001)
    assert sup > 1.0
    assert sup == pytest.approx(oracle.mean_error_ratio(alpha, beta, fine).max(), rel=1e-9)


def test_domination_sup_known_values():
    # |y| / (y^2 + 1) peaks at 1/2; |y| / (|y^2 - 1| + 1) and 1 / (|y - 1| + 1) at 1
    assert oracle.domination_sup([0, 1], [0, 0, 1], [1]) == pytest.approx(0.5, rel=1e-12)
    assert oracle.domination_sup([0, 1], [-1, 0, 1], [1]) == pytest.approx(1.0, rel=1e-12)
    assert oracle.domination_sup([1, 1], [-1, 0, 1], [1, 1]) == pytest.approx(1.0, rel=1e-12)
    assert oracle.domination_sup([1, 1], [0, 1], [1]) == pytest.approx(1.0, rel=1e-12)


def test_real_roots():
    assert oracle.real_roots([0, 0, 1]) == pytest.approx([0.0])
    assert oracle.real_roots([-1, 0, 1]) == pytest.approx([-1.0, 1.0])
    assert oracle.real_roots([1, 0, 1]) == []


def test_stable_densities_match_closed_forms():
    x = np.array([0.0, 0.5, 2.0, 10.0])
    assert np.allclose(oracle.stable_density(1.0, x), 1.0 / (math.pi * (1.0 + x ** 2)), rtol=1e-9)
    assert np.allclose(oracle.stable_density(2.0, x),
                       np.exp(-x ** 2 / 4.0) / (2.0 * math.sqrt(math.pi)), rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_stable_density_is_nonnegative_so_the_norm_is_one(alpha):
    # g >= 0 gives ||g||_1 = int g = psi(0) = 1: the exact measure norm
    x = np.linspace(0.0, 12.0, 49)
    density = oracle.stable_density(alpha, x)
    assert (density >= -1e-13).all()
    assert density[0] > 0.0


def test_stable_total_check():
    assert oracle.stable_total_ok(1.0)
    assert oracle.stable_total_ok(1.0 - 1e-13)
    assert not oracle.stable_total_ok(0.9735853814062146)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:        50 |         50 |         scipy._lib",
        "import time:        20 |         70 |       scipy",
        "import time:        10 |         10 |         scipy.special",
        "import time:        30 |         40 |       scipy.interpolate",
        "import time:       500 |       2000 |     subord.testkit",
        "import time:       400 |       3000 |   subord",
        "import time:        90 |        200 |   subord.cli",
    ])
    parsed = tracer.parse_importtime(text)
    assert parsed["startup.import_s"] == pytest.approx(3200e-6)
    assert parsed["startup.scipy_import_s"] == pytest.approx(110e-6)


def test_self_time_subtracts_children():
    trace = tracer.Tracer()
    trace.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
                   ["leaf", 2.0, 3.0, 1]]
    own = trace.self_times()
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(3.0)
    assert own["leaf"] == pytest.approx(1.0)


def test_tracer_installs_and_removes_wrappers():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from subord import comparison, fourier_core

    original = fourier_core.forward_ft
    trace = tracer.Tracer()
    trace.install()
    try:
        assert comparison.forward_ft is fourier_core.forward_ft is not original
        grid = fourier_core.GridSpec(8.0, 64)
        f = fourier_core.SampledFunction(grid, np.exp(-grid.nodes() ** 2), fourier_core.SPACE)
        fourier_core.inverse_ft(comparison.forward_ft(f))
    finally:
        trace.remove()
    assert comparison.forward_ft is original and fourier_core.forward_ft is original
    metrics = trace.layer_metrics()
    assert metrics["fourier_core.forward_ft.calls"][0] == 1
    assert metrics["fourier_core.inverse_ft.points"][0] == 64
    assert metrics["fourier_core.SampledFunction.constructions"][0] == 3
