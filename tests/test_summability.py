"""Generalized Gauss-Weierstrass means: kernels, comparison constants, verification."""

import math

import numpy as np
import pytest

from subord.errors import InvalidParameterError, KernelUnresolvableError
from subord.fourier_core import SPACE, GridSpec, SampledFunction
from subord.summability import (
    gw_constant,
    gw_error,
    gw_mean,
    gw_verify,
)
from subord.testkit import gaussian, materialize

GRID = GridSpec(40.0, 16384)


def mean_kernel(alpha, eps):
    """The kernel of the mean: its action on a unit impulse at 0, whose transform is 1."""
    impulse = np.zeros(GRID.size)
    impulse[GRID.size // 2] = 1.0 / GRID.dx
    return gw_mean(SampledFunction(GRID, impulse, SPACE), alpha, eps)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_gauss_kernel_closed_form():
    """alpha=2, eps=1: kernel is e^{-x^2/4} / (2 sqrt(pi))."""
    k = mean_kernel(2.0, 1.0)
    x = GRID.nodes()
    exact = np.exp(-x * x / 4.0) / (2.0 * math.sqrt(math.pi))
    assert np.abs(k.values - exact).max() <= 1e-12


def test_poisson_kernel_matches_periodization():
    """alpha=1, eps=1 is the Cauchy kernel.  The sampled kernel is the
    periodization over the 2L window, so the oracle must be periodized too:

        sum_k (1/pi) / (1 + (x + 2Lk)^2)

    The unperiodized kernel alone differs at the 3e-4 level near the
    boundary, which is exactly the image mass the comparison ignores."""
    k = mean_kernel(1.0, 1.0)
    x = GRID.nodes()
    images = np.arange(-200, 201)
    periodized = ((1.0 / math.pi) /
                  (1.0 + (x[None, :] + 2.0 * GRID.half_length * images[:, None]) ** 2)
                  ).sum(axis=0)
    assert np.abs(k.values - periodized).max() <= 1e-5
    plain = (1.0 / math.pi) / (1.0 + x * x)
    assert np.abs(k.values - plain).max() > 1e-4


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_kernel_mass_is_exactly_one(alpha):
    # discrete mass equals the symbol at y=0 by the summation formula
    k = mean_kernel(alpha, 1.0)
    mass = GRID.dx * k.values.sum()
    assert abs(mass - 1.0) <= 1e-14


def test_kernel_rejects_unresolvable_scale():
    f = materialize(gaussian(1.0), GRID)
    with pytest.raises(KernelUnresolvableError):
        gw_mean(f, 2.0, 0.001)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
def test_kernel_rejects_bad_exponent(bad):
    f = materialize(gaussian(1.0), GRID)
    with pytest.raises(InvalidParameterError):
        gw_mean(f, bad, 1.0)


def test_high_order_kernel_is_legal():
    # orders above 2 are part of the family (the (2, 4) comparison uses one);
    # the kernel is no longer nonnegative but still has unit mass
    k = mean_kernel(4.0, 1.0)
    assert abs(GRID.dx * k.values.sum() - 1.0) <= 1e-14
    assert k.values.real.min() < 0.0


# ---------------------------------------------------------------------------
# means
# ---------------------------------------------------------------------------

def test_gauss_mean_of_gaussian_closed_form():
    """M_eps e^{-x^2} = e^{-x^2/(1+4 eps^2)} / sqrt(1+4 eps^2) for alpha=2."""
    f = materialize(gaussian(1.0), GRID)
    x = GRID.nodes()
    for eps in (1.0, 0.5, 0.25):
        got = gw_mean(f, 2.0, eps)
        s = 1.0 + 4.0 * eps * eps
        exact = np.exp(-x * x / s) / math.sqrt(s)
        assert np.abs(got.values - exact).max() <= 1e-12


def test_error_decreases_along_eps():
    f = materialize(gaussian(1.0), GRID)
    for alpha in (1.0, 2.0):
        errs = [gw_error(f, alpha, eps, 2.0) for eps in (1.0, 0.5, 0.1, 0.05)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_error_frozen_values():
    f = materialize(gaussian(1.0), GRID)
    assert gw_error(f, 1.0, 0.1, 2.0) == pytest.approx(0.10360491144579123, rel=1e-9)
    assert gw_error(f, 2.0, 0.1, 2.0) == pytest.approx(0.018919134641167703, rel=1e-9)


# ---------------------------------------------------------------------------
# comparison constants and verification
# ---------------------------------------------------------------------------

def test_constant_requires_ordered_exponents():
    with pytest.raises(InvalidParameterError):
        gw_constant(2.0, 1.0, GRID)
    with pytest.raises(InvalidParameterError):
        gw_constant(1.0, 1.0, GRID)


@pytest.mark.parametrize("alpha,beta,expected", [
    (0.5, 1.0, 2.065179126958596),
    (1.0, 2.0, 2.0004268003491954),
    (1.0, 3.0, 2.0826034792951997),
    (2.0, 4.0, 2.141414227251839),
])
def test_constant_frozen_desk_values(alpha, beta, expected):
    est = gw_constant(alpha, beta, GRID)
    assert est.converged
    assert est.total == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("alpha,beta", [
    (0.5, 1.0),
    (1.0, 2.0),
    (1.0, 3.0),
    (2.0, 4.0),
    pytest.param(1.0, 1.5, marks=pytest.mark.xfail(strict=True, reason=(
        "reads 1.94763, flagged converged: the C/x^2 tail model misses the "
        "|x|^(-3/2) tail of a |y|^(1/2) cusp (ROADMAP items 1 and 3)"))),
])
def test_constant_is_at_least_the_floor(alpha, beta):
    """Every ratio symbol tends to 0 at y = 0 and to 1 at infinity, so its measure
    norm is at least |c| + |psi(0) - c| = 1 + 1 = 2, whatever the pair."""
    assert gw_constant(alpha, beta, GRID).total >= 2.0


def test_verify_full_default_run():
    report = gw_verify(1.0, 2.0, GRID)
    assert report.passed
    assert len(report.cases) == 54  # 6 functions x 3 eps x 3 p
    assert report.constant == pytest.approx(2.0004268003491954, rel=1e-9)
    assert report.worst_ratio == pytest.approx(1.1516091379637634, rel=1e-6)
    # every case individually satisfies lhs <= C * rhs within tolerance
    for case in report.cases:
        assert case.lhs <= report.constant * case.rhs * (1.0 + 1e-2)

