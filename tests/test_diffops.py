"""Polynomial symbols: decomposition, spectral application, mixed-norm bounds."""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subord import diffops
from subord.diffops import (
    _operator_factor,
    apply_diffop,
    construct_decomposition,
    decomposition_hypotheses,
    diffop_subordination,
    partner_exponent,
    poly_label,
    real_roots,
    verify_identity,
)
from subord.errors import (
    BandwidthExceededError,
    HypothesesViolatedError,
    InadmissibleExponentsError,
    InvalidParameterError,
    MultiplicityObstructionError,
    NeighborhoodDegenerateError,
    VerificationFailureError,
)
from subord.fourier_core import (
    FREQUENCY,
    GridSpec,
    SampledFunction,
    _FFTOrder,
    forward_ft,
    inverse_ft,
)
from subord.measures import wiener_norm
from subord.testkit import bspline, bump, gaussian, materialize, modulated_gaussian

GRID = GridSpec(40.0, 16384)
FINE = GridSpec(40.0, 2 ** 18)


# ---------------------------------------------------------------------------
# roots and labels
# ---------------------------------------------------------------------------

def test_real_roots():
    assert real_roots([0, 0, 1]) == pytest.approx([0.0])         # double root clusters
    assert real_roots([-1, 0, 1]) == pytest.approx([-1.0, 1.0])
    assert list(real_roots([1, 0, 1])) == []                     # complex pair
    assert list(real_roots([5.0])) == []
    assert real_roots([-1, 3, -3, 1]) == pytest.approx([1.0])    # triple root
    assert real_roots([504, -492, -10, 115, -15, -7, 1]) == pytest.approx(  # (y-2)^3 (y+3)^2 (y-7)
        [-3.0, 2.0, 7.0])
    # close simple roots stay apart at any degree; a pair near the axis is not a real root
    poly = np.polynomial.polynomial
    degree8 = poly.polymul(poly.polyfromroots([10, 10.15]), [1, 0, 0, 0, 0, 0, 1])
    assert real_roots(degree8) == pytest.approx([10.0, 10.15])
    degree4 = poly.polymul(poly.polyfromroots([1, 1.0005]), [1, 0, 1])
    assert real_roots(degree4) == pytest.approx([1.0, 1.0005])
    assert real_roots([0, 0, 0, 1.000001, -2, 1]) == pytest.approx([0.0])  # ((y-1)^2+1e-6) y^3
    # a close root widens the spread of the copies of a multiple root: they stay one root
    assert real_roots(poly.polyfromroots([1, 1, 1.5, 1.5, 1.5, 1.6])) == pytest.approx(
        [1.0, 1.5, 1.6])
    assert real_roots(poly.polyfromroots([1, 1, 1.001])) == pytest.approx([1.0, 1.001])


def _clustered_roots_loop(coeffs):
    # the per-root clustering loop real_roots replaced, kept as the reference
    roots = np.polynomial.polynomial.polyroots(np.asarray(coeffs, dtype=complex))
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-7 * (1.0 + abs(r.real)))
    clusters = []
    for r in real:
        if clusters and r - clusters[-1][-1] <= 1e-7 * (1.0 + abs(r)):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    return [float(np.mean(group)) for group in clusters]


_ROOTS = st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5]), min_size=1, max_size=5)


def _with_roots(roots, complex_pair):
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    if complex_pair:
        coeffs = np.polynomial.polynomial.polymul(coeffs, [1, 0, 1])
    return coeffs


@settings(max_examples=100, deadline=None)
@given(roots=_ROOTS.filter(lambda roots: max(Counter(roots).values()) <= 2),
       complex_pair=st.booleans())
def test_real_roots_cluster_like_the_loop(roots, complex_pair):
    # the loop finds roots of multiplicity up to two
    coeffs = _with_roots(roots, complex_pair)
    assert real_roots(coeffs).tolist() == _clustered_roots_loop(coeffs)


@settings(max_examples=100, deadline=None)
@given(roots=_ROOTS, complex_pair=st.booleans())
def test_real_roots_returns_each_root_once(roots, complex_pair):
    """Every root once, whatever its multiplicity up to five.

    The mean of the copies of a multiple root cancels their eps^(1/m)
    spread: over every input this strategy can draw the largest error is
    7.3e-15 relative to 1 + |r|, so 1e-12 is a margin of over 100 and still
    a million times finer than the 7e-6 of one copy of a triple root.
    """
    expected = sorted(set(roots))
    got = real_roots(_with_roots(roots, complex_pair))
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected)))


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5]), min_size=0, max_size=4),
       close=st.sampled_from([1.6, 0.51, -1.9]), copies=st.integers(1, 3),
       complex_pair=st.booleans())
def test_real_roots_returns_each_root_once_beside_a_close_root(roots, close, copies,
                                                               complex_pair):
    """Every root once, of up to five, when another root lies 0.01 or 0.1 away.

    The neighbour widens the spread of a multiple root's copies beyond eps^(1/m).
    Each root is within 1e-6 relative to 1 + |r|: over every input this strategy
    can draw the largest error is 5.4e-8, for (y-0.5)^3 (y-0.51)^2 (y^2+1).  At six
    roots a real polynomial, rooted in complex arithmetic, can leave a cluster's
    mean off the axis (see test_real_roots_known_misses).
    """
    roots = roots[:5 - copies] + [close] * copies
    expected = sorted(set(roots))
    got = real_roots(_with_roots(roots, complex_pair))
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= 1e-6 * (1.0 + np.abs(expected)))


def _known_miss(raises, reason):
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


@pytest.mark.parametrize("roots", [
    pytest.param([1, 1, 1, 1.001], marks=_known_miss(
        VerificationFailureError, "the copies of the triple root average 7e-7 off the axis")),
    pytest.param([0.5, 0.5, 0.5, 0.51, 0.51, 0.51], marks=_known_miss(
        VerificationFailureError, "the copies of a triple root average 2e-6 off the axis")),
    pytest.param([1.5, 1.5, 1.5, 1.501], marks=_known_miss(
        AssertionError, "the four roots pass for one root at 1.50025")),
])
def test_real_roots_known_misses(roots):
    """Roots that real_roots does not yet find, each a strict xfail, so a fix shows.

    Rooted in complex arithmetic, a real polynomial loses conjugate symmetry: the
    copies of a multiple root beside a close root can average off the axis, and
    real_roots then raises rather than drop a root.  A simple root 1e-3 beside a
    triple one is within the rounding spread of a quadruple root and is merged.
    """
    expected = sorted(set(roots))
    got = real_roots(np.polynomial.polynomial.polyfromroots(roots))
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= 1e-6 * (1.0 + np.abs(expected)))


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.sampled_from([-2.0, 1.0, 1.0005, 10.0, 10.15]),
                      min_size=1, max_size=5, unique=True),
       complex_factor=st.sampled_from([[1], [1, 0, 1], [1, 0, 0, 0, 0, 0, 1]]))
def test_real_roots_keeps_close_simple_roots_apart(roots, complex_factor):
    """Simple roots 5e-4 or 0.15 apart stay apart, at degrees up to eleven.

    The loop agrees bit for bit.  Each root is within 1e-10 relative to
    1 + |r|: over every input this strategy can draw the largest error is
    7.2e-12, at the roots near 10 with the sixth-degree factor.
    """
    expected = np.sort(roots)
    coeffs = np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polyfromroots(roots), complex_factor)
    got = real_roots(coeffs)
    assert got.tolist() == _clustered_roots_loop(coeffs)
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= 1e-10 * (1.0 + np.abs(expected)))


def test_poly_label():
    assert poly_label([0, 1]) == "y"
    assert poly_label([-1, 0, 1]) == "y^2-1"
    assert poly_label([1]) == "1"


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

def test_hypotheses_accept_fixture_triples():
    triples = [
        ([0, 1], [0, 0, 1], [1]),
        ([1, 0, 1], [1, 0, 1], [1]),
        ([0, 1], [0, 0, 0, 1], [0, 1]),
        ([1, 0, -2, 0, 1], [1, 0, -2, 0, 1], [-1, 0, 1]),
    ]
    for target, op1, op2 in triples:
        violations = decomposition_hypotheses(target, op1, op2)
        assert not violations, violations


def test_hypotheses_reject_uncovered_common_zero():
    violations = decomposition_hypotheses([1], [0, 1], [0, 1])
    assert violations
    assert any("y=0" in v.detail for v in violations)


def test_hypotheses_reject_degree_excess():
    violations = decomposition_hypotheses([0, 0, 0, 1], [0, 0, 1], [1])
    assert violations
    assert any(v.code == "degree" for v in violations)


def test_hypotheses_refuse_values_beyond_a_double():
    with pytest.raises(InvalidParameterError, match="overflow a double"):
        decomposition_hypotheses([1], [0, 0, 1e308], [1])


def test_construct_raises_named_violation():
    with pytest.raises(HypothesesViolatedError) as err:
        construct_decomposition([1], [0, 1], [0, 1], GRID)
    assert "y=0" in str(err.value)


# ---------------------------------------------------------------------------
# decomposition construction
# ---------------------------------------------------------------------------

def test_decomposition_of_first_order_under_second():
    """y = h1 y^2 + h2 with h1 = 1/y outside [-1, 1]: the classic
    intermediate-derivative splitting."""
    d = construct_decomposition([0, 1], [0, 0, 1], [1], GRID)
    assert d.neighborhoods == ((0.0, 1.0),)
    assert d.identity_residual <= 1e-10
    # sup of h2 = y - y^2 * interp(1/y) on [-1, 1]: max of y(1 - y^2)-ish
    assert d.cofactor2_sup == pytest.approx(0.3848981538020821, abs=1e-5)
    assert d.cofactor1_at_infinity == 0.0
    # h1 matches 1/y away from the neighborhood
    y = np.array([2.0, -3.0, 10.0])
    assert np.abs(d.cofactor1(y) - 1.0 / y).max() <= 1e-12


def test_decomposition_identical_symbols():
    d = construct_decomposition([1, 0, 1], [1, 0, 1], [1], GRID)
    assert d.neighborhoods == ()
    assert d.cofactor1_at_infinity == 1.0
    assert d.cofactor2_sup == 0.0
    y = GRID.dual_nodes()[::512]
    assert np.abs(d.cofactor1(y) - 1.0).max() <= 1e-12


def test_decomposition_odd_triple_division_guard():
    """(y, y^3, y): h2 = (y - h1 y^3)/y needs the removable-singularity
    guard at the origin, where both probes stay regular."""
    d = construct_decomposition([0, 1], [0, 0, 0, 1], [0, 1], GRID)
    assert d.cofactor2_sup == pytest.approx(1.0, abs=1e-9)
    assert d.cofactor2(np.array([0.0]))[0].real == pytest.approx(1.0, abs=1e-9)
    assert d.identity_residual <= 1e-10


@pytest.mark.parametrize("triple", [
    ([1, 1], [-1, 0, 1], [1, 1]),
    ([-1, 0, 1], [1, 0, -2, 0, 1], [-1, 0, 1]),
])
def test_cofactor2_at_a_zero_of_op2_is_the_mean_of_its_probes(triple):
    """Where op2 vanishes, h2 is the mean of its values at y -+ 1e-6 (1 + |y|),
    bit for bit as the per-point loop that computed it before."""
    d = construct_decomposition(*triple, GRID)
    for r in real_roots(triple[2]):
        step = 1e-6 * (1.0 + abs(r))
        left, right = d.cofactor2(np.array([r - step, r + step]))
        assert d.cofactor2(np.array([r]))[0] == np.mean([left, right])


def test_decomposition_touching_neighborhoods():
    """y^2-1 under (y^2-1)^2: neighborhoods of -1 and +1 touch at 0."""
    d = construct_decomposition([-1, 0, 1], [1, 0, -2, 0, 1], [-1, 0, 1], GRID)
    assert [c for c, _ in d.neighborhoods] == pytest.approx([-1.0, 1.0])
    assert [w for _, w in d.neighborhoods] == pytest.approx([1.0, 1.0])
    sup_q = float(np.abs(np.polyval([1, 0, -1], GRID.dual_nodes())).max())
    assert d.identity_residual <= 1e-10 * (1.0 + sup_q)
    assert d.cofactor2_sup == pytest.approx(1.09404, abs=1e-4)


def test_decomposition_around_a_triple_root():
    """1 / (y-1)^3 is unbounded at 1, so that root needs a neighborhood."""
    d = construct_decomposition([1], [-1, 3, -3, 1], [1], GRID)
    assert [c for c, _ in d.neighborhoods] == pytest.approx([1.0])
    assert [w for _, w in d.neighborhoods] == [1.0]
    assert d.cofactor1_lipschitz < 10.0
    assert d.identity_residual <= 1e-10


def test_degenerate_neighborhood_rejected():
    # roots at +-1e-3 are separated but far below grid resolution
    with pytest.raises(NeighborhoodDegenerateError):
        construct_decomposition([-1e-6, 0, 1], [-1e-6, 0, 1], [1], GRID)


def test_multiplicity_obstruction_detected():
    # Q = y simple zero, P2 = y^2 double zero: h2 ~ 1/y near 0
    with pytest.raises(MultiplicityObstructionError):
        construct_decomposition([0, 1], [0, 0, 1], [0, 0, 1], GRID)


# ---------------------------------------------------------------------------
# spectral application
# ---------------------------------------------------------------------------

def test_apply_diffop_first_derivative():
    # symbol y acts as -i d/dx
    f = materialize(gaussian(1.0), GRID)
    x = GRID.nodes()
    out = apply_diffop([0, 1], f)
    exact = -1j * (-2.0 * x * np.exp(-x * x))
    assert np.abs(out.values - exact).max() <= 1e-12


def test_apply_diffop_second_derivative():
    # symbol y^2 acts as -d^2/dx^2
    f = materialize(gaussian(1.0), GRID)
    x = GRID.nodes()
    out = apply_diffop([0, 0, 1], f)
    exact = -(4.0 * x * x - 2.0) * np.exp(-x * x)
    assert np.abs(out.values - exact).max() <= 1e-10


def test_apply_diffop_bandwidth_gate():
    """The spline transform decays like |y|^-4, so under y^2 the truncated
    spectral tail is ~2e-2 of the peak at this resolution: rejected.  At
    16x finer dual resolution the tail is resolved and the gate passes."""
    f = materialize(bspline(4), GRID)
    with pytest.raises(BandwidthExceededError):
        apply_diffop([0, 0, 1], f)
    apply_diffop([0, 0, 1], materialize(bspline(4), FINE))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def test_verify_identity_on_functions():
    d = construct_decomposition([0, 1], [0, 0, 1], [1], FINE)
    report = verify_identity(d)
    assert report.passed
    assert report.worst_ratio <= 1e-6
    assert len(report.cases) == 5  # diffop_suite(2)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_partner_exponent_values():
    assert partner_exponent(1.0, 1.0) == 1.0
    assert partner_exponent(2.0, 2.0) == 1.0
    assert partner_exponent(2.0, 1.0) == 2.0
    assert partner_exponent(math.inf, 1.0) == math.inf
    assert partner_exponent(4.0, 2.0) == pytest.approx(4.0 / 3.0)


def test_partner_exponent_rejects_decreasing_pair():
    with pytest.raises(InadmissibleExponentsError):
        partner_exponent(1.0, 2.0)


def test_subordination_rejects_inadmissible_exponents():
    with pytest.raises(InadmissibleExponentsError):
        diffop_subordination(construct_decomposition([0, 1], [0, 0, 1], [1], GRID),
                             q=2.0, p1=4.0)
    # equal degrees force p1 = q
    with pytest.raises(InadmissibleExponentsError):
        diffop_subordination(construct_decomposition([0, 0, 1], [0, 0, 1], [1], GRID),
                             q=2.0, p1=1.0)


# ---------------------------------------------------------------------------
# the subordination inequality
# ---------------------------------------------------------------------------

def test_subordination_first_order_under_second():
    sub = diffop_subordination(construct_decomposition([0, 1], [0, 0, 1], [1], FINE), q=2.0)
    assert sub.passed
    assert sub.factor1 == pytest.approx(1.5894533544400302, rel=1e-6)
    assert sub.factor2 == pytest.approx(0.6152227976225431, rel=1e-6)
    assert sub.constant == pytest.approx(1.5894533544400302, rel=1e-6)
    assert sub.worst_ratio == pytest.approx(0.36602540378, rel=1e-6)
    # degenerate right-hand sides are dropped, so every recorded case is real
    for case in sub.cases:
        assert case.lhs <= sub.constant * case.rhs * (1.0 + 1e-2)


def test_subordination_reuses_decomposition(monkeypatch):
    d = construct_decomposition([0, 1], [0, 0, 1], [1], FINE)
    small = [gaussian(1.0), bump(2.0), modulated_gaussian(1.0, 3.0)]

    def refuse(*args, **kwargs):
        raise AssertionError("diffop_subordination built a decomposition of its own")

    monkeypatch.setattr(diffops, "construct_decomposition", refuse)
    sub = diffop_subordination(d, q=2.0, suite=small)
    assert sub.passed


@pytest.mark.parametrize("q, p", [
    pytest.param(2.0, 1.0, id="2.0"),
    pytest.param(math.inf, 1.0, id="inf"),
    pytest.param(1.0, 1.0, id="p=q=1.0"),
    pytest.param(2.0, 2.0, id="p=q=2.0"),
    pytest.param(math.inf, math.inf, id="p=q=inf"),
])
def test_mixed_exponent_factor_inverts_once(q, p, monkeypatch):
    """Every factor is one pass: one in-place inversion of the cofactor's samples on
    grid.refined(oversample).  For p < q the window part of it gives the norm;
    for p == q the factor is wiener_norm's total, bit for bit, without the
    doubled-window pass."""
    d = construct_decomposition([0, 1], [0, 0, 1], [1], GRID)
    fine = GRID.refined(4)
    if p == q:
        cases = [(d.cofactor1, d.cofactor1_at_infinity), (d.cofactor2, 0.0)]
        references = [wiener_norm(symbol, GRID, oversample=4, const_at_infinity=c).total
                      for symbol, c in cases]
    else:
        cases = [(d.cofactor2, 0.0)]
        g = inverse_ft(SampledFunction(fine, d.cofactor2(fine.dual_nodes()), FREQUENCY))
        absg = np.abs(g.values[np.abs(fine.nodes()) < GRID.half_length])
        s = partner_exponent(q, p)
        references = [float(absg.max() if math.isinf(s)
                            else (fine.dx * np.sum(absg**s)) ** (1.0 / s))]
    calls = []
    inverse_window = _FFTOrder.inverse_window

    def counted(self, values, n):
        calls.append(self.grid)
        return inverse_window(self, values, n)

    monkeypatch.setattr(_FFTOrder, "inverse_window", counted)
    for (symbol, c), reference in zip(cases, references):
        calls.clear()
        factor = _operator_factor(symbol, GRID, q, p, 4, c)
        assert calls == [fine]
        assert factor == reference


def test_subordination_transforms_each_function_once(monkeypatch):
    """The three operators share one forward transform per suite member."""
    calls = []

    def counted(f):
        calls.append(f)
        return forward_ft(f)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("subord"):
            if getattr(module, "forward_ft", None) is forward_ft:
                monkeypatch.setattr(module, "forward_ft", counted)
    small = [gaussian(1.0), bump(2.0), modulated_gaussian(1.0, 3.0)]
    sub = diffop_subordination(construct_decomposition([0, 1], [0, 0, 1], [1], GRID),
                               q=2.0, suite=small)
    assert sub.passed
    assert len(calls) == len(small)
