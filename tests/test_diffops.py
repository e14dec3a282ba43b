"""Polynomial symbols: decomposition, spectral application, mixed-norm bounds."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from subord import diffops, measures
from subord.diffops import (
    _apply_poly,
    _as_poly,
    _local_grid,
    _poly_values,
    apply_diffop,
    construct_decomposition,
    decomposition_hypotheses,
    diffop_subordination,
    partner_exponent,
    poly_label,
    real_roots,
)
from subord.errors import (
    BandwidthExceededError,
    HypothesesViolatedError,
    InadmissibleExponentsError,
    InvalidParameterError,
    NeighborhoodDegenerateError,
)
from subord.fourier_core import (
    FREQUENCY,
    GridSpec,
    SampledFunction,
    forward_ft,
)
from subord.measures import factor_norm, wiener_norm
from subord.testkit import bspline, bump, gaussian, materialize, modulated_gaussian

GRID = GridSpec(40.0, 16384)
FINE = GridSpec(40.0, 2 ** 18)


# ---------------------------------------------------------------------------
# roots and labels
# ---------------------------------------------------------------------------

def _exact(roots):
    # the polynomial with these roots over Q, each root read from its decimal text
    return np.polynomial.polynomial.polyfromroots(
        np.array([Fraction(str(r)) for r in roots], dtype=object))


def test_real_roots():
    assert real_roots([0, 0, 1]).tolist() == [0.0]                   # double root
    assert real_roots([-1, 0, 1]).tolist() == [-1.0, 1.0]
    assert list(real_roots([1, 0, 1])) == []                         # complex pair
    assert list(real_roots([5.0])) == []
    assert real_roots([-1, 3, -3, 1]).tolist() == [1.0]              # triple root
    assert real_roots([504, -492, -10, 115, -15, -7, 1]).tolist() == [  # (y-2)^3 (y+3)^2 (y-7)
        -3.0, 2.0, 7.0]
    # a float is its shortest decimal, so 0.01 - 0.2 y + y^2 = (y - 1/10)^2; a Fraction is exact
    assert real_roots([0.01, -0.2, 1]).tolist() == [0.1]
    assert real_roots([Fraction(-1, 3), 1]).tolist() == [1 / 3]
    assert real_roots([1j, 1]).tolist() == []                        # the root -1j
    assert real_roots([-1j, 1j]).tolist() == [1.0]                   # i (y - 1)
    # close simple roots stay apart at any degree; a pair near the axis is not a real root
    poly = np.polynomial.polynomial
    degree8 = poly.polymul(_exact([10, 10.15]), [1, 0, 0, 0, 0, 0, 1])
    assert real_roots(degree8).tolist() == [10.0, 10.15]
    degree4 = poly.polymul(_exact([1, 1.0005]), [1, 0, 1])
    assert real_roots(degree4).tolist() == [1.0, 1.0005]
    assert real_roots([0, 0, 0, 1.000001, -2, 1]).tolist() == [0.0]  # ((y-1)^2+1e-6) y^3
    # a close root beside a multiple root stays a root of its own
    assert real_roots(_exact([1, 1, 1.5, 1.5, 1.5, 1.6])).tolist() == [1.0, 1.5, 1.6]
    assert real_roots(_exact([1, 1, 1.001])).tolist() == [1.0, 1.001]


_ROOTS = st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5]), min_size=1, max_size=5)


def _with_roots(roots, complex_pair):
    coeffs = _exact(roots)
    if complex_pair:
        coeffs = np.polynomial.polynomial.polymul(coeffs, [1, 0, 1])
    return coeffs


@settings(max_examples=100, deadline=None)
@given(roots=_ROOTS, complex_pair=st.booleans())
def test_real_roots_returns_each_root_once(roots, complex_pair):
    """Every root once, bit for bit, whatever its multiplicity up to five."""
    assert real_roots(_with_roots(roots, complex_pair)).tolist() == sorted(set(roots))


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5]), min_size=0, max_size=4),
       close=st.sampled_from([1.6, 0.51, -1.9]), copies=st.integers(1, 3),
       complex_pair=st.booleans())
def test_real_roots_returns_each_root_once_beside_a_close_root(roots, close, copies,
                                                               complex_pair):
    """Every root once, bit for bit, of up to five, when another root lies 0.01 or 0.1 away."""
    roots = roots[:5 - copies] + [close] * copies
    assert real_roots(_with_roots(roots, complex_pair)).tolist() == sorted(set(roots))


@pytest.mark.parametrize("roots", [
    [1, 1, 1, 1.001],
    [0.5, 0.5, 0.5, 0.51, 0.51, 0.51],
    [1.5, 1.5, 1.5, 1.501],
])
def test_real_roots_parts_a_multiple_root_from_a_close_one(roots):
    """A simple or triple root 1e-3 or 1e-2 beside a triple one is a root of its own."""
    assert real_roots(_exact(roots)).tolist() == sorted(set(roots))


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.sampled_from([-2.0, 1.0, 1.0005, 10.0, 10.15]),
                      min_size=1, max_size=5, unique=True),
       complex_factor=st.sampled_from([[1], [1, 0, 1], [1, 0, 0, 0, 0, 0, 1]]))
def test_real_roots_keeps_close_simple_roots_apart(roots, complex_factor):
    """Simple roots 5e-4 or 0.15 apart stay apart, at degrees up to eleven.

    The coefficients are computed in floats, so their polynomial has roots
    near, not at, the drawn ones.  Each root is within 1e-10 relative to
    1 + |r|.
    """
    expected = np.sort(roots)
    coeffs = np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polyfromroots(roots), complex_factor)
    got = real_roots(coeffs)
    assert len(got) == len(expected)
    assert np.all(np.abs(got - expected) <= 1e-10 * (1.0 + np.abs(expected)))


def test_real_roots_beyond_the_doubles_are_refused():
    # the root -1e608 has no double; the Cauchy bound, which the search starts from, says so
    with pytest.raises(InvalidParameterError, match="overflow a double"):
        real_roots([1e308, 1e-300])


def _exact_value(coeffs, y) -> Fraction:
    return sum(Fraction(repr(float(c))) * Fraction(y) ** k for k, c in enumerate(coeffs))


@settings(max_examples=50, deadline=None)
@given(roots=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=6, unique=True),
       complex_pair=st.booleans())
def test_real_roots_of_float_coefficients_are_correctly_rounded(roots, complex_pair):
    """Each root is the double nearest to a root of the exact polynomial of the
    coefficients' shortest decimals: that polynomial vanishes at it or changes
    sign between the midpoints to its neighbouring doubles."""
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    if complex_pair:
        coeffs = np.polynomial.polynomial.polymul(coeffs, [1, 0, 1])
    for r in real_roots(coeffs):
        below, above = ((Fraction(r) + Fraction(np.nextafter(r, side))) / 2
                        for side in (-np.inf, np.inf))
        assert (_exact_value(coeffs, r) == 0
                or _exact_value(coeffs, below) * _exact_value(coeffs, above) <= 0)


def test_poly_label():
    assert poly_label([0, 1]) == "y"
    assert poly_label([-1, 0, 1]) == "y^2-1"
    assert poly_label([1]) == "1"
    assert poly_label([1j, 1]) == "y+(0+1j)"
    assert poly_label([0, 2 - 0.5j, 0, -1]) == "-y^3+(2-0.5j)y"
    assert poly_label([0, complex(0.0, -1.0)]) == "(0-1j)y"
    assert poly_label([0, -1j]) == "(0-1j)y"  # the real part of -1j is -0.0


@pytest.mark.parametrize("coeffs", [[], [[1, 2], [3, 4]], [[]]], ids=["empty", "2-d", "2-d empty"])
def test_coefficients_must_be_a_nonempty_1d_sequence(coeffs):
    with pytest.raises(InvalidParameterError, match="nonempty 1-d sequence"):
        _as_poly(coeffs)


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
    """The hypotheses are decided over Q and evaluate no float, so 1e308 y^2 passes
    them; the construction evaluates the symbols on the grid and refuses it."""
    assert decomposition_hypotheses([1], [0, 0, 1e308], [1]) == ()
    with pytest.raises(InvalidParameterError, match="overflow a double"):
        construct_decomposition([1], [0, 0, 1e308], [1], GRID)


def test_an_overflowing_interpolant_slope_is_refused():
    # 1e308 / (2 y) is -+1e308 at the neighborhood's edges y = -+1/2: the difference overflows
    with pytest.raises(InvalidParameterError, match="overflow a double"):
        construct_decomposition([1e308], [0, 2], [1, 1], GridSpec(40.0, 16))


def test_a_cofactor_refuses_an_overflow_beyond_the_callers_dual_window():
    # 1e308 y^4 stays a double on the dual window |y| < 0.63 of (40, 16), not on the twice
    # wider window of (40, 32), where the factor's finer pass samples the cofactor
    d = construct_decomposition([1], [1, 0, 0, 0, 1e308], [1], GridSpec(40.0, 16))
    with pytest.raises(InvalidParameterError, match="overflow a double"):
        diffop_subordination(d, 2.0)


def test_hypotheses_share_only_exactly_common_roots():
    # y - 1 and y - 1.0000001 have no common root, so the target need not vanish anywhere
    assert decomposition_hypotheses([1], [-1, 1], [-1.0000001, 1]) == ()


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
    assert d.cofactor1.const_at_infinity == 0.0
    assert d.cofactor2.const_at_infinity == 0.0
    # h1 matches 1/y away from the neighborhood
    y = np.array([2.0, -3.0, 10.0])
    assert np.abs(d.cofactor1(y) - 1.0 / y).max() <= 1e-12


def test_decomposition_identical_symbols():
    d = construct_decomposition([1, 0, 1], [1, 0, 1], [1], GRID)
    assert d.neighborhoods == ()
    assert d.cofactor1.const_at_infinity == 1.0
    assert d.cofactor2_sup == 0.0
    y = GRID.dual_nodes()[::512]
    assert np.abs(d.cofactor1(y) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("polys", [([0, 1], [-1, 0, 1], [1]), ([1, 1], [-1, 0, 1], [1, 1])])
def test_the_identity_check_in_blocks_reads_the_whole_grids_maxima(polys):
    # at 2^16 dual nodes, four blocks of the check: the residual and the sup of |h2| are those
    # of one call on the whole dual grid and one on each pole's local grid, bit for bit
    grid = GridSpec(40.0, 2 ** 16)
    d = construct_decomposition(*polys, grid)
    q, p1, p2 = (np.asarray(p, dtype=float) for p in polys)
    residual = sup_h2 = 0.0
    for pts in [grid.dual_nodes()] + [diffops._local_grid(c, r, grid.dy / 16.0)
                                      for c, r in d.neighborhoods]:
        v1, v2 = d.cofactor1(pts), d.cofactor2(pts)
        rebuilt = v1 * npoly.polyval(pts, p1) + v2 * npoly.polyval(pts, p2)
        residual = max(residual, float(np.abs(npoly.polyval(pts, q) - rebuilt).max()))
        sup_h2 = max(sup_h2, float(np.abs(v2).max()))
    assert d.neighborhoods
    assert (d.identity_residual, d.cofactor2_sup) == (residual, sup_h2)


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
    assert d.identity_residual <= 1e-10


def test_degenerate_neighborhood_rejected():
    # poles of 1 / (y^2 - 1e-6) at +-1e-3 are separated but far below grid resolution
    with pytest.raises(NeighborhoodDegenerateError):
        construct_decomposition([1], [-1e-6, 0, 1], [1], GRID)


def test_multiplicity_obstruction_detected():
    # Q = y vanishes once at 0, P1 = P2 = y^2 twice: h2 ~ 1/y near 0, no bounded split
    violations = decomposition_hypotheses([0, 1], [0, 0, 1], [0, 0, 1])
    assert [v.code for v in violations] == ["common_root"]
    assert "y=0," in violations[0].detail
    with pytest.raises(HypothesesViolatedError) as err:
        construct_decomposition([0, 1], [0, 0, 1], [0, 0, 1], GRID)
    assert err.value.violations == violations


def test_a_root_of_higher_multiplicity_in_op2_can_still_cancel():
    """Q = P1 = y^2, P2 = y^3: h1 = 1 everywhere and h2 = 0, a bounded decomposition,
    although the multiplicity of 0 in P2 exceeds that in Q.  The rule is
    m_Q(r) >= min(m_P1(r), m_P2(r)) at each common real root r, here 2 >= min(2, 3)."""
    assert decomposition_hypotheses([0, 0, 1], [0, 0, 1], [0, 0, 0, 1]) == ()
    assert construct_decomposition([0, 0, 1], [0, 0, 1], [0, 0, 0, 1], GRID).cofactor2_sup == 0.0


def test_a_root_the_target_cancels_needs_no_neighborhood():
    """(y(y+2), y(y-1), y^2): Q cancels the root 0 of P1, so only 1 is a pole of Q/P1.
    Its neighborhood keeps half the distance to the cancelled root."""
    d = construct_decomposition([0, 2, 1], [0, -1, 1], [0, 0, 1], GRID)
    assert d.neighborhoods == ((1.0, 0.5),)
    y = np.array([-3.0, 0.0, 0.25])
    assert np.abs(d.cofactor1(y) - (y + 2.0) / (y - 1.0)).max() <= 1e-9  # a probe mean at 0


def test_a_double_root_the_target_cancels_needs_no_neighborhood():
    """(y^2(y^2+1), y^2(y^2+3), y^3): Q/P1 = (y^2+1)/(y^2+3) has no real pole, so h2 = 0
    and h1 at the node y = 0 is the probe limit 1/3."""
    d = construct_decomposition([0, 0, 1, 0, 1], [0, 0, 3, 0, 1], [0, 0, 0, 1], GRID)
    assert d.neighborhoods == ()
    assert d.cofactor2_sup == 0.0
    assert d.cofactor1(np.array([0.0]))[0] == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_cofactor2_steps_out_where_both_probes_fall_under_the_guard():
    """(y^3, y^4, y^3): h2 = 1 - y^2 on the neighborhood of 0, but y^3 falls under the
    division guard at both probes y = -+1e-6, so the limit at 0 comes from further out."""
    d = construct_decomposition([0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 1], GRID)
    assert d.cofactor2(0.0) == pytest.approx(1.0, abs=1e-6)


def _integer_roots(multiplicities, pairs=0):
    # the integer polynomial with root r of the given multiplicity, r = -2, ..., 2, times
    # (y^2 + 1)^pairs
    p = np.array([1], dtype=object)
    for factor in [[-r, 1] for r, m in zip(range(-2, 3), multiplicities) for _ in range(m)]:
        p = np.polynomial.polynomial.polymul(p, np.array(factor, dtype=object))
    for _ in range(pairs):
        p = np.polynomial.polynomial.polymul(p, np.array([1, 0, 1], dtype=object))
    return [int(c) for c in p]


_MULTIPLICITIES = st.lists(st.integers(0, 3), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_MULTIPLICITIES, _MULTIPLICITIES, _MULTIPLICITIES)
def test_the_obstruction_is_the_multiplicity_rule(mq, m1, m2):
    """A common real root r is refused exactly where m_Q(r) < min(m_P1(r), m_P2(r)).  Every
    accepted triple builds, and its h2 passes the refinement certificate that decided
    the obstruction before: the sup on dy/32 local grids stays below 1.5 times the sup
    on dy/16 ones."""
    # complex pairs lift deg P1 to deg Q, so that only the root rule can refuse
    polys = [_integer_roots(mq), _integer_roots(m1, max(0, sum(mq) - sum(m1) + 1) // 2),
             _integer_roots(m2)]
    violations = decomposition_hypotheses(*polys)
    shared = [float(re.search(r"y=(\S+),", v.detail).group(1))
              for v in violations if v.code == "common_root"]
    assert shared == [r for r, q, a, b in zip(range(-2, 3), mq, m1, m2) if q < min(a, b)]
    if violations:
        return
    d = construct_decomposition(*polys, GRID)
    sup16, sup32 = (max((float(np.abs(d.cofactor2(_local_grid(c, w, GRID.dy / k))).max())
                         for c, w in d.neighborhoods), default=0.0) for k in (16.0, 32.0))
    assert sup16 == 0.0 or sup32 < 1.5 * sup16


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


def _outer_band_node(size: int, k: int) -> int:
    """The ``k``-th of the ``2 floor(size / 20) + 1`` nodes of the outer 10% band."""
    band = size // 20
    return k if k <= band else size - (k - band)


def _gate(p, pvals, F):
    """``_apply_poly``'s output bytes, or the message of the bandwidth gate that refused it."""
    try:
        return _apply_poly(p, pvals, F).values.tobytes()
    except BandwidthExceededError as refused:
        return str(refused)


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_SIGNED, min_size=1, max_size=5), n=st.integers(4, 8),
       half_length=st.floats(0.5, 100.0), quiet_band=st.booleans(), data=st.data())
def test_real_polynomial_values_apply_bit_for_bit_as_complex(coeffs, n, half_length,
                                                             quiet_band, data):
    # a real polynomial is sampled as doubles; numpy casts each to complex with a +0
    # imaginary part, which the complex values have too, so every product is the same
    grid = GridSpec(half_length, 2 ** n)
    parts = np.array(data.draw(st.lists(_SIGNED, min_size=2 * grid.size,
                                        max_size=2 * grid.size)))
    if quiet_band:  # signed zeros across the outer band, so the gate passes
        for k in range(2 * (grid.size // 20) + 1):
            node = _outer_band_node(grid.size, k)
            parts[2 * node:2 * node + 2] = np.copysign(0.0, parts[2 * node:2 * node + 2])
    F = SampledFunction(grid, parts.view(np.complex128), FREQUENCY)
    p = _as_poly(coeffs)
    real, cplx = _poly_values(p, grid), npoly.polyval(grid.dual_nodes(), p)
    assert real.dtype == np.float64
    assert real.astype(np.complex128).tobytes() == cplx.tobytes()
    assert _gate(p, real, F) == _gate(p, cplx, F)
    if quiet_band:
        assert isinstance(_gate(p, real, F), bytes)


@settings(max_examples=150, deadline=None)
@given(half_length=st.floats(1.0, 1e3), n=st.integers(4, 12),
       coeffs=st.sampled_from([[1], [0, 1], [0, 0, 1], [2, 0, 1]]),
       log_level=st.floats(-10.0, 0.0), data=st.data())
def test_a_spike_anywhere_in_the_outer_band_of_a_product_spectrum_is_refused(
        half_length, n, coeffs, log_level, data):
    grid = GridSpec(half_length, 2 ** n)
    p = _as_poly(coeffs)
    pvals = _poly_values(p, grid)
    values = np.exp(-(grid.dual_nodes() / (0.1 * grid.dual_half_length)) ** 2) + 0j
    clean = SampledFunction(grid, values, FREQUENCY)
    assert isinstance(_gate(p, pvals, clean), bytes)
    peak = float(np.abs(pvals * values).max())
    node = _outer_band_node(grid.size, data.draw(st.integers(0, 2 * (grid.size // 20))))
    spike = 10.0 ** log_level * peak  # of the product, at most its peak
    values[node] = spike / pvals[node]
    noise_floor = 32.0 * np.finfo(float).eps * float(np.abs(pvals).max() * np.abs(values).max())
    assume(spike > 2.0 * noise_floor)
    F = SampledFunction(grid, values, FREQUENCY)
    if spike > 2.0 * diffops._BANDWIDTH_LEVEL * peak:
        with pytest.raises(BandwidthExceededError):
            _apply_poly(p, pvals, F)
    elif spike < 0.5 * diffops._BANDWIDTH_LEVEL * peak:
        _apply_poly(p, pvals, F)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_partner_exponent_values():
    assert partner_exponent(1.0, 1.0) == 1.0
    assert partner_exponent(2.0, 2.0) == 1.0
    assert partner_exponent(2.0, 1.0) == 2.0
    assert partner_exponent(math.inf, 1.0) == math.inf
    assert partner_exponent(4.0, 2.0) == pytest.approx(4.0 / 3.0)
    # 1 + 1/q - 1/q rounds below 1 for these, so s came out one ulp above 1
    assert partner_exponent(11 / 7, 11 / 7) == 1.0
    assert partner_exponent(13 / 7, 13 / 7) == 1.0


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
    assert sub.factor1 == pytest.approx(1.5895043621557547, rel=1e-6)
    assert sub.factor2 == pytest.approx(0.615222866811223, rel=1e-6)
    assert sub.constant == pytest.approx(1.5895043621557547, rel=1e-6)
    assert sub.worst_ratio == pytest.approx(0.36602540378, rel=1e-6)
    # degenerate right-hand sides are dropped, so every recorded case is real
    for case in sub.cases:
        assert case.lhs <= sub.constant * case.rhs * (1.0 + 1e-2)


@pytest.mark.parametrize("polys, q", [
    pytest.param(([0, 1], [0, 0, 1], [1]), 2.0, id="y,y^2,1-q2"),
    pytest.param(([1, 1], [-1, 0, 1], [1, 1]), math.inf, id="1+y,y^2-1,1+y-qinf"),
])
def test_subordination_holds_five_arrays_of_the_grid(polys, q):
    # in complex arrays of the caller's grid, the corpus loop's peak: with the three
    # polynomials' complex values, the dual nodes and each function's space samples kept
    # through its operators, 8.0; with real values as doubles and neither kept, 5.0
    d = construct_decomposition(*polys, FINE)
    diffop_subordination(d, q)  # warm
    tracemalloc.start()
    try:
        diffop_subordination(d, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 16 * FINE.size


def test_subordination_reuses_decomposition(monkeypatch):
    d = construct_decomposition([0, 1], [0, 0, 1], [1], FINE)
    small = [gaussian(1.0), bump(2.0), modulated_gaussian(1.0, 3.0)]

    def refuse(*args, **kwargs):
        raise AssertionError("diffop_subordination built a decomposition of its own")

    monkeypatch.setattr(diffops, "construct_decomposition", refuse)
    sub = diffop_subordination(d, q=2.0, suite=small)
    assert sub.passed


def _factor(d, symbol, grid, q, p):
    # the factor of diffop_subordination for a cofactor of d, L^p -> L^q, at oversample 4
    extent = max((abs(r) + delta for r, delta in d.neighborhoods), default=0.0)
    return factor_norm(symbol, grid, None if p == q else partner_exponent(q, p), extent, 4)


@pytest.mark.parametrize("q, p", [
    pytest.param(2.0, 1.0, id="2.0"),
    pytest.param(math.inf, 1.0, id="inf"),
    pytest.param(1.0, 1.0, id="p=q=1.0"),
    pytest.param(2.0, 2.0, id="p=q=2.0"),
    pytest.param(math.inf, math.inf, id="p=q=inf"),
])
def test_mixed_exponent_factor_inverts_once(q, p, monkeypatch):
    """Every factor inverts the real cofactor's samples once on each grid of its pair, (L, n/2)
    and (L, n) refined by oversample, here n = N: the doubled grid's even phases, two of 2 n
    nodes each on (L, n).  For p < q the window part of a pass, the estimator's window read,
    gives the partner norm; for p == q a pass is wiener_norm's total, bit for bit, without the
    odd phases.  The factor is max(F_n, 2 F_n - F_{n/2})."""
    d = construct_decomposition([0, 1], [0, 0, 1], [1], GRID)
    grids = [GridSpec(GRID.half_length, GRID.size // 2), GRID]
    cases = [d.cofactor1, d.cofactor2] if p == q else [d.cofactor2]
    s = partner_exponent(q, p)

    def single_pass(symbol, grid):
        if p == q:  # each cofactor declares its constant term
            return wiener_norm(symbol, grid, oversample=4).total
        fine = grid.refined(4)
        absg = next(measures._windows(symbol, grid, 4, doubled=False))[1]
        return float(absg.max() if math.isinf(s) else (fine.dx * np.sum(absg**s)) ** (1.0 / s))

    references = [[single_pass(symbol, grid) for grid in grids] for symbol in cases]
    calls = []
    add_inverse = measures._add_inverse

    def counted(acc, values):
        calls.append(values.size)
        return add_inverse(acc, values)

    monkeypatch.setattr(measures, "_add_inverse", counted)
    for symbol, (coarse, finer) in zip(cases, references):
        calls.clear()
        factor = _factor(d, symbol, GRID, q, p)
        assert calls == [2 * grid.size for grid in grids for _ in range(2)]
        assert factor == max(finer, 2.0 * finer - coarse)


def test_a_factor_is_estimated_on_one_grid_pair_above_its_size():
    # the caller's N sets neither pass once it reaches the factor grid's 2^15 nodes
    factors = []
    for size in (2 ** 15, 2 ** 18):
        d = construct_decomposition([0, 1], [0, 0, 1], [1], GridSpec(40.0, size))
        factors.append([_factor(d, d.cofactor1, d.grid, 2.0, 2.0),
                        _factor(d, d.cofactor2, d.grid, 2.0, 1.0)])
    assert factors[0] == factors[1]


def test_a_factor_grid_grows_until_every_neighborhood_fits(monkeypatch):
    # (y-r, (y-r)^2, 1) with r = 1000: the neighborhood [999, 1001] lies outside the dual
    # window |y| < 643 of (40, 2^14), the coarse grid of the default pair, but inside that of
    # (40, 2^15), so the pair is (40, 2^15) and (40, 2^16) on a caller's grid of 2^17 nodes
    r = 1000.0
    grid = GridSpec(40.0, 2 ** 17)
    d = construct_decomposition([-r, 1], [r * r, -2 * r, 1], [1], grid)
    assert d.neighborhoods == ((r, 1.0),)
    sizes = []
    add_inverse = measures._add_inverse

    def counted(acc, values):
        sizes.append(values.size)
        return add_inverse(acc, values)

    for symbol in (d.cofactor1, d.cofactor2):
        reference = wiener_norm(symbol, grid, oversample=4).total
        sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(measures, "_add_inverse", counted)
            factor = _factor(d, symbol, grid, 2.0, 2.0)
        # the two even phases of each pass's doubled grid, 2 n nodes each
        assert sizes == [2 * 2 ** 15] * 2 + [2 * 2 ** 16] * 2
        assert factor == pytest.approx(reference, rel=1e-3)


def test_a_declared_constant_term_enters_the_factor_as_its_atom():
    # (1+y^2, 2+y^2, 1): the first cofactor is 1 - 1/(2+y^2), the atom 1 at 0 plus the
    # density -e^{-sqrt(2)|x|}/(2 sqrt(2)) of mass 1/2, so factor1 is exactly 3/2
    d = construct_decomposition([1, 0, 1], [2, 0, 1], [1], GridSpec(40.0, 2 ** 15))
    assert d.neighborhoods == ()
    assert d.cofactor1.const_at_infinity == 1.0
    assert abs(_factor(d, d.cofactor1, d.grid, 2.0, 2.0) - 1.5) <= 1e-8


#: the Richardson limits over single passes at N = 2^18 and 2^19 (L = 40, oversample 4) of
#: the factors of the diffop_fine benchmark triples with p = q: (Q, P1, P2), q, factor1, factor2
_FACTOR_LIMITS = [
    (([0, 1], [0, 0, 1], [1]), 2.0, 1.58951163, 0.61522289),
    (([0, 1], [-1, 0, 1], [1]), 2.0, 1.01662139, 1.62148565),
    (([1, 1], [-1, 0, 1], [1, 1]), math.inf, 1.58959251, 1.24553210),
]


@pytest.mark.parametrize("polys, q, limit1, limit2", _FACTOR_LIMITS)
def test_extrapolated_factors_lie_near_their_limits(polys, q, limit1, limit2):
    # and no lower than the single pass on the caller's grid, which a factor once was
    d = construct_decomposition(*polys, FINE)
    for symbol, limit in ((d.cofactor1, limit1), (d.cofactor2, limit2)):
        factor = _factor(d, symbol, FINE, q, q)
        c, absg = next(measures._windows(symbol, FINE, 4, doubled=False))
        single = measures._wiener_components(c, absg, FINE.refined(4).dx)[2]
        assert factor >= single
        assert factor == pytest.approx(limit, rel=3e-5)


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
