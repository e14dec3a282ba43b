"""The Wiener-norm estimator of a symbol's measure norm."""

import ast
import cmath
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subord
from subord import measures
from subord.comparison import (
    REGISTRY,
    Multiplier,
    constant,
    exp_abs_ft,
    gaussian_ft,
    gw_ratio,
    gw_symbol,
    one_minus_gw_symbol,
    ratio_multiplier,
)
from subord.diffops import construct_decomposition
from subord.errors import GridTooSmallError, InconsistentLimitError, InvalidParameterError
from subord.fourier_core import FREQUENCY, GridSpec, SampledFunction, inverse_ft
from subord.measures import (
    _abs_window,
    _add_inverse,
    _limit_at_infinity,
    _samples,
    _twiddles,
    _wiener_components,
    _windows,
    factor_norm,
    wiener_norm,
)

GRID = GridSpec(40.0, 16384)


def _declaring(psi, c):
    """``psi`` declaring the constant term ``c``; for ``c`` None, ``psi`` as it is."""
    if c is None:
        return psi
    if isinstance(psi, Multiplier):
        return dataclasses.replace(psi, const_at_infinity=c)
    return Multiplier(label="declared", _fn=psi, const_at_infinity=c)


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
    est = wiener_norm(_declaring(exp_abs_ft(), 0.0), GRID)
    assert est.const_at_infinity == 0.0
    assert est.total == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("pinned", [math.inf, math.nan, complex(0.0, math.inf)])
def test_wiener_norm_refuses_a_non_finite_pinned_limit(pinned):
    # refused by name when the symbol is built, before it is sampled, not as a non-finite
    # inversion
    def unsampled(y):
        raise AssertionError("the symbol was sampled")

    with pytest.raises(InvalidParameterError, match="const_at_infinity must be finite"):
        wiener_norm(_declaring(unsampled, pinned), GRID)


def test_wiener_norm_rejects_inconsistent_limits():
    odd = Multiplier(label="tanh", _fn=lambda y: np.tanh(y) + 0j)
    with pytest.raises(InconsistentLimitError):
        wiener_norm(odd, GRID)
    # pinning a limit bypasses the two-sided consistency requirement
    est = wiener_norm(_declaring(odd, 0.0), GRID)
    assert est.total > 0.0


@pytest.mark.parametrize("oversample", [1, 2])
def test_constant_term_needs_a_node_in_each_outer_band(oversample):
    """At 16 or 32 dual nodes the outer 5% of the upper side holds no node."""
    tiny = GridSpec(40.0, 16)
    with pytest.raises(GridTooSmallError):
        wiener_norm(gw_symbol(1.0), tiny, oversample=oversample)
    # a pinned constant term reads no band
    assert wiener_norm(_declaring(gw_symbol(1.0), 0.0), tiny, oversample=oversample).total > 0.0


def test_no_other_module_imports_a_private_name_of_measures():
    # measures alone turns a symbol into a norm number; the others call its public functions
    package = Path(subord.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "measures":
            continue
        private = [(node.lineno, alias.name) for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module == "measures"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == [], path.name


def test_wiener_estimate_holds_numbers_only():
    est = wiener_norm(gw_symbol(1.0), GRID)
    for field in dataclasses.fields(est):
        assert isinstance(getattr(est, field.name), (bool, int, float, complex)), field.name


def test_wiener_norm_rejects_bad_oversample():
    with pytest.raises(InvalidParameterError):
        wiener_norm(gw_symbol(1.0), GRID, oversample=3)


@pytest.mark.parametrize("absg", [np.full(31, 1e308), np.full(31, 1e305)])
def test_a_total_beyond_the_doubles_is_refused_without_a_warning(absg):
    # at dx = 5 the window mass of 1e308s overflows, and 1e305 (75)^2 in the tail fit
    with pytest.raises(InvalidParameterError, match="overflows a double"):
        _wiener_components(0.0, absg, 5.0)


def test_wiener_norm_peak_memory():
    # in complex arrays of the doubled window's fine grid; the shift copies, the full-window
    # node array and mask and the copied samples took 3.5, two sampled passes with a shift
    # copy each 2.5, one sampling in FFT order, inverted in place, 1.75.  Sampled into even
    # and odd halves with no copy, the peak was still 1.75, set while sampling: at this size a
    # block's temporaries are a quarter of the doubled grid.  With one half held at a time,
    # 1.38; in phases of 2N nodes, 0.44, and of N nodes 0.31
    grid = GridSpec(40.0, 2 ** 12)
    fine_array = 16 * grid.refined(2).refined(8).size
    wiener_norm(gw_symbol(1.0), grid)  # warm
    tracemalloc.start()
    try:
        wiener_norm(gw_symbol(1.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * fine_array


def test_wiener_norm_peak_memory_of_a_cofactor():
    # in complex arrays of the doubled window's fine grid; the first cofactor sampled on the
    # whole dual grid in one call held about six of them, its masks and quotient temporaries,
    # sampled in blocks twice with a shift copy per pass 2.5, sampled once 1.9, sampled into
    # two halves, joined in place, 1.89, again set by the block temporaries of sampling, and
    # sampled and inverted one half at a time 1.66; in phases of 2N nodes 1.45, of N nodes 0.88
    d = construct_decomposition([0, 1], [0, 0, 1], [1], GridSpec(40.0, 2 ** 14))
    fine_array = 16 * d.grid.refined(2).refined(4).size

    def norm():
        wiener_norm(d.cofactor1, d.grid, oversample=4)

    norm()  # warm
    tracemalloc.start()
    try:
        norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * fine_array


def test_operator_factor_peak_memory_of_a_cofactor():
    # in complex arrays of the finer pass's fine grid: a p == q factor of diffop-verify is
    # a single-window pass on each grid of a pair, one at a time, where wiener_norm's
    # doubled-window pass peaked at 5 of them; the shift copy of the samples took it to
    # 3.16, an inversion in place takes 2.78, the even phases of 2 n nodes 2.35 and those of n
    # nodes 1.27.  The pole's neighborhood reaches |y| = 1
    d = construct_decomposition([0, 1], [0, 0, 1], [1], GridSpec(40.0, 2 ** 14))
    fine_array = 16 * d.grid.refined(4).size

    def factor():
        factor_norm(d.cofactor1, d.grid, None, 1.0, 4)

    factor()  # warm
    tracemalloc.start()
    try:
        factor()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * fine_array


def test_operator_factor_peak_memory_on_a_fine_grid():
    # in complex arrays of the finer factor grid, (40, 2^15) refined 4 times: the caller's
    # 2^18 nodes set no array, and the coarse pass is freed before the finer one samples.  The
    # even phases of 2 n nodes peaked at 1.46, those of n nodes at 1.27
    d = construct_decomposition([0, 1], [0, 0, 1], [1], GridSpec(40.0, 2 ** 18))
    fine_array = 16 * 4 * 2 ** 15

    def factor():
        factor_norm(d.cofactor1, d.grid, None, 1.0, 4)

    factor()  # warm
    tracemalloc.start()
    try:
        factor()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * fine_array


@pytest.mark.parametrize("declared", [None, 1.0])
def test_a_factor_reads_or_takes_the_constant_term_as_wiener_norm_does(declared):
    # a registry symbol, which declares nothing, and the same symbol declaring its limit: each
    # p == q pass of the pair is wiener_norm's total on its grid, bit for bit
    m = _declaring(one_minus_gw_symbol(1.0), declared)
    assert m.const_at_infinity == declared

    def total(size):
        return wiener_norm(m, GridSpec(40.0, size), 4).total

    n = 2 ** 14
    factor = factor_norm(m, GridSpec(40.0, n), None, 0.0, 4)
    assert factor == max(total(n), 2.0 * total(n) - total(n // 2))


#: prints the growth of the peak RSS over one first-cofactor norm at N = 2^18, in complex
#: arrays of the doubled window's 2^21-point fine grid.  The decomposition is built on a
#: small grid, so that its identity check leaves no high-water mark for the norm to fill
_RSS_PROBE = """
import resource, sys
from subord.diffops import construct_decomposition
from subord.fourier_core import GridSpec
from subord.measures import wiener_norm
d = construct_decomposition([0, 1], [0, 0, 1], [1], GridSpec(40.0, 2 ** 14))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
wiener_norm(d.cofactor1, GridSpec(40.0, 2 ** 18), oversample=4)
growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(growth * (1 if sys.platform == "darwin" else 1024) / (16 * 2 ** 21))
"""


#: starts the probe from a small process: on Linux ``exec`` records the resident high-water
#: mark of the launching process in the child's ``ru_maxrss``, and the test runner is large
_LAUNCHER = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"


def _probe_output(probe: str) -> float:
    # what the probe prints, run in a child of a small process
    src = str(Path(subord.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, probe],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True)
    return float(out.stdout)


def test_wiener_norm_process_peak_of_a_cofactor():
    # unlike tracemalloc, ru_maxrss counts numpy's FFT work memory too.  With the
    # decomposition built on the norm's own grid, sampling the cofactor in one call grew it by
    # 5.2 arrays, sampling it in blocks by 3.1, sampling it once in FFT order and inverting in
    # place by 2.38, inverting its even and odd halves instead of the doubled array by 1.25
    # to 1.33, and sampling and inverting one half at a time by 0.94; but that growth is
    # above the high-water mark of the decomposition's own checks.  Built on (40, 2^14), two
    # real-input transforms of 2^20 points per part grow it by 1.21, the doubled grid's
    # phases of 2^19 points, accumulated on the window's nodes j >= 0, by 0.90, and in phases
    # of 2^18 points by 0.59
    assert _probe_output(_RSS_PROBE) <= 0.8


#: prints the growth of the peak RSS over one norm on (160, 2^18) at oversample 8, in arrays
#: of the 2^21 doubles of a pass's fine grid, of the symbol the format argument builds
_PARTS_PROBE = """
import resource, sys
import numpy as np
from subord.comparison import Multiplier, gw_ratio
from subord.fourier_core import GridSpec
from subord.measures import wiener_norm
psi = %s
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
wiener_norm(psi, GridSpec(160.0, 2 ** 18))
growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(growth * (1 if sys.platform == "darwin" else 1024) / (8 * 2 ** 21))
"""


@pytest.mark.parametrize("symbol, bound", [
    pytest.param("gw_ratio(1.0, 2.0)", 1.5, id="real"),
    pytest.param("Multiplier(label='complex', _fn=lambda y: gw_ratio(1.0, 2.0)(y)"
                 " + 1j * y * np.exp(-y * y))", 2.4, id="complex"),
])
def test_real_input_transforms_lower_the_process_peak(symbol, bound):
    # a complex transform per pass grew ru_maxrss by 6.66 arrays for the real symbol and by
    # 6.70 for the complex one.  A real-input transform per part of two passes of 2^21 points
    # held the real part, its half spectrum, numpy's work memory of about two arrays and, in
    # the second pass, the first pass's window: 4.56, and 5.62 for the complex symbol.  In
    # eight phases of 2^19 points, accumulated on the window's nodes j >= 0: 1.95 and 2.76,
    # later 1.81 and 2.76; in sixteen phases of 2^18 points 1.19 and 2.02
    assert _probe_output(_PARTS_PROBE % symbol) <= bound


@pytest.mark.parametrize("at_origin", [math.nan, math.inf])
def test_both_estimators_reject_a_non_finite_symbol(at_origin):
    # the symbol is non-finite at the dual node y = 0 only
    bad = Multiplier(label="bad",
                     _fn=lambda y: np.where(y == 0.0, at_origin, np.exp(-np.abs(y))) + 0j)
    with pytest.raises(InvalidParameterError):
        wiener_norm(bad, GRID)


@pytest.mark.parametrize("size", [16, 2 ** 10])
def test_a_fault_of_the_symbols_values_is_reported_before_its_constant_term(size):
    # tanh has no constant term (its one-sided limits disagree) and at 16 nodes no node lies in
    # the outer band; its value at y = 0, away from the bands, is nan: refused as a symbol
    # fault (exit 1), not as a grid or limit fault (exit 2), as when a pass sampled first
    odd = Multiplier(label="tanh", _fn=lambda y: np.where(y == 0.0, np.nan, np.tanh(y)) + 0j)
    with pytest.raises(InvalidParameterError, match="non-finite"):
        wiener_norm(odd, GridSpec(40.0, size), oversample=1)


# ---------------------------------------------------------------------------
# Sampling a symbol in blocks
# ---------------------------------------------------------------------------

_WRONG_SHAPES = {
    "scalar": lambda y: np.complex128(0.5),
    "short": lambda y: np.exp(-np.abs(y[1:])),
    "long": lambda y: np.exp(-np.abs(np.append(y, 0.0))),
    "2-D": lambda y: np.exp(-np.abs(y))[None, :],
}


@pytest.mark.parametrize("pinned", [None, 0.0])
@pytest.mark.parametrize("shape", sorted(_WRONG_SHAPES))
def test_both_estimators_reject_a_symbol_of_the_wrong_shape(shape, pinned):
    psi = _WRONG_SHAPES[shape]
    with pytest.raises(InvalidParameterError, match="shape"):
        wiener_norm(_declaring(psi, pinned), GRID)


_EXPONENT = st.floats(0.25, 3.0)
#: parameters of each registry symbol; a symbol added to the registry without an entry
#: here fails the property below with a KeyError
_PARAMS = {
    "constant": st.fixed_dictionaries({"value": st.complex_numbers(max_magnitude=10.0)}),
    "gw_symbol": st.fixed_dictionaries({"alpha": _EXPONENT}),
    "one_minus_gw_symbol": st.fixed_dictionaries({"alpha": _EXPONENT}),
    "gw_ratio": st.tuples(_EXPONENT, _EXPONENT).filter(lambda ab: ab[0] < ab[1]).map(
        lambda ab: {"alpha": ab[0], "beta": ab[1]}),
    "gaussian_ft": st.just({}),
    "exp_abs_ft": st.just({}),
}
_SMALL = GridSpec(40.0, 2 ** 10)
_DECOMPOSITION = construct_decomposition([0, 1], [0, 0, 1], [1], _SMALL)
#: (symbol, pinned constant term or None)
_SYMBOLS = st.one_of(
    st.sampled_from(sorted(REGISTRY)).flatmap(lambda name: st.tuples(
        _PARAMS[name].map(lambda kw: REGISTRY[name](**kw)), st.sampled_from([None, 0.0]))),
    st.sampled_from([
        # zero-filled at y = 0, a node of every grid
        (ratio_multiplier(one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0), _SMALL), None),
        (_DECOMPOSITION.cofactor1, _DECOMPOSITION.cofactor1.const_at_infinity),
        (_DECOMPOSITION.cofactor2, _DECOMPOSITION.cofactor2.const_at_infinity),
    ]),
)
#: (fine size, block): below one block, exactly one, whole blocks, a partial last block
_LAYOUTS = [(2 ** 10, measures._BLOCK), (measures._BLOCK, measures._BLOCK),
            (4 * measures._BLOCK, measures._BLOCK), (2 ** 15, 2 ** 12 + 1)]


def _centred_limit(whole, y, grid, pinned):
    # the constant term as read from samples in the centred order, on the whole grid
    if pinned is not None:
        return complex(pinned)
    level = grid.dual_half_length - measures._LIMIT_BAND * grid.dual_half_length
    return 0.5 * (complex(np.mean(whole[y >= level])) + complex(np.mean(whole[y <= -level])))


def _assert_parts(re, im, values):
    # re and im are the real and imaginary parts of values, bit for bit; im None for a zero part
    assert re.tobytes() == values.real.tobytes()
    if im is None:
        assert not values.imag.any()
    else:
        assert im.tobytes() == values.imag.tobytes()


@settings(max_examples=80, deadline=None)
@given(case=_SYMBOLS, layout=st.sampled_from(_LAYOUTS), phases=st.sampled_from([2, 4]),
       data=st.data())
def test_blocked_sampling_matches_one_call_bit_for_bit(case, layout, phases, data):
    """Samples on one phase of the doubled grid, the nodes phase, phase + phases, ... of its
    2 N in FFT order, with blocks of odd length too, are the real and imaginary parts of those
    nodes' samples in one call, the imaginary part None where it is zero.  Phase 0 of 2 is the
    grid's own dual nodes, and the constant term read off their outer bands, block by block,
    is the whole grid's."""
    psi, pinned = case
    size, block = layout
    phase = data.draw(st.integers(0, phases - 1), label="phase")
    grid = GridSpec(40.0, size)
    doubled = np.fft.ifftshift(np.asarray(psi(grid.refined(2).dual_nodes()), dtype=np.complex128))
    with mock.patch.object(measures, "_BLOCK", block):
        re, im = _samples(psi, 2 * size // phases, phases, phase, 0.5 * grid.dy)
        c = complex(pinned) if pinned is not None else _limit_at_infinity(psi, grid)
    _assert_parts(re, im, doubled[phase::phases])
    y = grid.dual_nodes()
    whole = np.asarray(psi(y), dtype=np.complex128)
    if (phases, phase) == (2, 0):
        _assert_parts(re, im, np.fft.ifftshift(whole))
    assert c == _centred_limit(whole, y, grid, pinned)


@settings(max_examples=80, deadline=None)
@given(value=st.floats(-1.7e308, 1.7e308), ripple=st.floats(0.0, 1e-4),
       size=st.sampled_from([2 ** 6, 2 ** 10]))
def test_the_constant_term_is_read_bit_for_bit_or_scaled_past_an_overflow(value, ripple, size):
    # samples about a constant, up to near the top of the doubles: where the means of the
    # centred order are finite the read is theirs, bit for bit, and otherwise the constant
    grid = GridSpec(40.0, size)
    y = grid.dual_nodes()
    whole = (value * (1.0 + ripple * np.cos(y)) + 0j).astype(np.complex128)
    c = _limit_at_infinity(lambda y: value * (1.0 + ripple * np.cos(y)) + 0j, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = _centred_limit(whole, y, grid, None)
    if cmath.isfinite(direct):
        assert c == direct
    else:
        assert c == pytest.approx(value, rel=2e-4)


def _least_node_at_or_above(level, dy):
    # the least k with k dy >= level as the doubles round k dy, which rises with k
    k = math.ceil(level / dy)
    while k * dy < level:
        k += 1
    while (k - 1) * dy >= level:
        k -= 1
    return k


@settings(max_examples=200, deadline=None)
@given(log_length=st.floats(-300.0, 300.0), exponent=st.integers(4, 25))
def test_the_constant_term_band_counted_in_nodes_is_the_float_rule(log_length, exponent):
    """The dual nodes the constant-term read evaluates are exactly those with
    ``|k dy| >= Y - 0.05 Y``, ``Y = pi / dx``, compared in floats, on each side."""
    grid = GridSpec(10.0 ** log_length, 2 ** exponent)
    seen = []

    def recording(y):
        seen.append(y.copy())
        return np.zeros(y.shape)

    h, dy, top = grid.size // 2, grid.dy, grid.dual_half_length
    k = _least_node_at_or_above(top - measures._LIMIT_BAND * top, dy)
    if k >= h:
        with pytest.raises(GridTooSmallError):
            _limit_at_infinity(recording, grid)
        return
    assert _limit_at_infinity(recording, grid) == 0
    expected = np.concatenate((np.arange(k, h), np.arange(-h, 1 - k))) * dy
    assert np.concatenate(seen).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(exponent=st.integers(0, 16), log_dx=st.floats(-30.0, 30.0), decay=st.floats(0.0, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_tail_band_counted_in_nodes_is_the_float_rule(exponent, log_dx, decay, seed):
    """On a window ``|j| < n``, ``n`` a power of two as every window of the estimator, the
    tail fit is ``(max_{x <= -0.9 L} |g| x^2 + max_{x >= 0.9 L} |g| x^2) / L``, ``L = n dx``,
    its band found by comparing the nodes ``x = j dx`` in floats.  With ``decay > 2`` the
    largest ``|g| x^2`` sits at the band's inner edge, so a node too many or too few shows."""
    n, dx = 2 ** exponent, 10.0 ** log_dx
    j = np.arange(1 - n, n)
    absg = np.random.default_rng(seed).uniform(0.5, 1.0, j.size) * (1.0 + np.abs(j)) ** -decay
    x, L = j * dx, n * dx
    left, right = x <= -(1.0 - measures._TAIL_BAND) * L, x >= (1.0 - measures._TAIL_BAND) * L
    reference = (float(np.max(absg[left] * x[left] ** 2, initial=0.0))
                 + float(np.max(absg[right] * x[right] ** 2, initial=0.0))) / L
    assert _wiener_components(0.0, absg, dx)[1] == reference


def _single_total(psi, grid, oversample, pinned):
    # one pass that samples its own grid, as diffop-verify's p == q factors run it
    c, absg = next(_windows(_declaring(psi, pinned), grid, oversample, doubled=False))
    return _wiener_components(c, absg, grid.refined(oversample).dx)[2]


def _joined(re, im, n, scale):
    # the window g at |j| < n that _abs_window takes the modulus of, in the same operations
    if im is None:
        im = np.zeros(n)
    lower = np.conjugate(re[n - 1:0:-1]) + 1j * np.conjugate(im[n - 1:0:-1])
    return np.concatenate([lower, re[:n] + 1j * im[:n]]) / scale


def _read_windows(psi, grid, oversample):
    # wiener_norm's estimate and the windows it reads, the single one and the doubled one
    windows = []

    def joining(re, im, n, scale):
        windows.append(_joined(re, im, n, scale))
        return _abs_window(re, im, n, scale)

    with mock.patch.object(measures, "_abs_window", joining):
        est = wiener_norm(psi, grid, oversample=oversample)
    return est, windows


#: (symbol, None): complex symbols that are not even, so neither ``psi`` nor its density ``g``
#: is real and the doubled window's odd half is turned by a complex twiddle
_SHIFTED = st.floats(-2.0, 2.0).map(lambda a: (
    Multiplier(label="shifted", _fn=lambda y: np.exp(-(y - a) ** 2 + 1j * y)), None))


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(_SYMBOLS, _SHIFTED), size=st.sampled_from([2 ** 8, 2 ** 10]),
       oversample=st.sampled_from([1, 2, 4, 8]))
def test_window_read_and_shared_sampling_match_independent_passes(case, size, oversample):
    """The single window read, from the real-input transforms of the even phases' parts, is
    inverse_ft's window up to rounding.  ``total``, from the even phases of the doubled
    samples, is bit for bit that of a pass that samples its own grid.  The doubled window,
    joined from all phases' inversions, gives the ``refined_total`` of a direct pass on the
    doubled grid with the same constant term up to rounding: no sequence of short transforms
    rounds as the full-length one does."""
    psi, pinned = case
    grid = GridSpec(40.0, size)
    est, windows = _read_windows(_declaring(psi, pinned), grid, oversample)
    fine = grid.refined(oversample)
    centred = np.asarray(psi(fine.dual_nodes()), dtype=np.complex128) - est.const_at_infinity
    mid, n = fine.size // 2, size // 2
    reference = inverse_ft(SampledFunction(fine, centred, FREQUENCY)).values[mid - n + 1:mid + n]
    assert np.max(np.abs(windows[0] - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert est.total == _single_total(psi, grid, oversample, pinned)
    doubled = _single_total(psi, grid.refined(2), oversample, est.const_at_infinity)
    assert est.refined_total == pytest.approx(doubled, rel=1e-13)


#: (symbol, constant term): a real symbol and a complex one, neither of them even, so that
#: neither density is real
_UNEVEN = [
    pytest.param(Multiplier(label="real", _fn=lambda y: np.exp(-(y - 0.5) ** 2)), 0.0, id="real"),
    pytest.param(Multiplier(label="complex", _fn=lambda y: 1.0 + np.exp(-(y - 0.5) ** 2 + 1j * y)),
                 1.0, id="complex"),
]


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("psi, c", _UNEVEN)
def test_the_doubled_window_is_the_periodic_inverse(psi, c, oversample):
    """The window |j| < N of the inverse of K = oversample * N samples, as the doubled window
    accumulates a phase's (K = N at oversample 1, the size of every phase the estimator
    inverts; at 2 a window shorter than the period), is the K-periodic inverse DFT of the
    samples less c, scaled by 1 / dx, up to rounding, as the parts' real-input inverses
    joined, and its modulus is _abs_window's bit for bit.  At oversample 1 it wraps past
    K / 2, where a window sliced off the half spectrum would not broadcast."""
    grid = GridSpec(40.0, 2 ** 10)
    fine, n = grid.refined(oversample), grid.size
    values = np.fft.ifftshift(np.asarray(psi(fine.dual_nodes()), dtype=np.complex128)) - c
    reference = np.fft.ifft(values)[np.arange(1 - n, n) % fine.size] / fine.dx
    parts = [np.zeros(n, dtype=np.complex128) for _ in range(2)]
    for acc, part in zip(parts, (values.real, values.imag)):
        _add_inverse(acc, part.copy())
    window = _joined(*parts, n, fine.dx)
    assert window.shape == reference.shape
    assert np.max(np.abs(window - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert _abs_window(*parts, n, fine.dx).tobytes() == np.abs(window).tobytes()


@settings(max_examples=60, deadline=None)
@given(shift=st.floats(-2.0, 2.0), imaginary=st.booleans(), even=st.booleans(),
       oversample=st.sampled_from([1, 2, 4, 8, 16]), size=st.sampled_from([2 ** 6, 2 ** 8]))
def test_phase_split_windows_are_the_direct_inverse_of_the_doubled_sampling(
        shift, imaginary, even, oversample, size):
    """The single window, from the even phases of the doubled grid, and the doubled window,
    from all its phases, are one np.fft.ifft of the even nodes' samples and of all 2 M nodes'
    samples less c, scaled by 1 / dx, within 1e-14 of their maximum: for a real symbol and for
    a complex one with a complex constant term, at oversample 1 to 16.  An uneven symbol's
    pass inverts every phase, and one that declares itself even those that are not the mirror
    image of another."""
    c = complex(0.5, 0.25 if imaginary else 0.0)
    if even:  # even bit for bit: |y| and y * y
        fn = lambda y: c + np.exp(-(np.abs(y) - shift) ** 2) + (
            1j * np.exp(-y * y) if imaginary else 0.0)
    else:
        fn = lambda y: c + np.exp(-(y - shift) ** 2 + (1j * y if imaginary else 0.0))
    psi = Multiplier(label="even" if even else "uneven", const_at_infinity=c, _fn=fn, even=even)
    grid = GridSpec(40.0, size)
    fine, n = grid.refined(oversample), size
    doubled = fine.refined(2)
    samples = np.fft.ifftshift(np.asarray(psi(doubled.dual_nodes()), dtype=np.complex128)) - c
    directs = [np.fft.ifft(samples[::2])[np.arange(1 - n // 2, n // 2) % fine.size] / fine.dx,
               np.fft.ifft(samples)[np.arange(1 - n, n) % doubled.size] / fine.dx]
    windows = _read_windows(psi, grid, oversample)[1]
    assert len(windows) == len(directs)
    for window, direct in zip(windows, directs):
        assert window.shape == direct.shape
        assert np.max(np.abs(window - direct)) <= 1e-14 * np.max(np.abs(direct))


def test_a_pass_makes_one_real_input_transform_per_part(monkeypatch):
    # a real symbol's pass makes one rfft per phase of the doubled grid, of N nodes each, a
    # complex symbol's two, and no complex transform runs: at oversample 8, the nine phases
    # 0 ... 8 of wiener_norm's doubled grid for an even symbol, whose phases 9 ... 15 mirror
    # 7 ... 1, and all sixteen for an undeclared one; and the four even phases of each pass of
    # factor_norm's pair, at oversample 4 the phases 0, 2, 4 and 6 of 8, of which the fold
    # skips 6, the mirror image of 2
    calls = []

    def counted(name):
        transform = getattr(np.fft, name)

        def call(a, *args, **kwargs):
            calls.append((name, len(a)))
            return transform(a, *args, **kwargs)
        return call

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    grid = GridSpec(40.0, 2 ** 10)
    shifted = Multiplier(label="complex", _fn=lambda y: np.exp(-(y - 0.5) ** 2 + 1j * y))
    for psi, phases, even_phases, parts in ((gw_ratio(1.0, 2.0), 9, 3, 1), (shifted, 16, 4, 2)):
        calls.clear()
        wiener_norm(psi, grid)
        assert calls == [("rfft", grid.size)] * (phases * parts)
        calls.clear()
        factor_norm(psi, grid, None, 0.0, 4)
        assert calls == ([("rfft", grid.size // 2)] * (even_phases * parts)
                         + [("rfft", grid.size)] * (even_phases * parts))


@settings(max_examples=40, deadline=None)
@given(exponent=st.integers(4, 22), k=st.sampled_from([1, 2]), data=st.data())
def test_tabled_twiddles_are_the_exponential_and_do_not_depend_on_the_count(exponent, k, data):
    """Each of the ``count`` tabled twiddles ``e^{i pi k j / m}`` is within 4e-16 of np.exp at
    the same node, and a node's twiddle is the same bits whatever count is requested.  The
    reference's argument is reduced by quarter turns, ``k j = q m / 2 + r`` and
    ``e^{i pi k j / m} = i^q e^{i pi r / m}``: rounding the unreduced argument, up to 2 pi,
    alone moves np.exp by up to 5.6e-16 at k = 2."""
    m = 2 ** exponent
    count, other = (data.draw(st.one_of(st.just(m), st.integers(0, m))) for _ in range(2))
    table = _twiddles(m, count, k)
    turns, rest = np.divmod(k * np.arange(count), m // 2)
    reference = np.exp(1j * np.pi * rest / m) * np.array([1, 1j, -1, -1j])[turns % 4]
    assert table.shape == (count,)
    assert np.all(np.abs(table - reference) <= 4e-16)
    del reference
    common = min(count, other)
    assert table[:common].tobytes() == _twiddles(m, other, k)[:common].tobytes()


# ---------------------------------------------------------------------------
# Even symbols: the declaration and the fold
# ---------------------------------------------------------------------------

_FIXED_NODES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-160, 1e300, 1.7976931348623157e308]


@settings(max_examples=80, deadline=None)
@given(psi=st.one_of(
    st.sampled_from(sorted(REGISTRY)).flatmap(
        lambda name: _PARAMS[name].map(lambda kw: REGISTRY[name](**kw))),
    # its fill runs at y = 0, where the denominator vanishes
    st.just(ratio_multiplier(one_minus_gw_symbol(2.0), one_minus_gw_symbol(1.0), _SMALL))),
    y=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_every_registry_symbol_and_their_ratio_are_even_bit_for_bit(psi, y):
    """Each registry symbol, with drawn parameters, and a ratio of two of them declare
    ``even``, and return the same bytes at y and -y: at drawn y, at 0, at subnormals and
    where the symbol has saturated (|y|**alpha or y * y beyond the doubles)."""
    y = np.array(y + _FIXED_NODES)
    assert psi.even
    assert psi(y).tobytes() == psi(-y).tobytes()


def test_the_cofactors_declare_no_evenness():
    # neither cofactor declares itself even, so each factor of diffop-verify and each norm of a
    # cofactor inverts every phase
    assert not _DECOMPOSITION.cofactor1.even
    assert not _DECOMPOSITION.cofactor2.even


def _folded_and_general(psi, pinned, oversample):
    # wiener_norm's estimate and windows for psi as declared even, and for psi undeclared
    declared = _declaring(psi, pinned)
    return [_read_windows(m, _SMALL, oversample)
            for m in (declared, dataclasses.replace(declared, even=False))]


@pytest.mark.parametrize("oversample", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("name", sorted(REGISTRY) + ["complex constant"])
@settings(max_examples=4, deadline=None)
@given(data=st.data(), pinned=st.sampled_from([None, 0.0]))
def test_the_fold_of_an_even_symbol_agrees_with_the_general_path(name, oversample, data,
                                                                 pinned):
    """For each registry symbol, and a constant with an imaginary part, the estimate from the
    phases q <= P / 2 alone, a mirrored pair weighted 2, matches that of every phase: windows
    within 1e-14 of their maximum, totals within 1e-13, the same constant term and verdict."""
    if name == "complex constant":
        psi = constant(data.draw(st.complex_numbers(max_magnitude=10.0).filter(
            lambda v: v.imag != 0.0), label="value"))
    else:
        psi = REGISTRY[name](**data.draw(_PARAMS[name], label="params"))
    assert psi.even
    (folded, folded_windows), (general, general_windows) = _folded_and_general(
        psi, pinned, oversample)
    assert len(folded_windows) == len(general_windows) == 2
    for window, reference in zip(folded_windows, general_windows):
        assert np.max(np.abs(window - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert folded.total == pytest.approx(general.total, rel=1e-13)
    assert folded.refined_total == pytest.approx(general.refined_total, rel=1e-13)
    assert folded.const_at_infinity == general.const_at_infinity
    assert folded.converged == general.converged


@pytest.mark.parametrize("even", [True, False])
def test_an_overflow_of_a_mirrored_pairs_weight_is_refused(even):
    # 1.7e308 at the one node of phase 3 of 8 at r = 0, and at its mirror image in phase 5: its
    # inverse is finite, and twice its samples are not.  Folded, the weighted samples are
    # refused; undeclared, the total is.  Either way InvalidParameterError, with no warning,
    # which this suite turns into an error
    grid = GridSpec(40.0, 64)
    node = 3 * 0.5 * grid.refined(8).dy
    spike = Multiplier(label="spike", _fn=lambda y: np.where(np.abs(y) == node, 1.7e308, 0.0),
                       const_at_infinity=0.0, even=even)
    with pytest.raises(InvalidParameterError):
        wiener_norm(spike, grid)
