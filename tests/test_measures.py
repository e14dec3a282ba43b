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
    _inverse_window,
    _limit_at_infinity,
    _samples,
    _wiener_components,
    _window,
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
    # 1.38
    grid = GridSpec(40.0, 2 ** 12)
    fine_array = 16 * grid.refined(2).refined(8).size
    wiener_norm(gw_symbol(1.0), grid)  # warm
    tracemalloc.start()
    try:
        wiener_norm(gw_symbol(1.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * fine_array


def test_wiener_norm_peak_memory_of_a_cofactor():
    # in complex arrays of the doubled window's fine grid; the first cofactor sampled on the
    # whole dual grid in one call held about six of them, its masks and quotient temporaries,
    # sampled in blocks twice with a shift copy per pass 2.5, sampled once 1.9, sampled into
    # two halves, joined in place, 1.89, again set by the block temporaries of sampling, and
    # sampled and inverted one half at a time 1.66
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
    assert peak <= 1.8 * fine_array


def test_operator_factor_peak_memory_of_a_cofactor():
    # in complex arrays of the finer pass's fine grid: a p == q factor of diffop-verify is
    # a single-window pass on each grid of a pair, one at a time, where wiener_norm's
    # doubled-window pass peaked at 5 of them; the shift copy of the samples took it to
    # 3.16, an inversion in place takes 2.78.  The pole's neighborhood reaches |y| = 1
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
    assert peak <= 3.0 * fine_array


def test_operator_factor_peak_memory_on_a_fine_grid():
    # in complex arrays of the finer factor grid, (40, 2^15) refined 4 times: the caller's
    # 2^18 nodes set no array, and the coarse pass is freed before the finer one samples
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
    assert peak <= 3.0 * fine_array


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
#: arrays of the doubled window's 2^21-point fine grid
_RSS_PROBE = """
import resource, sys
from subord.diffops import construct_decomposition
from subord.fourier_core import GridSpec
from subord.measures import wiener_norm
d = construct_decomposition([0, 1], [0, 0, 1], [1], GridSpec(40.0, 2 ** 18))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
wiener_norm(d.cofactor1, d.grid, oversample=4)
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
    # unlike tracemalloc, ru_maxrss counts numpy's FFT work memory too.  Sampling the
    # cofactor in one call grew it by 5.2 arrays, sampling it in blocks by 3.1, sampling it
    # once in FFT order and inverting in place by 2.38, inverting its even and odd halves
    # instead of the doubled array (no 2^21-point transform and its work memory) by 1.25 to
    # 1.33, and sampling and inverting one half at a time by 0.94
    assert _probe_output(_RSS_PROBE) <= 1.2


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
    pytest.param("gw_ratio(1.0, 2.0)", 5.0, id="real"),
    pytest.param("Multiplier(label='complex', _fn=lambda y: gw_ratio(1.0, 2.0)(y)"
                 " + 1j * y * np.exp(-y * y))", 6.1, id="complex"),
])
def test_real_input_transforms_lower_the_process_peak(symbol, bound):
    # a complex transform per pass grew ru_maxrss by 6.66 arrays for the real symbol and by
    # 6.70 for the complex one.  A real-input transform's pass holds the real part, its half
    # spectrum, numpy's work memory of about two arrays and, in the second pass, the first
    # pass's window: 4.54.  The complex symbol's real part is freed before the imaginary
    # part's transform: 5.60
    assert _probe_output(_PARTS_PROBE % symbol) <= bound


@pytest.mark.parametrize("at_origin", [math.nan, math.inf])
def test_both_estimators_reject_a_non_finite_symbol(at_origin):
    # the symbol is non-finite at the dual node y = 0 only
    bad = Multiplier(label="bad",
                     _fn=lambda y: np.where(y == 0.0, at_origin, np.exp(-np.abs(y))) + 0j)
    with pytest.raises(InvalidParameterError):
        wiener_norm(bad, GRID)


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
@given(case=_SYMBOLS, layout=st.sampled_from(_LAYOUTS), offset=st.sampled_from([0.0, 0.5]))
def test_blocked_sampling_matches_one_call_bit_for_bit(case, layout, offset):
    """Samples at the dual nodes or at the midpoints between them, with blocks of odd length
    too, are the real and imaginary parts of the even or the odd nodes of the doubled grid in
    FFT order, the imaginary part None where it is zero, and the constant term read off the
    nodes' samples is the whole grid's."""
    psi, pinned = case
    size, block = layout
    grid = GridSpec(40.0, size)
    doubled = np.fft.ifftshift(np.asarray(psi(grid.refined(2).dual_nodes()), dtype=np.complex128))
    with mock.patch.object(measures, "_BLOCK", block):
        re, im = _samples(psi, grid, offset)
    _assert_parts(re, im, doubled[int(2 * offset)::2])
    if offset == 0.0:
        y = grid.dual_nodes()
        whole = np.asarray(psi(y), dtype=np.complex128)
        _assert_parts(re, im, np.fft.ifftshift(whole))
        c = complex(pinned) if pinned is not None else _limit_at_infinity(re, im, grid)
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
    c = _limit_at_infinity(np.fft.ifftshift(whole.real), None, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = _centred_limit(whole, y, grid, None)
    if cmath.isfinite(direct):
        assert c == direct
    else:
        assert c == pytest.approx(value, rel=2e-4)


def _single_total(psi, grid, oversample, pinned):
    # one pass that samples its own grid, as diffop-verify's p == q factors run it
    fine = grid.refined(oversample)
    c, g = _window(psi, fine, None if pinned is None else complex(pinned), grid.size // 2)
    return _wiener_components(c, np.abs(g), fine.dx)[2]


#: (symbol, None): complex symbols that are not even, so neither ``psi`` nor its density ``g``
#: is real and the doubled window's odd half is turned by a complex twiddle
_SHIFTED = st.floats(-2.0, 2.0).map(lambda a: (
    Multiplier(label="shifted", _fn=lambda y: np.exp(-(y - a) ** 2 + 1j * y)), None))


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(_SYMBOLS, _SHIFTED), size=st.sampled_from([2 ** 8, 2 ** 10]),
       oversample=st.sampled_from([1, 2, 4, 8]))
def test_window_read_and_shared_sampling_match_independent_passes(case, size, oversample):
    """The window read, from the real-input transforms of the samples' parts, is inverse_ft's
    window up to rounding.  ``total``, from the even half of the doubled samples, is bit for
    bit that of a pass that samples its own grid.  The doubled window, joined from the even
    and odd halves' inversions, gives the ``refined_total`` of a direct pass on the doubled
    grid with the same constant term up to rounding: no sequence of half-length transforms
    rounds as the full-length one does."""
    psi, pinned = case
    grid = GridSpec(40.0, size)
    est = wiener_norm(_declaring(psi, pinned), grid, oversample=oversample)
    fine = grid.refined(oversample)
    centred = np.asarray(psi(fine.dual_nodes()), dtype=np.complex128) - est.const_at_infinity
    mid, n = fine.size // 2, size // 2
    reference = inverse_ft(SampledFunction(fine, centred, FREQUENCY)).values[mid - n + 1:mid + n]
    window = _window(psi, fine, est.const_at_infinity, n)[1]
    assert np.max(np.abs(window - reference)) <= 1e-14 * np.max(np.abs(reference))
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
    """The window |j| < N of an M = oversample * N point pass, as the doubled window reads it,
    is the M-periodic inverse DFT of the samples less c, scaled by 1 / dx, up to rounding,
    both as a pass reads it and as the parts' real-input windows joined.  At oversample 1 it
    wraps past M / 2, where a window sliced off the half spectrum would not broadcast."""
    grid = GridSpec(40.0, 2 ** 10)
    fine, n = grid.refined(oversample), grid.size
    values = np.fft.ifftshift(np.asarray(psi(fine.dual_nodes()), dtype=np.complex128)) - c
    reference = np.fft.ifft(values)[np.arange(1 - n, n) % fine.size] / fine.dx
    joined = (_inverse_window(values.real, n) + 1j * _inverse_window(values.imag, n)) / fine.dx
    for window in (_window(psi, fine, c, n)[1], joined):
        assert window.shape == reference.shape
        assert np.max(np.abs(window - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_a_pass_makes_one_real_input_transform_per_part(monkeypatch):
    # a real symbol's pass makes one rfft of its fine grid, a complex symbol's two, and no
    # complex transform runs, in wiener_norm's two passes and in those of factor_norm's pair
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
    for psi, parts in ((gw_ratio(1.0, 2.0), 1), (shifted, 2)):
        calls.clear()
        wiener_norm(psi, grid)
        assert calls == [("rfft", 8 * grid.size)] * (2 * parts)
        calls.clear()
        factor_norm(psi, grid, None, 0.0, 4)
        assert calls == [("rfft", 2 * grid.size)] * parts + [("rfft", 4 * grid.size)] * parts
