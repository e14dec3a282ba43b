"""Command-line interface: exit codes, report files, determinism."""

import contextlib
import inspect
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subord
from subord.comparison import REGISTRY
from subord.cli import CSV_COLUMNS, main


def run(argv, capsys=None):
    code = main(list(argv))
    if capsys is not None:
        capsys.readouterr()  # keep test output clean
    return code


# ---------------------------------------------------------------------------
# exit code 0
# ---------------------------------------------------------------------------

def test_wiener_norm_exits_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["wiener-norm", "--multiplier", "exp_abs_ft", "--out", str(out)],
               capsys) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["estimate"]["total"] == pytest.approx(2.0, abs=1e-3)


def test_compare_reflexive_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "cases.csv"
    code = run(["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft",
                "--out", str(out), "--csv", str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # every data row keeps the fixed column count: no stray commas in values
    for row in lines[1:]:
        assert len(row.split(",")) == len(CSV_COLUMNS)


def test_compare_takes_a_limit_where_both_first_probes_underflow(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["compare", "--m1", "one_minus_gw_symbol:alpha=60",
                "--m2", "one_minus_gw_symbol:alpha=60", "--out", str(out)], capsys) == 0
    assert json.loads(out.read_text())["constant"] == pytest.approx(1.0, abs=1e-9)


def test_gw_compare_default_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["gw-compare", "--alpha", "1", "--beta", "2", "--out", str(out)],
               capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["cases"]) >= 54
    assert report["constant"] == pytest.approx(2.0004268003491954, rel=1e-9)


def test_multiplier_spec_with_parameters(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["wiener-norm", "--multiplier", "gw_symbol:alpha=1", "--out", str(out)],
               capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["estimate"]["total"] == pytest.approx(1.0, abs=1e-3)


def test_lemma2_reports_decomposition(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["lemma2", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
                "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["neighborhoods"] == [[0.0, 1.0]]
    assert report["identity_residual"] <= 1e-10


def test_polynomials_accept_re_im_pairs(tmp_path, capsys):
    # coefficient entries may be [re, im] pairs
    out = tmp_path / "report.json"
    code = run(["lemma2", "--Q", "[[0,0],[1,0]]", "--P1", "[0,0,1]", "--P2", "[1]",
                "--out", str(out)], capsys)
    assert code == 0


def test_diffop_verify_full_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "cases.csv"
    code = run(["diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
                "--grid-N", "262144", "--q", "2",
                "--out", str(out), "--csv", str(csv_path)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["constant"] == pytest.approx(1.5895043621557547, rel=1e-6)
    # exponent triples are ;-separated to stay CSV-safe
    row = csv_path.read_text().splitlines()[1]
    assert "q=2;p1=2;p2=2" in row


@pytest.mark.parametrize("p,count", [("2000,inf", 12), ("1e308", 6)])
def test_a_large_finite_exponent_neither_underflows_nor_overflows(p, count, tmp_path, capsys):
    # max**p leaves the doubles, so the samples are divided by their max first: no p = 2000
    # case underflows to 0 <= 0 and is skipped, and p = 1e308 reads the node maximum
    argv = ["compare", "--m1", "one_minus_gw_symbol:alpha=2",
            "--m2", "one_minus_gw_symbol:alpha=1"]
    out, sup = tmp_path / "report.json", tmp_path / "sup.json"
    assert run(argv + ["--p", p, "--out", str(out)]) == 0
    assert run(argv + ["--p", "inf", "--out", str(sup)]) == 0
    assert capsys.readouterr().err == ""
    cases = json.loads(out.read_text())["cases"]
    assert len(cases) == count
    if p == "1e308":
        assert [(c["lhs_norm"], c["rhs_norm"]) for c in cases] == [
            (c["lhs_norm"], c["rhs_norm"]) for c in json.loads(sup.read_text())["cases"]]


def test_a_large_partner_exponent_keeps_every_case(tmp_path, capsys):
    # the partner exponent of q = p1 = 1e6, p2 = 1 is 1e6: factor2 is about the sup of the
    # density rather than 0, and no norm of an operator image underflows or overflows
    out = tmp_path / "report.json"
    assert run(["diffop-verify", "--grid-N", "262144", "--Q", "[0,1]", "--P1", "[0,0,1]",
                "--P2", "[1]", "--q", "1e6", "--p1", "1e6", "--p2", "1",
                "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["factor2"] == pytest.approx(0.06621777462869614, rel=1e-6)
    assert len(report["cases"]) == 5


def test_lemma2_centres_neighborhoods_on_exact_roots(tmp_path, capsys):
    # (y-1.5)^3 (y-1.501) from its decimal coefficients: a neighborhood on each root
    out = tmp_path / "report.json"
    assert run(["lemma2", "--Q", "[1]", "--P1", "[5.065875,-13.50675,13.5045,-6.001,1]",
                "--P2", "[1]", "--grid-L", "131072", "--grid-N", "262144", "--out", str(out)],
               capsys) == 0
    assert [c for c, _ in json.loads(out.read_text())["neighborhoods"]] == [1.5, 1.501]


def test_lemma2_roots_a_triple_root_beside_a_close_one(tmp_path, capsys):
    # (y-1)^3 (y-1.001): a triple root 1e-3 from a simple one
    out = tmp_path / "report.json"
    assert run(["lemma2", "--Q", "[1]", "--P1", "[1.001,-4.003,6.003,-4.001,1]", "--P2", "[1]",
                "--grid-L", "32768", "--grid-N", "32768", "--out", str(out)], capsys) == 0
    assert [c for c, _ in json.loads(out.read_text())["neighborhoods"]] == [1.0, 1.001]


# ---------------------------------------------------------------------------
# exit code 1: hypothesis violations
# ---------------------------------------------------------------------------

def test_lemma2_hypothesis_violation(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["lemma2", "--Q", "[1]", "--P1", "[0,1]", "--P2", "[0,1]",
                "--out", str(out)], capsys)
    assert code == 1
    report = json.loads(out.read_text())  # report still written
    assert report["passed"] is False
    assert any("y=0" in v["detail"] for v in report["violations"])


def test_gw_compare_rejects_unordered_pair(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["gw-compare", "--alpha", "2", "--beta", "1", "--out", str(out)],
               capsys)
    assert code == 1
    assert json.loads(out.read_text())["error"]["type"] == "InvalidParameterError"


def test_unknown_multiplier_is_a_hypothesis_error(capsys):
    assert run(["wiener-norm", "--multiplier", "no_such_symbol"], capsys) == 1


def test_a_vanishing_denominator_is_a_hypothesis_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["compare", "--m1", "constant:value=1", "--m2", "constant:value=0",
                "--out", str(out)], capsys) == 1
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "InvalidParameterError",
                     "message": "denominator symbol vanishes identically on the dual grid"}


@pytest.mark.parametrize("argv", [
    ["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft", "--p", "0.5"],
    ["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft", "--p=-inf"],
    ["gw-compare", "--alpha", "1", "--beta", "2", "--p=-inf"],
])
def test_exponent_below_one_is_a_hypothesis_error(argv, tmp_path, capsys):
    # -inf is not the sup norm: it is refused like any p below 1
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)], capsys) == 1
    assert json.loads(out.read_text())["error"]["type"] == "InvalidParameterError"


# ---------------------------------------------------------------------------
# exit code 2: numerical failures
# ---------------------------------------------------------------------------

def test_diffop_verify_underresolved_grid(tmp_path, capsys):
    # the default grid cannot carry the spline suite under a second-order
    # symbol: the bandwidth gate fires, reported as a numerical failure.  At
    # L=64 the spline spectrum vanishes at both dual edge nodes, but
    # not in the rest of the outer band, and the gate still fires.
    out = tmp_path / "report.json"
    for grid in ([], ["--grid-L", "64", "--grid-N", "16384"]):
        code = run(["diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
                    "--out", str(out)] + grid, capsys)
        assert code == 2
        assert json.loads(out.read_text())["error"]["type"] == "BandwidthExceededError"


def test_wiener_norm_on_too_few_dual_nodes(tmp_path, capsys):
    # 16 dual nodes leave the outer 5% of the upper side empty
    out = tmp_path / "report.json"
    code = run(["wiener-norm", "--multiplier", "gw_symbol:alpha=1", "--grid-N", "16",
                "--oversample", "1", "--out", str(out)], capsys)
    assert code == 2
    assert json.loads(out.read_text())["error"]["type"] == "GridTooSmallError"


@pytest.mark.parametrize("argv", [
    ["--P1", "[0,0,1]", "--P2", "[-1,0,1]", "--grid-L", "1e20"],
    ["--P1", "[0,0,1]", "--P2", "[-1,0,1]", "--grid-L", "1e308"],
    ["--P1", "[-7,1]", "--P2", "[1]", "--grid-N", "64"],
])
def test_lemma2_refuses_a_neighborhood_beyond_the_dual_window(argv, tmp_path, capsys):
    # a huge window leaves a dual window far narrower than the neighborhood of the root
    # y = 0; at N = 64 the dual half-length is 2.5 and the root y = 7 lies outside it.
    # A local grid sampled at a sixteenth of the dual step would grow with L instead
    out = tmp_path / "report.json"
    assert run(["lemma2", "--Q", "[0,1]", *argv, "--out", str(out)], capsys) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "NeighborhoodDegenerateError"
    assert "dual window" in error["message"]


def test_diffop_verify_refuses_a_half_length_whose_square_overflows(tmp_path, capsys):
    # the measure-norm factor's tail fit squares x up to 2 L, as in wiener-norm
    out = tmp_path / "report.json"
    assert run(["diffop-verify", "--Q", "[1]", "--P1", "[1]", "--P2", "[1]", "--grid-N", "16",
                "--grid-L", "1e300", "--out", str(out)], capsys) == 1
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "InvalidParameterError",
                     "message": "half_length 1e+300 squares beyond a double"}


@pytest.mark.parametrize("argv", [
    ["wiener-norm", "--multiplier", "gw_symbol:alpha=400"],
    ["gw-compare", "--alpha", "1", "--beta", "400"],
    ["compare", "--m1", "gw_symbol:alpha=300", "--m2", "constant"],
])
def test_a_large_exponent_overflows_without_a_warning(argv, tmp_path, capsys):
    # |y|**alpha overflows to inf where the symbol is exp(-inf) = 0: no RuntimeWarning,
    # which this suite turns into an error, and a report like any unconverged estimate
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["passed"] is False


def test_an_overflowing_inversion_is_refused_in_a_report(tmp_path, capsys):
    # psi - 1e308 overflows in the estimator's inverse FFT: a report of the non-finite
    # inverse, not a RuntimeWarning, which this suite turns into an error
    out = tmp_path / "report.json"
    assert run(["wiener-norm", "--multiplier", "exp_abs_ft", "--const-at-infinity", "1e308",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "InvalidParameterError",
                     "message": "values contain non-finite entries"}


def test_a_declared_constant_term_whose_subtraction_overflows_is_refused_in_a_report(tmp_path,
                                                                                    capsys):
    # 1e308 - (-1e308) leaves the doubles where the pass subtracts the constant term: the
    # inversion's input check refuses it, with no RuntimeWarning, which this suite turns into
    # an error
    out = tmp_path / "report.json"
    assert run(["wiener-norm", "--multiplier", "constant:value=1e308",
                "--const-at-infinity=-1e308", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "InvalidParameterError",
                     "message": "values contain non-finite entries"}


@pytest.mark.parametrize("argv", [
    ["compare", "--m1", "exp_abs_ft", "--m2", "constant:value=1e308", "--grid-N", "64"],
    ["compare", "--m1", "constant:value=1e308", "--m2", "constant", "--grid-N", "16"],
])
def test_an_overflowing_operator_is_refused_in_a_report(argv, tmp_path, capsys):
    # 1e308 times a test function's transform overflows in apply_symbol: a report of the
    # non-finite result, not a RuntimeWarning
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "InvalidParameterError",
                     "message": "values contain non-finite entries"}


def test_a_constant_term_near_the_top_of_the_doubles_is_read_without_overflow(tmp_path,
                                                                             capsys):
    # a band of 1e308s sums beyond the doubles, so its mean is taken of the band scaled by a
    # power of two
    out = tmp_path / "report.json"
    assert run(["wiener-norm", "--multiplier", "constant:value=1e308", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    estimate = json.loads(out.read_text())["estimate"]
    assert estimate["const_at_infinity"] == [1e308, 0.0]
    assert estimate["total"] == 1e308


@pytest.mark.parametrize("argv, refused", [
    (["lemma2", "--Q", "[1e308,1]", "--P1", "[0,0,1]", "--P2", "[1]"], False),
    (["lemma2", "--Q", "[1e308,1]", "--P1", "[0,0,1e308]", "--P2", "[1]"], True),
], ids=["argv0", "argv1"])
def test_polynomial_values_beyond_a_double_are_refused_in_a_report(argv, refused, tmp_path,
                                                                   capsys):
    # the second overflows where the construction evaluates the symbols on the grid (the
    # roots are decided over Q): a report, not a RuntimeWarning, which this suite turns into
    # an error.  The first's values stay doubles: P1 and P2 share no root, and the second
    # cofactor's sup is |Q(0) / P2(0)|
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == (1 if refused else 0)
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    if refused:
        assert report["error"] == {"type": "InvalidParameterError",
                                   "message": "polynomial values overflow a double"}
    else:
        assert report["cofactor2_sup"] == 1e308


@pytest.mark.parametrize("argv", [
    ["compare", "--m1", "constant:value=inf", "--m2", "constant"],
    ["wiener-norm", "--multiplier", "constant:value=nan"],
])
def test_a_non_finite_constant_symbol_is_refused_in_a_report(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)], capsys) == 1
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "InvalidParameterError"
    assert error["message"].startswith("constant value must be finite")


# ---------------------------------------------------------------------------
# exit code 3: config errors (no report file)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["gw-compare", "--alpha", "1", "--beta", "2", "--grid-N", "1000"],
    ["gw-compare", "--alpha", "1", "--beta", "2", "--grid-N", "0"],
    ["gw-compare", "--alpha", "1", "--beta", "x"],
    ["lemma2", "--Q", "not json", "--P1", "[0,1]", "--P2", "[1]"],
    ["lemma2", "--Q", "[]", "--P1", "[0,1]", "--P2", "[1]"],
    ["lemma2", "--Q", "[[1,2,3]]", "--P1", "[0,1]", "--P2", "[1]"],
    ["no-such-command"],
    ["gw-compare", "--alpha", "1", "--beta", "2", "--eps", "1,spam"],
    ["wiener-norm", "--multiplier", "gw_symbol:alpha"],
    ["wiener-norm", "--multiplier", "gw_symbol:alpha=1,alpha=2"],
    ["wiener-norm", "--multiplier", "exp_abs_ft", "--oversample", "3"],
    ["wiener-norm", "--multiplier", "exp_abs_ft", "--oversample", "0"],
    ["selftest", "--oversample", "2"],
    ["lemma2", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]", "--oversample", "2"],
    ["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft", "--p", ","],
    ["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft", "--p", "1,,2"],
    ["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft", "--p", "1,2,"],
    ["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft", "--p", "[1,2,]"],
    ["wiener-norm", "--multiplier", "gw_ratio:alpha=1,,beta=2"],
    ["wiener-norm", "--multiplier", "gw_symbol:alpha=1,"],
    ["wiener-norm", "--multiplier", "exp_abs_ft", "--json-config", __file__ + ".missing"],
    ["wiener-norm", "--multiplier", "exp_abs_ft", "--json-config", __file__],  # not JSON
    ["wiener-norm", "--multiplier", "gw_symbol:alpha=x"],
])
def test_config_errors(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)], capsys) == 3
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_const_at_infinity_must_be_finite(value, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["wiener-norm", "--multiplier", "exp_abs_ft", f"--const-at-infinity={value}"]
    assert run(argv + ["--out", str(out)]) == 3
    assert "argument --const-at-infinity: value must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_json_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid-N": 32768, "beta": 3}')
    out = tmp_path / "report.json"
    code = run(["gw-compare", "--alpha", "1", "--beta", "2", "--eps", "1",
                "--p", "2", "--json-config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["beta"] == 3.0
    assert report["grid"]["size"] == 32768


@pytest.mark.parametrize("config", [
    {"grid-N": 16384.9},
    {"oversample": 8.7},
    {"grid-L": True, "grid-N": 64},
    {"oversample": True},
    {"const-at-infinity": False},
    {"p": [1, True]},
    {"out": 7},
    {"csv": 7},
    {"csv": "no-such-directory/cases.csv"},
    {"const-at-infinity": None},
    {"multiplier": None},
    {"multiplier": 7},
    {"oversample": 3},
    [{"grid-N": 1024}],
])
def test_json_config_refuses_coercion(config, tmp_path, capsys):
    """Booleans are not numbers, an integer key takes no fraction, an output
    path is a string in an existing directory and a config is an object, not an
    array: exit 3, before any computation."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    argv = (["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft"] if "p" in config
            else ["wiener-norm", "--multiplier", "gw_symbol:alpha=1"])
    assert run(argv + ["--json-config", str(cfg), "--out", str(out)], capsys) == 3
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["report", "./report", "sub/../report"])
def test_a_report_and_its_case_table_may_not_share_a_file(spelling, tmp_path, capsys,
                                                          monkeypatch):
    """One file named twice, however spelled, would end holding only the CSV."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    argv = ["gw-compare", "--alpha", "1", "--beta", "2", "--out", "report", "--csv", spelling]
    assert run(argv, capsys) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_a_report_may_not_overwrite_its_config(flag, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid-N": 1024}')
    argv = ["wiener-norm", "--multiplier", "exp_abs_ft", "--json-config", str(cfg),
            flag, str(tmp_path / "." / "cfg.json")]
    assert run(argv, capsys) == 3
    assert cfg.read_text() == '{"grid-N": 1024}'
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


_WIENER = ["wiener-norm", "--multiplier", "gw_symbol:alpha=1"]
_POLYS = ["--Q", "[1]", "--P1", "[0,0,1]", "--P2", "[1]"]


@pytest.mark.parametrize("argv,key,text,value", [
    (_WIENER, "grid-N", "16384.0", 16384.0),
    (_WIENER, "grid-N", "16384.9", 16384.9),
    (["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft"], "p", "1,2", [1, 2]),
    (["lemma2"] + _POLYS, "Q", "[0,1]", [0, 1]),
    (_WIENER, "multiplier", "gw_symbol:alpha=1,alpha=2", "gw_symbol:alpha=1,alpha=2"),
])
def test_flag_and_config_key_take_one_parse_path(argv, key, text, value, tmp_path, capsys):
    """A value given as the flag ``--key text`` and as the config key ``{key: value}``
    ends in the same exit code and, when it runs, in the same report bytes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    code = run(argv + [f"--{key}", text, "--out", str(by_flag)], capsys)
    assert run(argv + ["--json-config", str(cfg), "--out", str(by_config)], capsys) == code
    if code == 0:
        assert by_flag.read_bytes() == by_config.read_bytes()
    else:
        assert not by_flag.exists() and not by_config.exists()


def test_json_config_accepts_whole_float_for_integer_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid-N": 16384.0, "oversample": 8.0}')
    out = tmp_path / "report.json"
    assert run(["wiener-norm", "--multiplier", "gw_symbol:alpha=1",
                "--json-config", str(cfg), "--out", str(out)], capsys) == 0
    assert json.loads(out.read_text())["grid"]["size"] == 16384


def _config_values(bound, valid):
    # JSON values of every kind, numbers and digit strings within bound, and
    # values the key accepts so that runs get past the configuration too
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-bound, bound),
                        st.floats(-bound, bound), st.sampled_from([math.nan, math.inf, -math.inf]),
                        st.text(max_size=len(str(bound)) - 1))
    anything = (scalars | st.lists(scalars, max_size=2)
                | st.dictionaries(st.text(max_size=2), scalars, max_size=2))
    return st.booleans().flatmap(lambda accepted: valid if accepted else anything)


@settings(max_examples=60, deadline=None)
@given(config=st.fixed_dictionaries({}, optional={
    "grid-N": _config_values(2**14, st.sampled_from([16, 1024, 16384, 16384.0])),
    "oversample": _config_values(8, st.sampled_from([1, 2, 8, 8.0])),
    "grid-L": _config_values(2**14, st.floats(0.5, 100.0)),
    "const-at-infinity": _config_values(8, st.floats(-2.0, 2.0)),
    "multiplier": _config_values(2**14, st.sampled_from(
        ["gw_symbol:alpha=1", "exp_abs_ft", "constant:value=2", "gw_symbol:alpha=x"])),
}))
def test_any_json_grid_config_ends_in_an_exit_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["wiener-norm", "--multiplier", "gw_symbol:alpha=1",
                         "--json-config", str(cfg)])
    assert code in (0, 1, 2, 3)


#: flag values no wiener-norm run accepts as they stand: zero, negatives, non-numbers,
#: non-finite numbers and numbers beyond a double
_BAD_VALUES = ["0", "-1", "-16", "nan", "inf", "-inf", "abc", "", "1e999", "0x10", "2.5"]


def _flag(valid):
    return st.one_of(valid, st.sampled_from(_BAD_VALUES))


def _ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(max_examples=150, deadline=None)
@given(flags=st.fixed_dictionaries({}, optional={
    "--grid-L": _flag(st.one_of(st.floats(1e-3, 1e4).map(repr),
                                st.sampled_from(["1e-300", "1e300", "5e-324"]))),
    "--grid-N": _flag(st.sampled_from(["16", "32", "1024", "4096", "4096.0", "48", "4095"])),
    "--oversample": _flag(st.sampled_from(["1", "2", "3", "4", "6", "8", "8.0"])),
    "--const-at-infinity": _flag(st.one_of(st.floats(-5.0, 5.0).map(repr),
                                           st.sampled_from(["1e308", "-1e308"]))),
}), multiplier=st.sampled_from(["gw_symbol:alpha=1", "exp_abs_ft", "constant:value=2",
                                "gaussian_ft", "constant:value=1e308"]), joined=st.booleans())
@example(flags={"--const-at-infinity": "-1e308"}, multiplier="constant:value=1e308", joined=True)
def test_any_wiener_norm_argv_ends_in_an_exit_code_without_a_traceback(flags, multiplier,
                                                                        joined):
    """Drawn grids stay at or below 4096 points oversampled 8 times, a few MB per run.  A
    symbol and a declared constant term near the top of the doubles, of either sign, may
    overflow where the one is subtracted from the other; the example is such a pair, which
    the draws alone seldom reach, as four conditions must meet."""
    argv = ["wiener-norm", "--multiplier", multiplier]
    for flag, value in flags.items():
        argv += [f"{flag}={value}"] if joined else [flag, value]
    _ends_in_an_exit_code(argv)


#: numbers for symbol parameters, exponents and step sizes: usable ones, drawn a third of
#: the time, and any from -4 to 4, zero, negatives, non-finite ones and one near the top of
#: the doubles
_NUMBERS = st.one_of(st.sampled_from(["0.5", "1", "2", "inf"]), st.floats(-4.0, 4.0).map(repr),
                     st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308"]))


def _spec(name):
    # a registry symbol with numeric values for its own parameters, some of them left out
    params = st.fixed_dictionaries({}, optional={
        key: _NUMBERS for key in inspect.signature(REGISTRY[name]).parameters})
    return params.map(lambda kw: f"{name}:{','.join(f'{k}={v}' for k, v in kw.items())}")


_SPECS = st.sampled_from(sorted(REGISTRY)).flatmap(_spec)
_LISTS = st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join)
#: ascending coefficients of degree at most 4, as JSON (which reads NaN and Infinity)
_POLYS_DRAWN = st.lists(st.one_of(st.integers(-3, 3).map(str), st.sampled_from(
    ["0.5", "1e308", "-1e308", "1e-300", "NaN", "Infinity"])), min_size=1, max_size=5).map(
    lambda coeffs: f"[{','.join(coeffs)}]")
#: grids of at most 4096 points, oversampled at most 8 times
_GRIDS = st.fixed_dictionaries({"--grid-N": st.sampled_from(["16", "64", "256", "1024", "4096"])},
                               optional={"--grid-L": st.sampled_from(["0.5", "40", "200"])})


def _argv(command, flags, grid):
    # joined, so a negative value is not read as a flag
    return [command] + [f"{flag}={value}" for flag, value in {**flags, **grid}.items()]


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries({"--m1": _SPECS, "--m2": _SPECS}, optional={
    "--p": _LISTS, "--oversample": st.sampled_from(["1", "2", "8"])}), grid=_GRIDS)
def test_any_compare_argv_ends_in_an_exit_code_without_a_traceback(flags, grid):
    _ends_in_an_exit_code(_argv("compare", flags, grid))


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries({"--alpha": _NUMBERS, "--beta": _NUMBERS}, optional={
    "--p": _LISTS, "--eps": _LISTS, "--oversample": st.sampled_from(["1", "2", "8"])}),
    grid=_GRIDS)
def test_any_gw_compare_argv_ends_in_an_exit_code_without_a_traceback(flags, grid):
    _ends_in_an_exit_code(_argv("gw-compare", flags, grid))


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries({"--Q": _POLYS_DRAWN, "--P1": _POLYS_DRAWN,
                                    "--P2": _POLYS_DRAWN}), grid=_GRIDS)
def test_any_lemma2_argv_ends_in_an_exit_code_without_a_traceback(flags, grid):
    _ends_in_an_exit_code(_argv("lemma2", flags, grid))


#: polynomials that pass the hypotheses, with roots at 0, at -1 and 1, and at 3, or any drawn
_DIFFOP_POLYS = st.one_of(st.sampled_from([
    {"--Q": "[0,1]", "--P1": "[0,0,1]", "--P2": "[1]"},
    {"--Q": "[0,1]", "--P1": "[-1,0,1]", "--P2": "[1]"},
    {"--Q": "[1,1]", "--P1": "[-1,0,1]", "--P2": "[1,1]"},
    {"--Q": "[-3,1]", "--P1": "[9,-6,1]", "--P2": "[1]"},
]), st.fixed_dictionaries({"--Q": _POLYS_DRAWN, "--P1": _POLYS_DRAWN, "--P2": _POLYS_DRAWN}))


#: the exponents 1, 2 and inf, or any of _NUMBERS
_EXPONENTS = st.one_of(st.sampled_from(["1", "2", "inf"]), _NUMBERS)


@settings(max_examples=60, deadline=None)
@given(polys=_DIFFOP_POLYS, flags=st.fixed_dictionaries({}, optional={
    "--q": _EXPONENTS, "--p1": _EXPONENTS, "--p2": _EXPONENTS,
    "--oversample": st.sampled_from(["1", "2", "4"])}),
    grid=st.fixed_dictionaries({"--grid-N": st.sampled_from(["16", "32", "64", "256", "4096"])},
                               optional={"--grid-L": st.sampled_from(
                                   ["0.5", "40", "2500", "1e6", "1e300"])}))
def test_any_diffop_verify_argv_ends_in_an_exit_code_without_a_traceback(polys, flags, grid):
    """Grids of 16 and 32 nodes, where a factor's grid pair has at least 16 and 32 nodes, and
    grids so coarse that a root's neighborhood leaves the dual window of the pair's coarse
    grid, which grows the pair, or the caller's, which is refused."""
    _ends_in_an_exit_code(_argv("diffop-verify", {**polys, **flags}, grid))


def test_json_config_rejects_unknown_key(tmp_path, capsys):
    # lemma2 and selftest read no oversampling, so they do not take the key
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    for config, argv in (({"grid-M": 1}, ["gw-compare", "--alpha", "1", "--beta", "2"]),
                         ({"oversample": 2}, ["selftest"]),
                         ({"oversample": 2}, ["lemma2"] + _POLYS)):
        cfg.write_text(json.dumps(config))
        assert run(argv + ["--json-config", str(cfg), "--out", str(out)], capsys) == 3
        assert not out.exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _package_files():
    root = Path(subord.__file__).parent
    return {str(path.relative_to(root)): (path.stat().st_size, path.read_bytes())
            for path in sorted(root.rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts}


def test_a_cli_run_writes_no_file_under_the_package(tmp_path, capsys, monkeypatch):
    """A run writes only its reports: nothing under the package is added, changed or
    removed, whatever the environment says (SUBORD_SEED_FIXTURES once made a run
    rewrite a shipped file)."""
    before = _package_files()
    monkeypatch.setenv("SUBORD_SEED_FIXTURES", "1")
    assert run(["gw-compare", "--alpha", "1", "--beta", "2",
                "--out", str(tmp_path / "gw.json")], capsys) == 0
    assert run(["lemma2", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
                "--out", str(tmp_path / "lemma2.json")], capsys) == 0
    assert _package_files() == before


def test_selftest_passes_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["selftest", "--out", str(a)], capsys) == 0
    assert run(["selftest", "--out", str(b)], capsys) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_without_out_flag_go_to_stdout(capsys):
    code = main(["wiener-norm", "--multiplier", "constant:value=1"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["estimate"]["total"] == 1.0
