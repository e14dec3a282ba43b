"""Command-line interface: exit codes, report files, determinism."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subord import summability
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
    assert report["constant"] == pytest.approx(1.5894533544400302, rel=1e-6)
    # exponent triples are ;-separated to stay CSV-safe
    row = csv_path.read_text().splitlines()[1]
    assert "q=2;p1=2;p2=2" in row


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
])
def test_config_errors(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)], capsys) == 3
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
])
def test_json_config_refuses_coercion(config, tmp_path, capsys):
    """Booleans are not numbers, an integer key takes no fraction and an output
    path is a string in an existing directory: exit 3, before any computation."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    argv = (["compare", "--m1", "exp_abs_ft", "--m2", "exp_abs_ft"] if "p" in config
            else ["wiener-norm", "--multiplier", "gw_symbol:alpha=1"])
    assert run(argv + ["--json-config", str(cfg), "--out", str(out)], capsys) == 3
    assert not out.exists()


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


def test_json_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid-M": 1}')
    assert run(["gw-compare", "--alpha", "1", "--beta", "2",
                "--json-config", str(cfg)], capsys) == 3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_seed_variable_leaves_shipped_constants_alone(tmp_path, capsys, monkeypatch):
    """Only an explicit seed_pinned_constants() call rewrites the baseline."""
    fixture = Path(summability.__file__).parent / "_fixtures" / "gw_constants.json"
    before = fixture.read_bytes()
    monkeypatch.setenv("SUBORD_SEED_FIXTURES", "1")
    assert run(["lemma2", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
                "--out", str(tmp_path / "report.json")], capsys) == 0
    assert fixture.read_bytes() == before


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
