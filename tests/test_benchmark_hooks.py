"""The benchmark still finds every function it wraps and checks with the program's levels.

``benchmarks/tracer.py`` replaces named functions of the package with timing
wrappers, and ``benchmarks/workloads.py`` keeps its own copies of two
program constants.  A rename, a removal or a changed level would only
surface when the benchmark runs; these tests surface it in the ordinary
test suite.
"""

import json
from pathlib import Path

import pytest

from subord import cli, comparison, diffops, fourier_core

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracer
    return tracer


def test_tracer_installs_and_removes(tracer_module):
    original = fourier_core.forward_ft
    t = tracer_module.Tracer()
    t.install()
    try:
        assert fourier_core.forward_ft is not original
    finally:
        t.remove()
    assert fourier_core.forward_ft is original


def test_benchmark_checks_use_the_program_levels(monkeypatch):
    # the report checks hard-code the pass rule and the identity level
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads
    assert workloads._TOLERANCE == comparison.TOLERANCE
    assert workloads._IDENTITY_TOL == diffops._IDENTITY_TOL


@pytest.mark.parametrize("argv,cases,gw_spans", [
    (["gw-compare", "--alpha", "1", "--beta", "2"], 54, 1),
    (["compare", "--m1", "one_minus_gw_symbol:alpha=2", "--m2", "one_minus_gw_symbol:alpha=1"],
     18, 0),
])
def test_each_case_is_counted_once(tracer_module, argv, cases, gw_spans, tmp_path, capsys):
    # gw-compare and compare share one row routine but neither driver calls the other, so
    # the wraps of gw_verify and verify_comparison see each case once
    out = tmp_path / "report.json"
    t = tracer_module.Tracer()
    t.install()
    try:
        assert cli.main([*argv, "--out", str(out)]) == 0
    finally:
        t.remove()
    capsys.readouterr()
    assert len(json.loads(out.read_text())["cases"]) == cases
    assert t.counts["cases"] == cases
    assert t.calls()["summability.gw_verify"] == gw_spans
