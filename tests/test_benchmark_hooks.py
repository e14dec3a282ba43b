"""The benchmark tracer still finds every function it wraps.

``benchmarks/tracer.py`` replaces named functions of the package with timing
wrappers.  A rename or removal of one of them would only surface when the
benchmark runs; this test surfaces it in the ordinary test suite.
"""

from pathlib import Path

import pytest

from subord import fourier_core

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
