"""The project's pytest configuration: every warning is an error, yet a failing property is
reported as one failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PROBE = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass
"""


def test_a_failing_property_does_not_end_the_run(tmp_path):
    # hypothesis reports a falsified property through an import that warns; as an error, that
    # warning ended the session before the next test ran
    probe = tmp_path / "test_probe.py"
    probe.write_text(_PROBE)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), str(probe)],
                         cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout[-2000:]
