"""The benchmark trajectory tool runs on the committed BENCH files and writes nothing."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _snapshot():
    return {p: p.stat().st_mtime_ns for d in ("benchmarks", "tools") for p in (ROOT / d).rglob("*")}


def test_bench_trajectory_prints_one_row_per_workload_and_metric():
    benches = [json.loads(p.read_text()) for p in ROOT.glob("BENCH_pr*.json")]
    assert benches
    units = {m: u for b in benches for m, u in b["units"].items()}
    expected = sorted((w, m) for w in {w for b in benches for w in b["workloads"]} for m in units)
    before = _snapshot()
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_trajectory.py")],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    assert _snapshot() == before
    rows = [line.split() for line in out.splitlines()[2:]]
    assert sorted((row[0], row[1]) for row in rows) == expected
    for row in rows:  # a start cell and one cell per file; time ratios start from 1
        assert len(row) == 3 + len(benches)
        assert units[row[1]] != "s" or row[2] == "1.000"
