"""Print the benchmark trajectory over every committed ``BENCH_pr*.json``.

    python3 tools/bench_trajectory.py

Each file holds the medians of a parent and a change measured in one session,
but sessions ran on machines of different speed, so times from two files do
not compare.  Their change/parent ratios do: for every workload and time
metric (unit ``s``) the row gives the product of the ratios up to and
including each file, starting from 1 before the first.  Peak RSS does not
drift with machine speed, so its row gives the absolute medians instead: the
parent's in the first file, then each file's change.  Files are read in the
order of their number; one row is printed per workload and metric.  Nothing
is written.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_files() -> list[tuple[int, Path]]:
    found = ((re.fullmatch(r"BENCH_pr(\d+)\.json", p.name), p) for p in ROOT.iterdir())
    return sorted((int(m.group(1)), p) for m, p in found if m)


def trajectory(benches: list[dict]) -> list[tuple[str, str, list[str]]]:
    """Rows ``(workload, metric, cells)``: a start cell, then one cell per bench."""
    rows = []
    workloads = dict.fromkeys(w for b in benches for w in b["workloads"])
    for workload in workloads:
        units = {m: u for b in benches if workload in b["workloads"] for m, u in b["units"].items()}
        for metric, unit in units.items():
            chained = unit == "s"
            start = value = None
            cells = []
            for b in benches:
                sides = b["workloads"].get(workload)
                if sides is None or metric not in sides["parent"]["median"]:
                    cells.append("-")
                    continue
                parent = sides["parent"]["median"][metric]
                change = sides["change"]["median"][metric]
                if start is None:
                    start = value = 1.0 if chained else parent
                value = value * change / parent if chained else change
                cells.append(f"{value:.3f}")
            rows.append((workload, metric, ["-" if start is None else f"{start:.3f}"] + cells))
    return rows


def main() -> int:
    files = _bench_files()
    if not files:
        print("no BENCH_pr*.json at the repository root", file=sys.stderr)
        return 1
    benches = [json.loads(path.read_text()) for _, path in files]
    print("time metrics (s): product of change/parent median ratios up to each file; "
          "other metrics: medians, the first parent's, then each change's")
    header = ["workload", "metric", "start"] + [f"pr{n}" for n, _ in files]
    table = [header] + [[w, m, *cells] for w, m, cells in trajectory(benches)]
    widths = [max(len(row[k]) for row in table) for k in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
