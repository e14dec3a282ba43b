"""Benchmark of the ``subord`` command line: one workload per run.

Run from the repository root, without installing the package::

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 30 --trace 0

Untraced (``--trace 0``): set-up time is the median of five subprocesses
that import ``subord.cli``.  One untimed in-process pass warms this process.
Then whole rounds run until ``--seconds`` would be exceeded (at least one
round); a round runs every operation of the workload once as a ``python -m
subord.cli`` subprocess, one at a time, and then through ``subord.cli.main``
in this process, pass after pass until the passes have taken
``IN_PROCESS_MIN_S``.  The last line of standard output is a JSON object with
the end-to-end metrics (medians over passes).

Traced (``--trace 1``): ``python -X importtime``, one subprocess pass, an
untimed in-process pass, then untraced, traced under :class:`tracer.Tracer`
and untraced in-process passes; the last line holds the per-layer metrics.

Either way every report is checked against :mod:`oracle` and must be the
same bytes in every pass.  The seed only permutes the order of the
operations.  The exit code is 0 when the benchmark ran; a missing
``src/subord`` exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_SAMPLES = 5
#: in-process passes per round repeat until they have taken this long
IN_PROCESS_MIN_S = 5.0
DEFAULT_SEED = 1

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    path = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


class Spawner:
    """Runs children through :mod:`spawner`, so that their peak RSS is their own."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], log: Path) -> tuple[int, float, float]:
        """Exit code, peak RSS in MB and wall time of one child run to completion."""
        request = {"cmd": cmd, "cwd": str(ROOT), "env": self.env, "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended early")
        reply = json.loads(reply)
        return reply["code"], reply["rss_mb"], reply["elapsed_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def measure_setup(spawner: Spawner, out: Path) -> float:
    """Median wall time of a child that imports ``subord.cli`` and exits."""
    times = []
    for i in range(SETUP_SAMPLES):
        log = out / f"setup-{i}.log"
        code, _, elapsed = spawner.run([sys.executable, "-c", "import subord.cli"], log)
        if code != 0:
            raise RuntimeError(f"importing subord.cli failed; see {log}")
        times.append(elapsed)
    return statistics.median(times)


def read_reports(ops: list[Op], folder: Path) -> dict[str, bytes]:
    # each file is removed once read, so a pass that writes none is noticed
    reports = {}
    for op in ops:
        path = folder / f"{op.name}.json"
        reports[op.name] = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
    return reports


class Verdicts:
    """Checks every pass of every operation and tallies the outcome."""

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self.reference: dict[str, bytes] = {}
        self.problems: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _problems(self, op: Op, data: bytes) -> list[str]:
        if op.name not in self.problems:
            try:
                self.problems[op.name] = op.check(json.loads(data))
            except (ValueError, KeyError, TypeError) as exc:
                self.problems[op.name] = [f"unreadable report: {exc!r}"]
        return self.problems[op.name]

    def add_pass(self, label: str, codes: dict[str, int], reports: dict[str, bytes]) -> None:
        for op in self.ops:
            self.attempted += 1
            data = reports[op.name]
            reference = self.reference.setdefault(op.name, data)
            if data != reference:
                self.correct = False
                print(f"{label} {op.name}: report bytes differ from the first pass",
                      file=sys.stderr)
            problems = list(self._problems(op, data))
            if codes[op.name] != op.exit_code:
                problems.append(f"exit code {codes[op.name]}, expected {op.exit_code}")
            if problems:
                self.failed += 1
                if not op.known_fault:
                    self.correct = False
                kind = f"known fault: {op.known_fault}" if op.known_fault else "unexpected"
                print(f"{label} {op.name}: FAILED ({kind}): " + "; ".join(problems),
                      file=sys.stderr)


def subprocess_pass(verdicts: Verdicts, spawner: Spawner, folder: Path) -> tuple[float, float]:
    """Each operation as ``python -m subord.cli``, one after another.

    Returns the wall time of the whole batch and the largest peak RSS in MB.
    """
    folder.mkdir(parents=True, exist_ok=True)
    codes, peak = {}, 0.0
    start = time.perf_counter()
    for op in verdicts.ops:
        cmd = [sys.executable, "-m", "subord.cli", *op.argv,
               "--out", str(folder / f"{op.name}.json")]
        codes[op.name], rss, _ = spawner.run(cmd, folder / f"{op.name}.log")
        peak = max(peak, rss)
    wall = time.perf_counter() - start
    verdicts.add_pass("subprocess", codes, read_reports(verdicts.ops, folder))
    return wall, peak


def inprocess_pass(verdicts: Verdicts, folder: Path, label: str = "in-process") -> float:
    """Each operation through ``subord.cli.main`` in this process; returns the time taken."""
    from subord import cli

    folder.mkdir(parents=True, exist_ok=True)
    codes = {}
    start = time.perf_counter()
    for op in verdicts.ops:
        argv = [*op.argv, "--out", str(folder / f"{op.name}.json")]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[op.name] = cli.main(argv)
        except Exception:
            traceback.print_exc()
            codes[op.name] = -1
    elapsed = time.perf_counter() - start
    verdicts.add_pass(label, codes, read_reports(verdicts.ops, folder))
    return elapsed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(ops: list[Op], spawner: Spawner, out: Path,
                 seconds: float) -> tuple[Verdicts, dict]:
    setup_s = measure_setup(spawner, out)
    import subord.cli  # noqa: F401  -- the in-process passes start after import

    verdicts = Verdicts(ops)
    # lazy set-up and heap growth happen once per process; a notebook user
    # pays them on the first call only, so the first pass is not timed
    inprocess_pass(verdicts, out / "inprocess")
    walls, inprocs, peaks = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, peak = subprocess_pass(verdicts, spawner, out / "subprocess")
        walls.append(wall)
        peaks.append(peak)
        spent = 0.0
        while spent < IN_PROCESS_MIN_S:
            inprocs.append(inprocess_pass(verdicts, out / "inprocess"))
            spent += inprocs[-1]
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    print(f"rounds {len(walls)}, in-process passes {len(inprocs)}", file=sys.stderr)
    return verdicts, {
        "wall_s": _metric(statistics.median(walls), "s"),
        "inproc_s": _metric(statistics.median(inprocs), "s"),
        "peak_rss_mb": _metric(statistics.median(peaks), "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def run_traced(ops: list[Op], spawner: Spawner, out: Path) -> tuple[Verdicts, dict]:
    log = out / "importtime.log"
    code, _, _ = spawner.run([sys.executable, "-X", "importtime", "-c", "import subord.cli"], log)
    if code != 0:
        raise RuntimeError(f"importing subord.cli failed; see {log}")
    startup = tracer.parse_importtime(log.read_text())
    import subord.cli  # noqa: F401

    verdicts = Verdicts(ops)
    subprocess_pass(verdicts, spawner, out / "subprocess")
    # an untimed pass warms the process; the traced pass is compared with
    # the mean of the untraced passes on either side of it
    inprocess_pass(verdicts, out / "inprocess")
    before = inprocess_pass(verdicts, out / "inprocess")
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = inprocess_pass(verdicts, out / "traced", "traced")
    finally:
        trace.remove()
    trace.write(out / "spans.jsonl")
    untraced = 0.5 * (before + inprocess_pass(verdicts, out / "inprocess"))

    metrics = {name: _metric(value, "s") for name, value in startup.items()}
    metrics.update({name: _metric(value, unit)
                    for name, (value, unit) in trace.layer_metrics().items()})
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    return verdicts, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"permutes the order of the operations (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="start no round that would end after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subord" / "cli.py").is_file():
        print(f"error: no subord sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # with this set, every CLI run rewrites the package's pinned constants
    os.environ.pop("SUBORD_SEED_FIXTURES", None)
    env = _child_env()

    ops = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(ops)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    spawner = Spawner(env)
    try:
        if args.trace:
            verdicts, metrics = run_traced(ops, spawner, out)
        else:
            verdicts, metrics = run_untraced(ops, spawner, out, args.seconds)
    finally:
        spawner.close()
    print(f"{args.workload}: attempted {verdicts.attempted}, failed {verdicts.failed}, "
          f"correct {verdicts.correct}")
    print(json.dumps({"correct": verdicts.correct, "attempted": verdicts.attempted,
                      "failed": verdicts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
