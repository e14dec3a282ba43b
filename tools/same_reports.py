"""Compare the reports of this working tree with those of a git revision.

    python3 tools/same_reports.py <git-rev>

The revision is archived into a temporary directory.  On that tree and on
this one, every command line of ``benchmarks/workloads.py`` and the extra
ones below run as ``python -m subord.cli ARGS --out FILE --csv FILE``, each
in its own subprocess and one at a time.  One line per command gives the
exit codes (revision, then this tree) and names every report file, JSON or
CSV, whose bytes differ; for a JSON report on both sides it also gives the
dotted path of every field that differs, such as ``estimate.refined_total``
(list items by index), and for a number on both sides how far it moved:
``old -> new (relative difference)``.  A summary of the JSON reports' differing
fields follows: how many of them are not numbers on both sides, and for each
field name (the last key of a path that is not a list index) the largest
relative move, with the command line that gave it.  So a change that moves
numbers by rounding only reads as no non-numeric field and small moves.  Then
the count of command lines and differences, and a last line with the line count
of ``src/subord/*.py`` in both trees, the total that ``wc -l`` prints, and that
of each module whose count changed.  The exit status is 1 when an exit code or a
file differs, else 0.  ``benchmarks/`` is read, never written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: command lines beyond the benchmark's: a failing hypothesis (exit 1), a
#: bandwidth failure (exit 2), a triple root, a triple root beside a complex
#: pair near the real axis, mixed exponents (p < q), p1 = p2 = q = 1 (the one
#: equal-exponent q the benchmark does not run), the oversample factors 1
#: and 2, the edge cases of the estimator's window slice, exponents so large
#: that |y|**alpha overflows where the symbol has reached its limit, a pair
#: whose ratio has a |y|**0.5 cusp, a fine grid below one sampling block with a
#: pinned constant term, a pinned nonzero constant term, ratio symbols whose
#: denominator vanishes inside the window or at its edge (exit 2), polynomial
#: values beyond a double (exit 1), finite exponents so large that max**p
#: leaves the doubles, a multiple root 1e-3 or 1e-2 beside another root on
#: grids that resolve the pair, integer roots of multiplicity three, two and
#: one, two operators whose roots lie 1e-7 apart but are not shared, roots of
#: P1 that Q cancels (no neighborhood there), a common root where Q vanishes to
#: lower order than P1 and P2 (exit 1), a ratio whose first two probes
#: beside 0 underflow, a denominator that vanishes identically (exit 1) and
#: two symbols so small that every case is skipped (exit 2), and the two
#: estimates whose constant term moves most when read at the doubled window's
#: dual edge: a 256-point grid, whose edge the symbol has not settled at, and a
#: symbol with a |y|**0.3 cusp; a constant term whose band sums leave the doubles;
#: and diffop-verify's cofactor factors from a grid of 2^15 nodes, the finer of its
#: factor grid pair, and from a window so wide that a neighborhood leaves the dual
#: window of the pair's default coarse grid (exit 2 in the corpus); an operator with a
#: complex coefficient, whose values on the dual nodes stay complex in the corpus; the
#: factors at the oversample factors 1 and 8, which no other line runs; a first cofactor with
#: a nonzero constant term (deg Q = deg P1), the one factor that declares one; a
#: declared constant term whose subtraction overflows (exit 1); and the phase counts of an
#: even symbol's fold that no other line runs: a norm at oversample 4 (3 of 4 phases) and
#: at 16 (9 of 16), and a ratio of two even symbols at oversample 4; and the branches of
#: diffop-verify's real-input corpus that no other line runs: an operator of mixed parity at
#: q = 2, a target with a complex coefficient (i y), and a grid whose dual window the image of
#: y does not fit, refused by the bandwidth gate just above its level (exit 2); and
#: gw-compare's scale checks: a scale below 4 nodes of dx (exit 2), a negative scale (exit 1)
#: and a scale of 1e308, whose dilated dual nodes overflow where the error symbols are 1, and
#: the (2, 4) pair at eps = 0.05, whose errors f - U f lost most digits to cancellation; and
#: the band edges no other line reaches: a 32-point grid at oversample 1, whose constant-term
#: band holds no node (exit 2), a 64-point one, whose band holds one node on the + side and
#: two on the - side, which disagree (exit 2), and the same with a pinned constant term, whose
#: tail fit reads 3 nodes a side; and gw-compare on a window of half-length 6, refused by the
#: decay gate of materialize (exit 2)
EXTRAS = (
    ("selftest",),
    ("wiener-norm", "--multiplier", "gw_symbol:alpha=400"),
    ("gw-compare", "--alpha", "1", "--beta", "400"),
    ("wiener-norm", "--multiplier", "exp_abs_ft", "--oversample", "1"),
    ("wiener-norm", "--multiplier", "exp_abs_ft", "--oversample", "2"),
    ("compare", "--m1", "gaussian_ft", "--m2", "exp_abs_ft"),
    ("lemma2", "--Q", "[0,0,0,1]", "--P1", "[0,0,1]", "--P2", "[1]"),
    ("lemma2", "--Q", "[1]", "--P1", "[-1,3,-3,1]", "--P2", "[1]"),
    ("lemma2", "--Q", "[1]", "--P1", "[0,0,0,1.000001,-2,1]", "--P2", "[1]"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,0,1]", "--P2", "[1]",
     "--grid-N", "262144", "--p1", "1"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
     "--grid-N", "262144", "--q", "inf", "--p2", "1"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
     "--grid-N", "262144", "--q", "2", "--p2", "1.5"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
     "--grid-N", "262144", "--q", "1"),
    ("gw-compare", "--alpha", "1", "--beta", "1.5"),
    ("wiener-norm", "--multiplier", "exp_abs_ft", "--grid-N", "16", "--oversample", "1",
     "--const-at-infinity", "0"),
    ("wiener-norm", "--multiplier", "exp_abs_ft", "--const-at-infinity", "0.5"),
    ("compare", "--m1", "one_minus_gw_symbol:alpha=1", "--m2", "one_minus_gw_symbol:alpha=0.5"),
    ("compare", "--m1", "one_minus_gw_symbol:alpha=8", "--m2", "one_minus_gw_symbol:alpha=4"),
    ("compare", "--m1", "gw_symbol:alpha=1", "--m2", "gw_symbol:alpha=1"),
    ("lemma2", "--Q", "[1e308,1]", "--P1", "[0,0,1]", "--P2", "[1]"),
    ("lemma2", "--Q", "[1e308,1]", "--P1", "[0,0,1e308]", "--P2", "[1]"),
    ("compare", "--m1", "one_minus_gw_symbol:alpha=2", "--m2", "one_minus_gw_symbol:alpha=1",
     "--p", "2000,inf"),
    ("diffop-verify", "--grid-N", "262144", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]",
     "--q", "1e6", "--p1", "1e6", "--p2", "1"),
    ("lemma2", "--Q", "[1]", "--P1", "[1.001,-4.003,6.003,-4.001,1]", "--P2", "[1]",
     "--grid-L", "32768", "--grid-N", "32768"),
    ("lemma2", "--Q", "[1]", "--P1", "[0.016581375,-0.19702575,0.9754515,-2.575601,3.8253,-3.03,1]",
     "--P2", "[1]", "--grid-L", "4096", "--grid-N", "4096"),
    ("lemma2", "--Q", "[1]", "--P1", "[5.065875,-13.50675,13.5045,-6.001,1]", "--P2", "[1]",
     "--grid-L", "131072", "--grid-N", "262144"),
    ("lemma2", "--Q", "[1]", "--P1", "[504,-492,-10,115,-15,-7,1]", "--P2", "[1]"),
    ("lemma2", "--Q", "[1]", "--P1", "[-1,1]", "--P2", "[-1.0000001,1]"),
    ("lemma2", "--Q", "[0,2,1]", "--P1", "[0,-1,1]", "--P2", "[0,0,1]"),
    ("lemma2", "--Q", "[0,0,1,0,1]", "--P1", "[0,0,3,0,1]", "--P2", "[0,0,0,1]"),
    ("lemma2", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[0,0,1]"),
    ("lemma2", "--Q", "[-1e-6,0,1]", "--P1", "[-1e-6,0,1]", "--P2", "[1]"),
    ("compare", "--m1", "one_minus_gw_symbol:alpha=60", "--m2", "one_minus_gw_symbol:alpha=60"),
    ("compare", "--m1", "constant:value=1", "--m2", "constant:value=0"),
    ("compare", "--m1", "constant:value=1e-13", "--m2", "constant:value=1e-13"),
    ("wiener-norm", "--multiplier", "gw_ratio:alpha=1,beta=2", "--grid-N", "256",
     "--oversample", "1"),
    ("wiener-norm", "--multiplier", "gw_symbol:alpha=0.3"),
    ("wiener-norm", "--multiplier", "constant:value=1e308"),
    ("diffop-verify", "--Q", "[1]", "--P1", "[0,1]", "--P2", "[1]", "--grid-N", "32768"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]", "--grid-N", "262144",
     "--grid-L", "40000"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[[0,1],0,1]", "--P2", "[1]", "--grid-N", "262144",
     "--q", "2"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]", "--grid-N", "262144",
     "--oversample", "1"),
    ("diffop-verify", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]", "--grid-N", "262144",
     "--oversample", "8", "--q", "2", "--p2", "1.5"),
    ("diffop-verify", "--Q", "[1,0,1]", "--P1", "[2,0,1]", "--P2", "[1]", "--grid-N", "262144"),
    ("wiener-norm", "--multiplier", "constant:value=1e308", "--const-at-infinity=-1e308"),
    ("wiener-norm", "--multiplier", "gw_ratio:alpha=1,beta=2", "--oversample", "4"),
    ("wiener-norm", "--multiplier", "gw_ratio:alpha=1,beta=2", "--oversample", "16"),
    ("compare", "--m1", "one_minus_gw_symbol:alpha=2", "--m2", "one_minus_gw_symbol:alpha=1",
     "--oversample", "4"),
    ("diffop-verify", "--Q", "[1,1]", "--P1", "[-1,0,1]", "--P2", "[1,1]", "--q", "2",
     "--grid-N", "262144"),
    ("diffop-verify", "--Q", "[0,[0,1]]", "--P1", "[0,0,1]", "--P2", "[1]", "--grid-N", "262144"),
    ("diffop-verify", "--grid-N", "256", "--Q", "[0,1]", "--P1", "[0,0,1]", "--P2", "[1]"),
    ("gw-compare", "--alpha", "1", "--beta", "2", "--eps", "0.01"),
    ("gw-compare", "--alpha", "1", "--beta", "2", "--eps", "-1"),
    ("gw-compare", "--alpha", "1", "--beta", "2", "--eps", "1e308"),
    ("gw-compare", "--alpha", "2", "--beta", "4", "--eps", "0.05"),
    ("wiener-norm", "--multiplier", "exp_abs_ft", "--grid-N", "32", "--oversample", "1"),
    ("wiener-norm", "--multiplier", "exp_abs_ft", "--grid-N", "64", "--oversample", "1"),
    ("wiener-norm", "--multiplier", "exp_abs_ft", "--grid-N", "64", "--oversample", "1",
     "--const-at-infinity", "0"),
    ("gw-compare", "--alpha", "1", "--beta", "2", "--grid-L", "6"),
)


def _command_lines() -> list[tuple[str, ...]]:
    sys.dont_write_bytecode = True  # leave no cache files in benchmarks/
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS

    argvs = [op.argv for ops in WORKLOADS.values() for op in ops] + list(EXTRAS)
    return list(dict.fromkeys(argvs))


def _run(tree: Path, argv: tuple[str, ...], out: Path) -> int:
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "subord.cli", *argv,
           "--out", str(out / "report.json"), "--csv", str(out / "cases.csv")]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def _bytes(path: Path):
    return path.read_bytes() if path.exists() else None


def _differences(old, new, path: str = ""):
    # (path, old leaf, new leaf) wherever two parsed JSON values differ; a missing key is None
    def at(key):
        return f"{path}.{key}" if path else str(key)

    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            if key in old and key in new:
                yield from _differences(old[key], new[key], at(key))
            else:
                yield at(key), old.get(key), new.get(key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, pair in enumerate(zip(old, new)):
            yield from _differences(*pair, at(k))
    elif json.dumps(old) != json.dumps(new):
        yield path or ".", old, new


def changed_fields(old, new, path: str = "") -> list[str]:
    """The dotted paths at which two parsed JSON values differ, list items by index.

    A key present on one side only, a list of another length and a leaf whose
    JSON text differs (so ``1`` and ``1.0`` differ, two NaNs do not) count as
    changed where they stand; an empty path is written ``.``."""
    return [p for p, _, _ in _differences(old, new, path)]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(a, b) -> float:
    # how far a number moved, relative to the larger magnitude
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def _moved(path: str, a, b) -> str:
    if not (_is_number(a) and _is_number(b)):
        return path
    return f"{path} {a!r} -> {b!r} ({_relative(a, b):.1e})"


def moved_fields(old, new) -> list[str]:
    """:func:`changed_fields`, each followed by ``old -> new (relative difference)`` where
    both sides hold a number; the difference is relative to the larger magnitude."""
    return [_moved(*d) for d in _differences(old, new)]


def summary(leaves) -> list[str]:
    """From ``(command line, path, old, new)`` for every differing leaf of the JSON reports: the
    count of leaves that are not numbers on both sides, then for each field name, the last key
    of its path that is not a list index, in name order, the largest relative move and the
    command line that gave it (the first such line on a tie)."""
    other, largest = 0, {}
    for argv, path, a, b in leaves:
        if not (_is_number(a) and _is_number(b)):
            other += 1
            continue
        name = next((key for key in reversed(path.split(".")) if not key.isdigit()), path)
        if name not in largest or _relative(a, b) > _relative(*largest[name][1:]):
            largest[name] = (argv, a, b)
    return [f"{other} differing fields are not numbers on both sides"] + [
        f"largest move of {name}: {a!r} -> {b!r} ({_relative(a, b):.1e}) in {' '.join(argv)}"
        for name, (argv, a, b) in sorted(largest.items())]


def _report_differences(outs: list[Path], name: str):
    # (path, old, new) of every differing leaf of a JSON report written on both sides, else None
    old, new = (_bytes(out / name) for out in outs)
    if not name.endswith(".json") or old is None or new is None:
        return None
    return list(_differences(json.loads(old), json.loads(new)))


def _describe(name: str, leaves) -> str:
    # the file's name, and for a JSON report written on both sides the fields that differ
    if leaves is None:
        return name
    return f"{name} ({', '.join(_moved(*d) for d in leaves) or 'layout only'})"


def _module_lines(tree: Path) -> dict[str, int]:
    # newlines per module of src/subord, as wc -l counts them
    return {path.name: path.read_bytes().count(b"\n")
            for path in (tree / "src" / "subord").glob("*.py")}


def size_line(old: dict[str, int], new: dict[str, int]) -> str:
    """The total line count of two trees' modules, then ``name old -> new`` for each module
    whose count changed, in name order; a module in one tree only counts 0 lines in the other."""
    changed = [f"{name} {old.get(name, 0)} -> {new.get(name, 0)}"
               for name in sorted({*old, *new}) if old.get(name, 0) != new.get(name, 0)]
    note = f" ({', '.join(changed)})" if changed else ""
    return f"src/subord/*.py: {sum(old.values())} -> {sum(new.values())} lines{note}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_reports.py <git-rev>", file=sys.stderr)
        return 2
    lines = _command_lines()
    differences, leaves = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", argv[0]], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        for k, args in enumerate(lines):
            outs = [Path(tmp) / side / str(k) for side in ("base", "here")]
            codes = [_run(tree, args, out) for tree, out in zip((base, ROOT), outs)]
            changed = [name for name in ("report.json", "cases.csv")
                       if _bytes(outs[0] / name) != _bytes(outs[1] / name)]
            differences += (codes[0] != codes[1]) + len(changed)
            reports = {name: _report_differences(outs, name) for name in changed}
            leaves += [(args, *d) for d in reports.get("report.json") or ()]
            described = ", ".join(_describe(name, reports[name]) for name in changed)
            note = f"  DIFFERS: {described}" if changed else ""
            print(f"{codes[0]} {codes[1]}  {' '.join(args)}{note}", flush=True)
        sizes = [_module_lines(tree) for tree in (base, ROOT)]
    print("\n".join(summary(leaves)))
    print(f"{len(lines)} command lines, {differences} differences")
    print(size_line(*sizes))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
