"""Command-line front end.

Subcommands::

    wiener-norm    estimate the measure norm of a named symbol
    compare        two-multiplier domination: constant + corpus check
    gw-compare     smoothing-mean error subordination for an exponent pair
    lemma2         construct the two-cofactor decomposition of a polynomial symbol
    diffop-verify  mixed-exponent domination for a polynomial triple
    selftest       fast deterministic battery over all of the above

Exit codes: 0 all checks passed; 1 the requested comparison is structurally
impossible (violated hypotheses, nested zeros, inadmissible exponents, bad
mathematical parameters); 2 a numerical verification failed or could not be
completed on this grid; 3 the invocation itself was invalid (unparseable
flags, malformed JSON, bad grid, an ``--oversample`` that is not a power of
two, an output path outside an existing directory or naming the same file as
another output or the config).  Codes 1 and 2 are the ``exit_code`` of the error class.
Reports are still written for exits 1 and 2; nothing is written for exit 3.

``--oversample`` belongs only to the commands whose estimate reads it
(``wiener-norm``, ``compare``, ``gw-compare``, ``diffop-verify``);
``lemma2`` and ``selftest`` refuse it, as flag and as config key.

Every option is parsed by argparse through its flag's ``type=``.  A
``--json-config`` object is appended as ``--key=value`` arguments and the
command line parsed again, so a config value passes the flag's check and wins.

Reports are JSON (sorted keys, two-space indent) and optional CSV with the
fixed column set ``case_id, test_function, p_or_exponents, epsilon,
lhs_norm, rhs_norm, ratio, constant, passed``.  No timestamps or machine
identifiers appear anywhere, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import comparison, diffops, measures, summability
from .errors import InvalidParameterError, SubordinationError
from .fourier_core import GridSpec, _finite
from .testkit import bump, gaussian, modulated_gaussian

__all__ = ["main"]

CSV_COLUMNS = ["case_id", "test_function", "p_or_exponents", "epsilon",
               "lhs_norm", "rhs_norm", "ratio", "constant", "passed"]


class ConfigError(argparse.ArgumentTypeError):
    """Invalid invocation; maps to exit code 3.

    The ``type=`` functions below raise it, and argparse then names the flag.
    """


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through ConfigError
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# flag types: every value, from the command line or --json-config, passes one
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    # JSON true/false are Python ints; they are never numbers here
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(text: str) -> int:
    """An integer, also when written as a whole float such as ``16384.0``."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        if float(text).is_integer():
            return int(float(text))
    except ValueError:
        pass
    raise ConfigError(f"expected an integer, got {text!r}")


def _finite_float(text: str) -> float:
    """A finite number, such as a declared constant term."""
    try:
        return _finite(text, "value", positive=False)
    except (ValueError, InvalidParameterError) as exc:
        raise ConfigError(str(exc)) from None


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers such as ``1,2,inf``, bare or as a JSON array; no item is empty."""
    text = text.strip()
    if text[:1] == "[" and text[-1:] == "]":
        text = text[1:-1]
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _poly(text: str) -> list[complex]:
    """Ascending coefficients as a JSON array of numbers or ``[re, im]`` pairs."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(data, list) or not data:
        raise ConfigError("must be a nonempty JSON array of coefficients")
    coeffs = []
    for entry in data:
        if _is_number(entry):
            coeffs.append(complex(entry))
        elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
            coeffs.append(complex(entry[0], entry[1]))
        else:
            raise ConfigError(f"entries must be numbers or [re, im] pairs, got {entry!r}")
    return coeffs


def _multiplier_spec(text: str) -> tuple[str, dict]:
    """``name`` or ``name:key=val,key=val`` with numeric values; no item is empty."""
    name, _, tail = text.partition(":")
    params = {}
    for piece in tail.split(",") if tail else ():
        piece = piece.strip()
        key, sep, val = piece.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"multiplier parameter {piece!r} is not key=value")
        if key in params:
            raise ConfigError(f"multiplier parameter {key!r} is given twice")
        try:
            params[key] = float(val)
        except ValueError:
            raise ConfigError(f"multiplier parameter {piece!r} has a non-numeric value") from None
    return name.strip(), params


def _output_path(text: str) -> str:
    # refuse before computing what could not be written afterwards
    if not os.path.isdir(os.path.dirname(text) or ".") or os.path.isdir(text):
        raise ConfigError(f"{text!r} is not a file in an existing directory")
    return text


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _emit(report: dict, out_path: Optional[str], csv_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{report.get('command', 'report')}: "
              f"{'PASS' if report.get('passed') else 'FAIL'} (report: {out_path})")
    else:
        sys.stdout.write(text)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for case in report.get("cases", []):
                row = {}
                for col in CSV_COLUMNS:
                    v = case.get(col)
                    if v is None:
                        row[col] = ""
                    elif isinstance(v, bool):
                        row[col] = "true" if v else "false"
                    elif isinstance(v, float):
                        row[col] = "inf" if math.isinf(v) else f"{v:.12g}"
                    else:
                        row[col] = v
                writer.writerow(row)


def _case_rows(report: comparison.Report) -> list[dict]:
    """One CSV-shaped row per verified case, keyed by :data:`CSV_COLUMNS`."""
    rows = []
    for case in report.cases:
        eps = [] if case.eps is None else [f"eps={case.eps:g}"]
        rows.append({
            "case_id": "|".join([case.label, *eps, case.exponents]),
            "test_function": case.label,
            "p_or_exponents": case.exponents,
            "epsilon": case.eps,
            "lhs_norm": case.lhs,
            "rhs_norm": case.rhs,
            "ratio": case.ratio,
            "constant": report.constant,
            "passed": case.passed,
        })
    return rows


def _estimate_dict(est: measures.WienerEstimate) -> dict:
    return {key: _jsonable(value) for key, value in dataclasses.asdict(est).items()}


# ---------------------------------------------------------------------------
# subcommand runners: each returns its report without "command" and "grid"
# ---------------------------------------------------------------------------

def _run_wiener_norm(args, grid: GridSpec):
    name, params = args.multiplier
    mult = comparison.named_multiplier(name, **params)
    if args.const_at_infinity is not None:
        mult = dataclasses.replace(mult, const_at_infinity=args.const_at_infinity)
    est = measures.wiener_norm(mult, grid, oversample=args.oversample)
    return {
        "multiplier": mult.label,
        "estimate": _estimate_dict(est),
        "cases": [],
        "passed": est.converged,
    }


def _comparison_fields(report: comparison.Report) -> dict:
    """The report fields shared by ``compare`` and ``gw-compare``."""
    return {
        "estimate": _estimate_dict(report.estimate),
        "constant": report.constant,
        "worst_ratio": report.worst_ratio,
        "cases": _case_rows(report),
        "passed": report.passed and report.estimate.converged,
    }


def _run_compare(args, grid: GridSpec):
    m1, m2 = (comparison.named_multiplier(name, **params) for name, params in (args.m1, args.m2))
    report_obj = comparison.verify_comparison(m1, m2, grid, p_values=args.p,
                                              oversample=args.oversample)
    return {"multiplier1": m1.label, "multiplier2": m2.label, **_comparison_fields(report_obj)}


def _run_gw_compare(args, grid: GridSpec):
    report_obj = summability.gw_verify(args.alpha, args.beta, grid, eps_values=args.eps,
                                       p_values=args.p, oversample=args.oversample)
    return {"alpha": args.alpha, "beta": args.beta, **_comparison_fields(report_obj)}


def _run_lemma2(args, grid: GridSpec):
    decomp = diffops.construct_decomposition(args.Q, args.P1, args.P2, grid)
    return {
        **{key: diffops.poly_label(getattr(decomp, key)) for key in ("target", "op1", "op2")},
        "neighborhoods": [[c, d] for c, d in decomp.neighborhoods],
        "cofactor1_at_infinity": _jsonable(decomp.cofactor1.const_at_infinity),
        "identity_residual": decomp.identity_residual,
        "cofactor2_sup": decomp.cofactor2_sup,
        "cases": [],
        "passed": True,
    }


def _run_diffop_verify(args, grid: GridSpec):
    decomp = diffops.construct_decomposition(args.Q, args.P1, args.P2, grid)
    report_obj = diffops.diffop_subordination(
        decomp, q=args.q, p1=args.p1, p2=args.p2, oversample=args.oversample)
    return {
        **{key: diffops.poly_label(getattr(decomp, key)) for key in ("target", "op1", "op2")},
        "q": _jsonable(report_obj.q),
        "p1": _jsonable(report_obj.p1),
        "p2": _jsonable(report_obj.p2),
        "factor1": report_obj.factor1,
        "factor2": report_obj.factor2,
        "constant": report_obj.constant,
        "identity_residual": decomp.identity_residual,
        "worst_ratio": report_obj.worst_ratio,
        "cases": _case_rows(report_obj),
        "passed": report_obj.passed,
    }


def _run_selftest(args, grid: GridSpec):
    checks = []

    est = measures.wiener_norm(comparison.gw_symbol(1.0), grid)
    checks.append({
        "name": "measure_norm_of_exp_abs_symbol",
        "passed": bool(est.converged and abs(est.total - 1.0) <= 1e-3),
        "detail": {"total": est.total, "converged": est.converged},
    })

    reflexive = comparison.verify_comparison(comparison.exp_abs_ft(), comparison.exp_abs_ft(),
                                             grid)
    checks.append({
        "name": "reflexive_comparison_constant_one",
        "passed": bool(abs(reflexive.constant - 1.0) <= 1e-6
                       and reflexive.worst_ratio <= 1.0 + 1e-6),
        "detail": {"constant": reflexive.constant, "worst_ratio": reflexive.worst_ratio},
    })

    gw = summability.gw_verify(1.0, 2.0, grid)
    checks.append({
        "name": "mean_error_subordination_1_2",
        "passed": bool(gw.passed and gw.estimate.converged),
        "detail": {"constant": gw.constant, "worst_ratio": gw.worst_ratio,
                   "converged": gw.estimate.converged},
    })

    decomp = diffops.construct_decomposition([0, 1], [0, 0, 1], [1], grid)
    checks.append({
        "name": "decomposition_first_order_under_second",
        "passed": bool(decomp.identity_residual <= 1e-10),
        "detail": {"identity_residual": decomp.identity_residual,
                   "cofactor2_sup": decomp.cofactor2_sup},
    })

    small_suite = [gaussian(1.0), bump(2.0), modulated_gaussian(1.0, 3.0)]
    sub = diffops.diffop_subordination(decomp, q=2.0, suite=small_suite)
    checks.append({
        "name": "mixed_norm_domination_first_order",
        "passed": bool(sub.passed),
        "detail": {"constant": sub.constant, "worst_ratio": sub.worst_ratio},
    })

    return {"checks": checks, "cases": [], "passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="subord", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, oversample=None):
        p.set_defaults(run=run)
        p.add_argument("--grid-L", type=float, default=40.0, dest="grid_L",
                       help="window half-length (default 40)")
        p.add_argument("--grid-N", type=_integer, default=16384, dest="grid_N",
                       help="grid size, a power of two (default 16384)")
        if oversample is not None:
            p.add_argument("--oversample", type=_integer, default=oversample,
                           help="window oversampling for density recovery "
                                f"(default {oversample})")
        p.add_argument("--out", type=_output_path, default=None,
                       help="write the JSON report here")
        p.add_argument("--csv", type=_output_path, default=None,
                       help="write the case table here as CSV")
        p.add_argument("--json-config", default=None, dest="json_config",
                       help="JSON file whose keys override the flags")

    def polynomials(p):
        p.add_argument("--Q", type=_poly, required=True,
                       help="target polynomial, ascending JSON coefficients")
        p.add_argument("--P1", type=_poly, required=True, help="first operator polynomial")
        p.add_argument("--P2", type=_poly, required=True, help="second operator polynomial")

    p = sub.add_parser("wiener-norm", help="measure-norm estimate of a named symbol")
    common(p, _run_wiener_norm, oversample=8)
    p.add_argument("--multiplier", type=_multiplier_spec, required=True,
                   help="registry symbol, e.g. 'gw_ratio:alpha=1,beta=2'")
    p.add_argument("--const-at-infinity", type=_finite_float, default=None,
                   dest="const_at_infinity",
                   help="declare the symbol's constant term, e.g. --const-at-infinity=-0.5")

    p = sub.add_parser("compare", help="two-multiplier domination on a corpus")
    common(p, _run_compare, oversample=8)
    p.add_argument("--m1", type=_multiplier_spec, required=True,
                   help="dominated symbol (registry spec)")
    p.add_argument("--m2", type=_multiplier_spec, required=True,
                   help="dominating symbol (registry spec)")
    p.add_argument("--p", type=_float_list, default="1,2,inf", help="exponents, e.g. '1,2,inf'")

    p = sub.add_parser("gw-compare", help="smoothing-mean error subordination")
    common(p, _run_gw_compare, oversample=8)
    p.add_argument("--alpha", type=float, required=True, help="dominating mean order")
    p.add_argument("--beta", type=float, required=True, help="dominated mean order")
    p.add_argument("--eps", type=_float_list, default="1,0.5,0.1",
                   help="scales, e.g. '1,0.5,0.1'")
    p.add_argument("--p", type=_float_list, default="1,2,inf", help="exponents, e.g. '1,2,inf'")

    p = sub.add_parser("lemma2", help="two-cofactor decomposition of a polynomial symbol")
    common(p, _run_lemma2)
    polynomials(p)

    p = sub.add_parser("diffop-verify", help="mixed-exponent domination for a triple")
    common(p, _run_diffop_verify, oversample=4)
    polynomials(p)
    p.add_argument("--q", type=float, default=2.0, help="output exponent (default 2)")
    p.add_argument("--p1", type=float, default=None, help="first input exponent (default q)")
    p.add_argument("--p2", type=float, default=None, help="second input exponent (default q)")

    p = sub.add_parser("selftest", help="fast deterministic battery")
    common(p, _run_selftest)

    return parser


#: options whose value is text: a --json-config value for them must be a JSON string
_TEXT_KEYS = ("multiplier", "m1", "m2", "out", "csv")


def _config_tokens(path: str, args) -> list[str]:
    """The ``--json-config`` object as ``--key=value`` tokens for a second parse.

    A string value is passed as written and any other value as its JSON
    text, so a config value meets the same ``type=`` check as the flag.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError("config file must contain a JSON object")
    tokens = []
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "run", "json_config"):
            raise ConfigError(f"unknown config key {key!r}")
        if dest in _TEXT_KEYS and not isinstance(value, str):
            raise ConfigError(f"config key {key!r} takes a string, got {value!r}")
        text = value if isinstance(value, str) else json.dumps(value)
        tokens.append(f"--{dest.replace('_', '-')}={text}")
    return tokens


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.json_config:
            args = parser.parse_args(argv + _config_tokens(args.json_config, args))
        paths = [os.path.realpath(path) for path in (args.out, args.csv, args.json_config) if path]
        if len(set(paths)) < len(paths):
            raise ConfigError("--out, --csv and --json-config must name different files")
        grid = GridSpec(args.grid_L, args.grid_N)
        grid.refined(getattr(args, "oversample", 1))  # --oversample obeys the refinement rule
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        report = {"command": args.command,
                  "grid": {"half_length": grid.half_length, "size": grid.size},
                  **args.run(args, grid)}
    except SubordinationError as exc:
        report = {"command": args.command,
                  "error": {"type": type(exc).__name__, "message": str(exc)},
                  "cases": [], "passed": False}
        violations = getattr(exc, "violations", None)
        if violations is not None:
            report["violations"] = [{"code": v.code, "detail": v.detail} for v in violations]
        _emit(report, args.out, args.csv)
        return exc.exit_code

    _emit(report, args.out, args.csv)
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
