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
flags, malformed JSON, bad grid, an output path outside an existing
directory).  Codes 1 and 2 are the ``exit_code`` of the error class.
Reports are still written for exits 1 and 2; nothing is written for exit 3.

Reports are JSON (sorted keys, two-space indent) and optional CSV with the
fixed column set ``case_id, test_function, p_or_exponents, epsilon,
lhs_norm, rhs_norm, ratio, constant, passed``.  No timestamps or machine
identifiers appear anywhere, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import comparison, diffops, measures, summability
from .errors import InvalidParameterError, SubordinationError
from .fourier_core import GridSpec
from .testkit import bump, gaussian, modulated_gaussian

__all__ = ["main"]

CSV_COLUMNS = ["case_id", "test_function", "p_or_exponents", "epsilon",
               "lhs_norm", "rhs_norm", "ratio", "constant", "passed"]


class ConfigError(Exception):
    """Invalid invocation; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through ConfigError
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    # JSON true/false are Python ints; they are never numbers here
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what: str, integer: bool = False):
    """``value`` as a float, or an int, refusing booleans and lossy conversions."""
    lossy = isinstance(value, bool) or (
        integer and isinstance(value, float) and not value.is_integer())
    if not lossy:
        try:
            return int(value) if integer else float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{what} must be {'an integer' if integer else 'a number'}, "
                      f"got {value!r}")


def _parse_float_list(text, what: str) -> list[float]:
    if isinstance(text, (list, tuple)):
        items = list(text)
    else:
        items = [part.strip() for part in str(text).split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    return [_number(item, f"{what} entry") for item in items]


def _parse_poly(text, what: str) -> list[complex]:
    if isinstance(text, str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    else:
        data = text
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{what} must be a nonempty JSON array of coefficients")
    coeffs = []
    for entry in data:
        if _is_number(entry):
            coeffs.append(complex(entry))
        elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
            coeffs.append(complex(entry[0], entry[1]))
        else:
            raise ConfigError(
                f"{what} entries must be numbers or [re, im] pairs, got {entry!r}")
    return coeffs


def _parse_multiplier_spec(text: str) -> tuple[str, dict]:
    """``name`` or ``name:key=val,key=val`` with numeric values."""
    text = text.strip()
    if ":" in text:
        name, _, tail = text.partition(":")
        params = {}
        for piece in tail.split(","):
            piece = piece.strip()
            if not piece:
                continue
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
    return text, {}


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
    return {
        "const_at_infinity": _jsonable(est.const_at_infinity),
        "density_l1": est.density_l1,
        "tail_bound": est.tail_bound,
        "total": est.total,
        "refined_total": est.refined_total,
        "converged": est.converged,
        "oversample": est.oversample,
    }


# ---------------------------------------------------------------------------
# subcommand runners: each returns its report without "command" and "grid"
# ---------------------------------------------------------------------------

def _run_wiener_norm(args, grid: GridSpec):
    name, params = args.multiplier_parsed
    mult = comparison.named_multiplier(name, **params)
    const = None if args.const_at_infinity is None else complex(args.const_at_infinity)
    est = measures.wiener_norm(mult, grid, oversample=args.oversample,
                               const_at_infinity=const)
    return {
        "multiplier": mult.label,
        "estimate": _estimate_dict(est),
        "cases": [],
        "passed": est.converged,
    }


def _run_compare(args, grid: GridSpec):
    name1, params1 = args.m1_parsed
    name2, params2 = args.m2_parsed
    m1 = comparison.named_multiplier(name1, **params1)
    m2 = comparison.named_multiplier(name2, **params2)
    setup = comparison.setup_comparison(m1, m2, grid, oversample=args.oversample)
    report_obj = comparison.verify_comparison(setup, p_values=args.p_parsed)
    return {
        "multiplier1": m1.label,
        "multiplier2": m2.label,
        "estimate": _estimate_dict(setup.estimate),
        "constant": report_obj.constant,
        "worst_ratio": report_obj.worst_ratio,
        "cases": _case_rows(report_obj),
        "passed": report_obj.passed and setup.estimate.converged,
    }


def _run_gw_compare(args, grid: GridSpec):
    report_obj = summability.gw_verify(
        args.alpha, args.beta, grid,
        eps_values=args.eps_parsed, p_values=args.p_parsed,
        oversample=args.oversample)
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "estimate": _estimate_dict(report_obj.estimate),
        "constant": report_obj.constant,
        "worst_ratio": report_obj.worst_ratio,
        "cases": _case_rows(report_obj),
        "passed": report_obj.passed and report_obj.estimate.converged,
    }


def _run_lemma2(args, grid: GridSpec):
    decomp = diffops.construct_decomposition(args.Q_parsed, args.P1_parsed,
                                             args.P2_parsed, grid)
    return {
        "target": diffops.poly_label(decomp.target),
        "op1": diffops.poly_label(decomp.op1),
        "op2": diffops.poly_label(decomp.op2),
        "neighborhoods": [[c, d] for c, d in decomp.neighborhoods],
        "cofactor1_at_infinity": _jsonable(decomp.cofactor1_at_infinity),
        "identity_residual": decomp.identity_residual,
        "cofactor2_sup": decomp.cofactor2_sup,
        "cofactor1_lipschitz": decomp.cofactor1_lipschitz,
        "cofactor2_lipschitz": decomp.cofactor2_lipschitz,
        "cases": [],
        "passed": True,
    }


def _run_diffop_verify(args, grid: GridSpec):
    report_obj = diffops.diffop_subordination(
        args.Q_parsed, args.P1_parsed, args.P2_parsed, grid,
        q=args.q_parsed, p1=args.p1_parsed, p2=args.p2_parsed,
        oversample=args.oversample)
    decomp = report_obj.decomposition
    return {
        "target": diffops.poly_label(decomp.target),
        "op1": diffops.poly_label(decomp.op1),
        "op2": diffops.poly_label(decomp.op2),
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

    setup = comparison.setup_comparison(comparison.exp_abs_ft(), comparison.exp_abs_ft(), grid)
    reflexive = comparison.verify_comparison(setup)
    checks.append({
        "name": "reflexive_comparison_constant_one",
        "passed": bool(abs(setup.constant - 1.0) <= 1e-6
                       and reflexive.worst_ratio <= 1.0 + 1e-6),
        "detail": {"constant": setup.constant, "worst_ratio": reflexive.worst_ratio},
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
    sub = diffops.diffop_subordination([0, 1], [0, 0, 1], [1], grid, q=2.0,
                                       suite=small_suite, decomposition=decomp)
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

    def common(p, oversample_default):
        p.add_argument("--grid-L", type=float, default=40.0, dest="grid_L",
                       help="window half-length (default 40)")
        p.add_argument("--grid-N", type=int, default=16384, dest="grid_N",
                       help="grid size, a power of two (default 16384)")
        p.add_argument("--oversample", type=int, default=oversample_default,
                       help="window oversampling for density recovery "
                            f"(default {oversample_default})")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--csv", default=None, help="write the case table here as CSV")
        p.add_argument("--json-config", default=None, dest="json_config",
                       help="JSON file whose keys override the flags")

    p = sub.add_parser("wiener-norm", help="measure-norm estimate of a named symbol")
    common(p, 8)
    p.add_argument("--multiplier", required=True,
                   help="registry symbol, e.g. 'gw_ratio:alpha=1,beta=2'")
    p.add_argument("--const-at-infinity", type=float, default=None,
                   dest="const_at_infinity",
                   help="pin the constant term instead of reading it off the tails")

    p = sub.add_parser("compare", help="two-multiplier domination on a corpus")
    common(p, 8)
    p.add_argument("--m1", required=True, help="dominated symbol (registry spec)")
    p.add_argument("--m2", required=True, help="dominating symbol (registry spec)")
    p.add_argument("--p", default="1,2,inf", help="exponents, e.g. '1,2,inf'")

    p = sub.add_parser("gw-compare", help="smoothing-mean error subordination")
    common(p, 8)
    p.add_argument("--alpha", type=float, required=True, help="dominating mean order")
    p.add_argument("--beta", type=float, required=True, help="dominated mean order")
    p.add_argument("--eps", default="1,0.5,0.1", help="scales, e.g. '1,0.5,0.1'")
    p.add_argument("--p", default="1,2,inf", help="exponents, e.g. '1,2,inf'")

    p = sub.add_parser("lemma2", help="two-cofactor decomposition of a polynomial symbol")
    common(p, 8)
    p.add_argument("--Q", required=True, help="target polynomial, ascending JSON coefficients")
    p.add_argument("--P1", required=True, help="first operator polynomial")
    p.add_argument("--P2", required=True, help="second operator polynomial")

    p = sub.add_parser("diffop-verify", help="mixed-exponent domination for a triple")
    common(p, 4)
    p.add_argument("--Q", required=True, help="target polynomial, ascending JSON coefficients")
    p.add_argument("--P1", required=True, help="first operator polynomial")
    p.add_argument("--P2", required=True, help="second operator polynomial")
    p.add_argument("--q", default="2", help="output exponent (default 2)")
    p.add_argument("--p1", default=None, help="first input exponent (default q)")
    p.add_argument("--p2", default=None, help="second input exponent (default q)")

    p = sub.add_parser("selftest", help="fast deterministic battery")
    common(p, 8)

    return parser


def _apply_json_config(args) -> None:
    if not args.json_config:
        return
    try:
        with open(args.json_config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError("config file must contain a JSON object")
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "json_config"):
            raise ConfigError(f"unknown config key {key!r}")
        setattr(args, dest, value)


def _check_output_path(path, what: str) -> None:
    # refuse before computing what could not be written afterwards
    if path is None:
        return
    if not isinstance(path, str):
        raise ConfigError(f"{what} must be a file path, got {path!r}")
    if not os.path.isdir(os.path.dirname(path) or ".") or os.path.isdir(path):
        raise ConfigError(f"{what} {path!r} is not a file in an existing directory")


def _prepare(args) -> GridSpec:
    """Config-phase validation; every failure here is exit code 3."""
    _apply_json_config(args)
    _check_output_path(args.out, "out")
    _check_output_path(args.csv, "csv")
    try:
        grid = GridSpec(_number(args.grid_L, "grid-L"), _number(args.grid_N, "grid-N", True))
    except InvalidParameterError as exc:
        raise ConfigError(f"invalid grid: {exc}") from None
    args.oversample = _number(args.oversample, "oversample", integer=True)

    if args.command == "wiener-norm":
        args.multiplier_parsed = _parse_multiplier_spec(str(args.multiplier))
        if args.const_at_infinity is not None:
            args.const_at_infinity = _number(args.const_at_infinity, "const-at-infinity")
    elif args.command == "compare":
        args.m1_parsed = _parse_multiplier_spec(str(args.m1))
        args.m2_parsed = _parse_multiplier_spec(str(args.m2))
        args.p_parsed = _parse_float_list(args.p, "p")
    elif args.command == "gw-compare":
        args.alpha = _number(args.alpha, "alpha")
        args.beta = _number(args.beta, "beta")
        args.eps_parsed = _parse_float_list(args.eps, "eps")
        args.p_parsed = _parse_float_list(args.p, "p")
    elif args.command in ("lemma2", "diffop-verify"):
        args.Q_parsed = _parse_poly(args.Q, "--Q")
        args.P1_parsed = _parse_poly(args.P1, "--P1")
        args.P2_parsed = _parse_poly(args.P2, "--P2")
        if args.command == "diffop-verify":
            args.q_parsed = _parse_float_list(args.q, "q")[0]
            args.p1_parsed = None if args.p1 is None else _parse_float_list(args.p1, "p1")[0]
            args.p2_parsed = None if args.p2 is None else _parse_float_list(args.p2, "p2")[0]
    return grid


_RUNNERS = {
    "wiener-norm": _run_wiener_norm,
    "compare": _run_compare,
    "gw-compare": _run_gw_compare,
    "lemma2": _run_lemma2,
    "diffop-verify": _run_diffop_verify,
    "selftest": _run_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        grid = _prepare(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        report = {"command": args.command,
                  "grid": {"half_length": grid.half_length, "size": grid.size},
                  **_RUNNERS[args.command](args, grid)}
    except SubordinationError as exc:
        report = {"command": args.command,
                  "error": {"type": type(exc).__name__, "message": str(exc)},
                  "cases": [], "passed": False}
        check = getattr(exc, "check", None)
        if check is not None:
            report["violations"] = [{"code": v.code, "detail": v.detail}
                                    for v in check.violations]
        _emit(report, args.out, args.csv)
        return exc.exit_code

    _emit(report, args.out, args.csv)
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
