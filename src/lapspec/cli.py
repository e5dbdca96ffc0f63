"""Command-line interface.

Subcommands:

    eval           Laplacian energy report for an expression
    spectrum       exact Laplacian spectrum of an expression
    verify-family  check built-in families against their closed forms
    cospectral     compare the spectra of two expressions
    scan           stream a graph6 file and flag L-borderenergetic hits

Exit status: 0 all checks passed / no error, 1 a verification failed,
2 usage or input error.  Exact rationals print as fraction plus a
6-decimal rendering.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import ExitStack
from fractions import Fraction

from .energy import energy_report, is_cospectral
from .expr import ParseError, parse, render
from .families import FAMILY_IDS, family_specs, verify
from .realize import Graph6Error
from .scan import CERTIFIED_HIT, CSV_HEADER, DEFAULT_TOL, MISS, scan
from .spectrum import spectrum_of

__all__ = ["build_parser", "main"]


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_tolerance(text: str) -> float:
    """argparse type for a finite tolerance above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A new parser; each subcommand sets ``handler``, the function ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="lapspec",
        description="Exact Laplacian spectra and L-borderenergetic checks for graph expressions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="Laplacian energy report for an expression")
    p_eval.add_argument("expr", help="expression text, e.g. '2K2 * 2K2'")
    p_eval.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_eval.set_defaults(handler=_cmd_eval)

    p_spec = sub.add_parser("spectrum", help="exact Laplacian spectrum of an expression")
    p_spec.add_argument("expr")
    p_spec.add_argument("--json", action="store_true")
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_fam = sub.add_parser("verify-family", help="verify built-in families against closed forms")
    p_fam.add_argument("--id", default="all", choices=FAMILY_IDS + ("all",), help="family id or 'all'")
    p_fam.add_argument("--r-max", type=positive_int, required=True, help="verify r = 1..R_MAX")
    p_fam.add_argument("--json", action="store_true", help="one JSON object per verdict line")
    p_fam.set_defaults(handler=_cmd_verify_family)

    p_cos = sub.add_parser("cospectral", help="compare the spectra of two expressions")
    p_cos.add_argument("expr1")
    p_cos.add_argument("expr2")
    p_cos.add_argument("--json", action="store_true")
    p_cos.set_defaults(handler=_cmd_cospectral)

    p_scan = sub.add_parser("scan", help="scan a graph6 file for L-borderenergetic graphs")
    p_scan.add_argument("file", help="graph6 input, one record per line")
    p_scan.add_argument("--tol", type=positive_tolerance, default=DEFAULT_TOL, help="numeric hit tolerance")
    jobs = os.environ.get("LAPSPEC_JOBS") or "1"  # argparse applies ``type`` to a string default
    p_scan.add_argument("--jobs", type=positive_int, default=jobs, help="worker processes (default $LAPSPEC_JOBS or 1)")
    p_scan.add_argument("--json", metavar="OUT.JSONL", default=None, help="also write records as JSON lines")
    p_scan.add_argument("--csv", metavar="OUT.CSV", default=None, help="also write records as CSV")
    p_scan.set_defaults(handler=_cmd_scan)

    return parser


def _fmt_rational(x: Fraction) -> str:
    return f"{x} ({float(x):.6f})"


def _fmt_bool(b: bool) -> str:
    return "yes" if b else "no"


def _cmd_eval(args: argparse.Namespace) -> int:
    expr = parse(args.expr)
    report = energy_report(spectrum_of(expr))
    if args.json:
        print(json.dumps(report.to_json_obj()))
        return 0
    print(f"expression         {render(expr)}")
    print(f"n                  {report.n}")
    print(f"m                  {report.m}")
    print(f"average degree     {_fmt_rational(report.avg_degree)}")
    print(f"laplacian energy   {_fmt_rational(report.laplacian_energy)}")
    print(f"target 2n-2        {report.target}")
    print(f"L-borderenergetic  {_fmt_bool(report.is_l_borderenergetic)}")
    print(f"complete graph     {_fmt_bool(report.is_complete)}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    s = spectrum_of(parse(args.expr))
    if args.json:
        print(json.dumps(s.to_json_obj()))
        return 0
    print(f"order {s.n}")
    print(f"{'eigenvalue':<28} multiplicity")
    for value, mult in s.entries:
        print(f"{_fmt_rational(value):<28} {mult}")
    return 0


def _cmd_verify_family(args: argparse.Namespace) -> int:
    ids = FAMILY_IDS if args.id == "all" else (args.id,)
    all_passed = True
    if not args.json:
        print(
            f"{'id':<8} {'r':>4} {'i':>4} {'order':>6} {'match':>6} "
            f"{'le':>20} {'target':>7} {'le_ok':>6} {'noncosp':>8} status"
        )
    for r in range(1, args.r_max + 1):
        for spec in family_specs(r, ids):
            verdict = verify(spec)
            all_passed = all_passed and verdict.passed
            if args.json:
                print(json.dumps(verdict.to_json_obj()))
            else:
                i_text = "-" if spec.i is None else str(spec.i)
                print(
                    f"{spec.id:<8} {spec.r:>4} {i_text:>4} {4 * spec.r + 4:>6} "
                    f"{_fmt_bool(verdict.spectra_match):>6} {_fmt_rational(verdict.le):>20} "
                    f"{8 * spec.r + 6:>7} {_fmt_bool(verdict.le_matches_target):>6} "
                    f"{_fmt_bool(verdict.noncospectral_with_complete):>8} "
                    f"{'PASS' if verdict.passed else 'FAIL'}"
                )
    return 0 if all_passed else 1


def _cmd_cospectral(args: argparse.Namespace) -> int:
    s1 = spectrum_of(parse(args.expr1))
    s2 = spectrum_of(parse(args.expr2))
    same = is_cospectral(s1, s2)
    if args.json:
        print(json.dumps({"cospectral": same}))
    else:
        print("cospectral" if same else "not cospectral")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    def report_error(lineno: int, message: str) -> None:
        print(f"line {lineno}: {message}", file=sys.stderr)

    with ExitStack() as stack:
        # A non-ASCII byte is kept as a lone surrogate, so the decoder rejects
        # only the line that holds it.
        fh = stack.enter_context(open(args.file, "r", encoding="ascii", errors="surrogateescape"))
        in_use = [args.file]

        def open_output(path: str, **kwargs):
            # Records are written while the input is read, so no file may be opened twice.
            if any(os.path.exists(path) and os.path.samefile(path, other) for other in in_use):
                raise ValueError(f"output file {path} is the input file or the other output")
            in_use.append(path)
            return stack.enter_context(open(path, "w", encoding="ascii", **kwargs))

        jsonl = open_output(args.json) if args.json else None
        rows = csv.writer(open_output(args.csv, newline="")) if args.csv else None
        if rows:
            rows.writerow(CSV_HEADER)
        # Number lines as read().splitlines() would: it also breaks at \v, \f and \x1c-\x1e.
        lines = (line for physical in fh for line in physical.splitlines())
        count = hits = certified = 0
        for rec in scan(lines, tol=args.tol, jobs=args.jobs, on_error=report_error):
            print(f"{rec.index:>8} {rec.g6:<24} {rec.n:>4} {rec.numeric_le:>16.9f} {rec.verdict}")
            if jsonl:
                jsonl.write(json.dumps(rec.to_json_obj()) + "\n")
            if rows:
                rows.writerow(rec.csv_row())
            count += 1
            hits += rec.verdict != MISS
            certified += rec.verdict == CERTIFIED_HIT
    print(f"{count} records scanned: {hits} hits, {certified} certified", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; returns the exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, Graph6Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
