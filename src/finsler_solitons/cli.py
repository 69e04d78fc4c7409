"""Command-line harness: run fixture verification or crosscheck suites and
emit machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage error,
3 evaluation error (a domain guard tripped while computing).

Reports are deterministic: the same fixture, seed, sample count and tolerance
produce byte-identical JSON, so reports can be diffed in CI.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import fixtures, suites
from .finsler import ParameterError
from .reports import all_passed

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_EVAL = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    `main` of the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="finsler-solitons",
        description="Curvature and Ricci-soliton residual checks for Finsler metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the full check suite of one fixture")
    pv.add_argument("--fixture", required=True, help="fixture name (see `list`)")
    pv.add_argument("--samples", type=int, default=64, help="number of sample flags")
    pv.add_argument("--seed", type=int, default=0, help="sampling seed")
    pv.add_argument("--tol", type=float, default=1e-6, help="pass/fail tolerance")
    pv.add_argument("--diff-mode", choices=("jet", "fd"), default="jet",
                    help="differentiation backend for the pointwise laws")
    pv.add_argument("--perturb", default=None, metavar="INGREDIENT:EPS",
                    help="negative control, e.g. f:1e-2 (f, W, kappa, mu, sigma)")
    pv.add_argument("--output", default=None, help="report file (default stdout)")
    pv.add_argument("--format", choices=("json", "csv", "text"), default="json")

    pc = sub.add_parser("crosscheck", help="run an oracle-equivalence suite")
    pc.add_argument("--suite", required=True, help="suite name (see `list --suites`)")
    pc.add_argument("--count", type=int, default=None, help="sample count override")
    pc.add_argument("--seed", type=int, default=7)
    pc.add_argument("--tol", type=float, default=None, help="tolerance override")
    pc.add_argument("--output", default=None)
    pc.add_argument("--format", choices=("json", "csv", "text"), default="json")

    pl = sub.add_parser("list", help="list fixtures (or crosscheck suites)")
    pl.add_argument("--suites", action="store_true", help="list crosscheck suites instead")
    pl.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _parse_perturb(text):
    if text is None:
        return None
    try:
        ingredient, eps = text.split(":", 1)
        eps = float(eps)
        if not math.isfinite(eps):
            raise ValueError(eps)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --perturb {text!r}; expected INGREDIENT:EPS like f:1e-2, EPS finite")
    return ingredient.strip(), eps


def _render(report, fmt) -> str:
    if fmt == "json":
        # RFC 8259 has no token for inf or nan: a residual that is not finite is null
        checks = [dict(row, **{k: row[k] if math.isfinite(row[k]) else None
                               for k in ("max_abs", "mean_abs")}) for row in report["checks"]]
        return json.dumps(dict(report, checks=checks), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "samples", "max_abs", "mean_abs", "tol", "verdict",
                         "detail"])
        for row in report["checks"]:
            writer.writerow([row["name"], row["samples"], repr(row["max_abs"]),
                             repr(row["mean_abs"]), repr(row["tol"]), row["verdict"],
                             row["detail"]])
        return buf.getvalue()
    if report["command"] == "verify":
        size = f"samples={report['samples']}"
    else:
        size = f"count={'default' if report['count'] is None else report['count']}"
    lines = [f"{report.get('fixture') or report.get('suite')}: seed={report['seed']} {size}"]
    for row in report["checks"]:
        lines.append(f"  {row['verdict']:>14s}  {row['name']:<40s} "
                     f"max={row['max_abs']:.3e} mean={row['mean_abs']:.3e} "
                     f"tol={row['tol']:.1e}")
    lines.append("RESULT: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _emit(report, fmt, output) -> int:
    """Write the report; its exit code, or EXIT_USAGE if `output` is unwritable."""
    text = _render(report, fmt)
    if not output:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write report to {output!r}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def _report(args, what, run, header) -> int:
    """The one path from a run to its report and exit code: `run()` makes the
    checks, a `ParameterError` is a usage error and a tripped domain guard
    (or a runtime error) an evaluation error in `what`; otherwise the report,
    `header` with the checks and the verdict, is written by `_emit`.
    numpy's floating-point warnings are silenced for the run: a residual
    that overflows shows in the report (written null) and fails its row."""
    try:
        with np.errstate(all="ignore"):
            checks = run()
    except ParameterError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        print(f"evaluation error {what}: {exc}", file=sys.stderr)
        return EXIT_EVAL
    report = dict(header, checks=[r.to_dict() for r in checks], passed=all_passed(checks))
    return _emit(report, args.format, args.output)


def _cmd_verify(args) -> int:
    try:
        perturb = _parse_perturb(args.perturb)
    except argparse.ArgumentTypeError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if args.fixture not in fixtures.FIXTURE_NAMES:
        print(f"unknown fixture {args.fixture!r}; available: "
              f"{', '.join(fixtures.FIXTURE_NAMES)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        fixture = fixtures.get_fixture(args.fixture, perturb=perturb)
    except fixtures.ConstructionError as exc:
        print(f"bad fixture configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run = functools.partial(suites.run_fixture_suite, fixture, samples=args.samples,
                            seed=args.seed, tol=args.tol, mode=args.diff_mode)
    header = {"command": "verify", "fixture": args.fixture, "perturb": args.perturb,
              "seed": args.seed, "samples": args.samples, "tol": args.tol,
              "diff_mode": args.diff_mode}
    return _report(args, f"on fixture {args.fixture!r}", run, header)


def _cmd_crosscheck(args) -> int:
    if args.suite not in suites.CROSSCHECK_SUITES:
        print(f"unknown suite {args.suite!r}; available: "
              f"{', '.join(sorted(suites.CROSSCHECK_SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    run = functools.partial(suites.run_crosscheck_suite, args.suite, count=args.count,
                            seed=args.seed, tol=args.tol)
    header = {"command": "crosscheck", "suite": args.suite, "seed": args.seed,
              "count": args.count}
    return _report(args, f"in suite {args.suite!r}", run, header)


def _cmd_list(args) -> int:
    names = sorted(suites.CROSSCHECK_SUITES) if args.suites else list(fixtures.FIXTURE_NAMES)
    if args.format == "json":
        sys.stdout.write(json.dumps(names) + "\n")
    else:
        kind = "crosscheck suites" if args.suites else "fixtures"
        sys.stdout.write(f"available {kind}:\n")
        for n in names:
            sys.stdout.write(f"  {n}\n")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "crosscheck":
        return _cmd_crosscheck(args)
    return _cmd_list(args)


if __name__ == "__main__":
    sys.exit(main())
