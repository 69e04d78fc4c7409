#!/usr/bin/env python3
"""Run every fixture suite and every crosscheck suite at default counts and
print a one-line summary per suite.  Exits 1 if anything fails, and 2 with
one line on stderr if the sample count or seed is out of range.

Usage:  python3 scripts/run_all_checks.py [--samples 64] [--seed 0]
"""

import argparse
import sys
import time

from finsler_solitons import fixtures, suites
from finsler_solitons.finsler import ParameterError
from finsler_solitons.reports import all_passed, worst


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except ParameterError as exc:
        print(exc, file=sys.stderr)
        return 2


def run(args):
    failed = False
    for name in fixtures.FIXTURE_NAMES:
        t0 = time.perf_counter()
        rows = suites.run_fixture_suite(fixtures.get_fixture(name),
                                        samples=args.samples, seed=args.seed)
        ok = all_passed(rows)
        failed |= not ok
        extra = "" if ok else f"  worst: {worst(rows).name} = {worst(rows).max_abs:.2e}"
        print(f"fixture    {name:22s} {len(rows):3d} checks "
              f"{'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:5.1f}s){extra}")
    for name in sorted(suites.CROSSCHECK_SUITES):
        t0 = time.perf_counter()
        rows = suites.run_crosscheck_suite(name, seed=args.seed + 7)
        ok = all_passed(rows)
        failed |= not ok
        extra = "" if ok else f"  worst: {worst(rows).name} = {worst(rows).max_abs:.2e}"
        print(f"crosscheck {name:22s} {len(rows):3d} checks "
              f"{'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:5.1f}s){extra}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
