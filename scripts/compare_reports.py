#!/usr/bin/env python3
"""Compare the CLI reports of two source trees on a fixed set of invocations.

Usage:  python3 scripts/compare_reports.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the `finsler_solitons` package (the `src/`
of a checkout).  Every invocation in INVOCATIONS runs
`python3 -m finsler_solitons.cli` once against each tree.  The script prints,
per invocation, whether the outputs are byte-identical ("same"), differ only
in residuals ("near") or differ otherwise ("DIFF"), and the largest absolute
drift of each residual field (`max_abs`, `mean_abs`); at the end, the
largest drift over the jet invocations and over the `--diff-mode fd` ones
(finite differences amplify last-bit changes, so the two are bounded apart),
each with the invocation and check it came from, and the largest ratio of a
drift to the bound max(1e-12, 1e-12 |old|).
A csv or text report is read check by check into the fields of a JSON check
(a text row has verdict, name, max_abs, mean_abs and tol, as printed).

It exits 1 if any invocation differs in anything but those residuals: exit
code, report header, check name, sample count, verdict, tol or detail.
"""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys

FIXTURES = ("gaussian", "gaussian-riemannian", "cigar", "shrinking", "expanding")
SUITES = ("isotropic-s", "jets-vs-fd", "lie-identity", "navigation",
          "randers-ricci", "riemann-reduction")
RESIDUAL_FIELDS = ("max_abs", "mean_abs")
CSV_HEADER = "name,samples,max_abs,mean_abs,tol,verdict,detail"
TEXT_ROW = re.compile(r" *(?P<verdict>\S+)  (?P<name>\S+) +max=(?P<max_abs>\S+) "
                      r"mean=(?P<mean_abs>\S+) tol=(?P<tol>\S+)")

INVOCATIONS = (
    tuple(("verify", "--fixture", name, "--seed", str(seed))
          for seed in (0, 42) for name in FIXTURES)
    + (("verify", "--fixture", "cigar", "--perturb", "f:1e-2"),
       ("verify", "--fixture", "cigar", "--perturb", "W:1e-2"),
       ("verify", "--fixture", "shrinking", "--samples", "1"))
    + tuple(("verify", "--fixture", name, "--diff-mode", "fd", "--samples", "3",
             "--seed", "3") for name in ("gaussian", "gaussian-riemannian", "cigar",
                                          "shrinking"))
    + (("verify", "--fixture", "expanding", "--diff-mode", "fd", "--samples", "3",
        "--seed", "3"),
       ("verify", "--fixture", "cigar", "--diff-mode", "fd", "--samples", "2",
        "--perturb", "f:1e-2"))
    # a run of one flag: the fd evaluation of a one-lane stack
    + tuple(("verify", "--fixture", name, "--diff-mode", "fd", "--samples", "1")
            for name in ("cigar", "shrinking"))
    + tuple(("crosscheck", "--suite", name) for name in SUITES)
    + (("crosscheck", "--suite", "jets-vs-fd", "--count", "5", "--seed", "11"),
       ("crosscheck", "--suite", "randers-ricci", "--count", "3", "--seed", "11"),
       ("crosscheck", "--suite", "riemann-reduction", "--count", "20", "--seed", "11"),
       ("crosscheck", "--suite", "lie-identity", "--count", "10", "--seed", "11"),
       ("crosscheck", "--suite", "navigation", "--count", "100", "--seed", "11"),
       ("crosscheck", "--suite", "navigation", "--count", "37", "--seed", "2"),
       ("crosscheck", "--suite", "isotropic-s", "--count", "8", "--seed", "11"))
    + tuple(("verify", "--fixture", name, "--samples", "2", "--perturb", f"{ing}:1e-2")
            for ing in ("kappa", "mu", "sigma", "f", "W") for name in FIXTURES)
    + tuple(("verify", "--fixture", "cigar", "--samples", "4", "--format", fmt)
            for fmt in ("csv", "text"))
    # every registry fixture has sigma = 0: these make the sigma, kappa and
    # mu terms of the bundle rows non-zero at the full bundle size
    + (("verify", "--fixture", "gaussian", "--perturb", "sigma:1e-2"),
       ("verify", "--fixture", "cigar", "--perturb", "kappa:1e-2"),
       ("verify", "--fixture", "shrinking", "--perturb", "mu:1e-2", "--samples", "4"))
)


def parse_report(text):
    """The report a CLI call printed (JSON, csv or text), or None.

    A csv or text report becomes {header lines..., "checks": [rows]}, each
    row holding the fields of a JSON check that the format prints.
    """
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = text.splitlines()
    floats = RESIDUAL_FIELDS + ("tol",)
    if lines[:1] == [CSV_HEADER]:
        checks = list(csv.DictReader(lines))
        for row in checks:
            row.update({k: float(row[k]) for k in floats}, samples=int(row["samples"]))
        return {"checks": checks}
    if len(lines) >= 2 and lines[-1].startswith("RESULT: "):
        rows = [TEXT_ROW.fullmatch(line) for line in lines[1:-1]]
        if None in rows:
            return None
        checks = [{k: float(v) if k in floats else v for k, v in row.groupdict().items()}
                  for row in rows]
        return {"title": lines[0], "result": lines[-1], "checks": checks}
    return None


def run_cli(src, args):
    """(exit code, parsed report or None, raw stdout) of one CLI call."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "finsler_solitons.cli", *args],
                          env=env, capture_output=True, text=True)
    return proc.returncode, parse_report(proc.stdout), proc.stdout


def compare_one(old, new):
    """(list of discrete differences, {field: (largest drift, largest bound
    ratio, name of the check with the largest drift)})."""
    (code_a, rep_a, out_a), (code_b, rep_b, out_b) = old, new
    diffs = []
    if code_a != code_b:
        diffs.append(f"exit code {code_a} != {code_b}")
    if rep_a is None or rep_b is None:
        if out_a != out_b:
            diffs.append("unparsed output differs")
        return diffs, {}
    head_a = {k: v for k, v in rep_a.items() if k != "checks"}
    head_b = {k: v for k, v in rep_b.items() if k != "checks"}
    if head_a != head_b:
        diffs.append(f"report header {head_a} != {head_b}")
    checks_a, checks_b = rep_a.get("checks", []), rep_b.get("checks", [])
    if len(checks_a) != len(checks_b):
        diffs.append(f"{len(checks_a)} checks != {len(checks_b)}")
    drift = {f: (0.0, 0.0, None) for f in RESIDUAL_FIELDS}
    for ca, cb in zip(checks_a, checks_b):
        for key in sorted(set(ca) | set(cb)):
            # a residual that is not finite is written as null: compared as is
            if key in RESIDUAL_FIELDS and None not in (ca[key], cb[key]):
                d = abs(cb[key] - ca[key])
                worst, ratio, name = drift[key]
                ratio = max(ratio, d / max(1e-12, 1e-12 * abs(ca[key])))
                drift[key] = (d, ratio, ca.get("name")) if d > worst else (worst, ratio, name)
            elif ca.get(key) != cb.get(key):
                diffs.append(f"{ca.get('name')}: {key} {ca.get(key)!r} != {cb.get(key)!r}")
    return diffs, drift


def mode(args):
    """An invocation's differentiation mode: "fd" for `--diff-mode fd`, else "jet"."""
    return "fd" if "fd" in args else "jet"


def compare(old_src, new_src, invocations):
    """Run and compare every invocation.

    Returns (discrete fields all equal, number of byte-identical outputs,
    {mode: (largest residual drift over that mode's invocations, its
    invocation, its check name), or (0.0, None, None) with no drift}, the
    largest ratio of a drift to the bound).
    """
    ok, identical, worst_ratio = True, 0, 0.0
    worst = {"jet": (0.0, None, None), "fd": (0.0, None, None)}
    for args in invocations:
        old, new = run_cli(old_src, args), run_cli(new_src, args)
        diffs, drift = compare_one(old, new)
        same_bytes = old[0] == new[0] and old[2] == new[2]
        status = "DIFF" if diffs else "same" if same_bytes else "near"
        cells = "  ".join(f"{f} {d:.1e}" for f, (d, _, _) in drift.items())
        print(f"{status}  {' '.join(args):62s} {cells}")
        for line in diffs:
            print(f"      {line}")
        ok = ok and not diffs
        identical += same_bytes
        for d, ratio, name in drift.values():
            if d > worst[mode(args)][0]:
                worst[mode(args)] = (d, args, name)
            worst_ratio = max(worst_ratio, ratio)
    return ok, identical, worst, worst_ratio


def where(drift):
    """A mode's largest drift, with the invocation and check it came from."""
    d, args, name = drift
    return f"{d:.2e}" + (f" ({' '.join(args)}: {name})" if args else "")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ok, identical, worst, ratio = compare(argv[0], argv[1], INVOCATIONS)
    print(f"{len(INVOCATIONS)} invocations, {identical} byte-identical; discrete fields "
          f"{'identical' if ok else 'DIFFER'}; largest residual drift: jet "
          f"{where(worst['jet'])}, fd {where(worst['fd'])} (at most {ratio:.3g} x the "
          f"bound max(1e-12, 1e-12 |old|))")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
