"""Correctness gate: compare each CLI report with the reference recorded from
the seed commit (`reference.json`, written by `record_reference.py`).

An invocation matches when its exit code, and each check's name, sample
count, verdict and tolerance, equal the reference, and every passing check's
residual stays within `residual_bound`.  The reference holds, per seed-free invocation, the
largest `max_abs` seen over the recorded benchmark seeds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A passing check may drift to RESIDUAL_FACTOR times its recorded worst case
# (never below RESIDUAL_FLOOR, never above its own tolerance): room for a
# reordered sum, none for a lost digit.
RESIDUAL_FACTOR = 100.0
RESIDUAL_FLOOR = 1e-12


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)["invocations"]


def residual_bound(ref_max_abs: float, tol: float) -> float:
    return min(tol, max(RESIDUAL_FACTOR * ref_max_abs, RESIDUAL_FLOOR))


def summarize(code, report: dict) -> dict:
    """The gated part of one report: exit code and each check's name, samples,
    verdict, max_abs and tol."""
    return {"exit": code,
            "checks": [{"name": c["name"], "samples": c["samples"], "verdict": c["verdict"],
                        "max_abs": c["max_abs"], "tol": c["tol"]} for c in report["checks"]]}


def check(inv, seed: int, code, stdout: str, reference: dict) -> list[str]:
    """Every way this invocation's result differs from the reference ([] = match)."""
    ref = reference.get(inv.key)
    if ref is None:
        return [f"no reference for {inv.key!r}"]
    if code != ref["exit"]:
        return [f"exit code {code}, expected {ref['exit']}"]
    try:
        report = json.loads(stdout)
        got = summarize(code, report)["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    size_key = "samples" if inv.command == "verify" else "count"
    header = {"command": inv.command, "seed": seed, size_key: inv.size,
              "passed": ref["exit"] == 0}
    for key, want in header.items():
        if report.get(key) != want:
            problems.append(f"report {key} = {report.get(key)!r}, expected {want!r}")
    names = [c["name"] for c in got]
    want_names = [c["name"] for c in ref["checks"]]
    if names != want_names:
        return problems + [f"checks {names}, expected {want_names}"]
    for c, r in zip(got, ref["checks"]):
        for field in ("samples", "verdict", "tol"):
            if c[field] != r[field]:
                problems.append(f"{c['name']}: {field} {c[field]!r}, expected {r[field]!r}")
        bound = residual_bound(r["max_abs"], r["tol"])
        if c["verdict"] == "pass" and not (math.isfinite(c["max_abs"])
                                           and c["max_abs"] <= bound):
            problems.append(f"{c['name']}: residual {c['max_abs']!r} above bound {bound!r}")
    return problems


def merge(records: list[dict]) -> dict:
    """Fold per-seed summaries of one invocation into its reference entry.

    Raises ValueError when the seeds disagree on anything but residual size:
    such an invocation is not deterministic enough to gate on.
    """
    first = records[0]
    shape = [(c["name"], c["samples"], c["verdict"], c["tol"]) for c in first["checks"]]
    for rec in records[1:]:
        other = [(c["name"], c["samples"], c["verdict"], c["tol"]) for c in rec["checks"]]
        if rec["exit"] != first["exit"] or other != shape:
            raise ValueError(f"seeds disagree: {first['exit']} {shape} vs {rec['exit']} {other}")
    checks = []
    for i, c in enumerate(first["checks"]):
        worst = max(rec["checks"][i]["max_abs"] for rec in records)
        if not math.isfinite(worst):
            raise ValueError(f"{c['name']}: non-finite residual in the reference run")
        checks.append({"name": c["name"], "samples": c["samples"], "verdict": c["verdict"],
                       "tol": c["tol"], "max_abs": worst})
    return {"exit": first["exit"], "checks": checks}
