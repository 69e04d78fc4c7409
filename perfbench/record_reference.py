#!/usr/bin/env python3
"""Record the correctness reference the benchmark gates on.

    python3 perfbench/record_reference.py

Runs one pass of every workload, at every size, for benchmark seeds
0 .. REFERENCE_SEEDS-1, and writes perfbench/reference.json: per seed-free
invocation, the exit code, each check's name, sample count, verdict and
tolerance, and the largest residual seen.  Run it only on a commit whose reports are trusted;
a change that claims a gain must not re-record it.
"""

from __future__ import annotations

import json
import sys

import gate
import run
import workloads

REFERENCE_SEEDS = 16


def main() -> int:
    run.pin_environment()
    from finsler_solitons import cli

    records: dict[str, list] = {}
    for wl in workloads.WORKLOADS.values():
        for size, invocations in sorted(wl.sizes.items()):
            for bench_seed in range(REFERENCE_SEEDS):
                seeds = workloads.cli_seeds(wl.name, bench_seed, len(invocations))
                for inv, seed in zip(invocations, seeds):
                    code, out, err = run.invoke(cli, inv.argv(seed))
                    if code not in (0, 1):
                        print(f"{' '.join(inv.argv(seed))}: exit {code}\n{err}", file=sys.stderr)
                        return 1
                    summary = gate.summarize(code, json.loads(out))
                    records.setdefault(inv.key, []).append(summary)
            print(f"recorded {wl.name} {size}", file=sys.stderr)
    reference = {"seeds": REFERENCE_SEEDS,
                 "invocations": {key: gate.merge(recs) for key, recs in sorted(records.items())}}
    with open(gate.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
