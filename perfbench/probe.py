#!/usr/bin/env python3
"""Set-up of one workload in a fresh interpreter, the part of `setup_s` a CLI user pays.

    python3 perfbench/probe.py WORKLOAD

Imports `finsler_solitons`, builds the workload's fixtures and the
`jets.jet_space` tables a pass uses, then prints one line,
`READY {"jet_space_build_s": ...}`, and exits.  Of the benchmark it imports
only workloads.py, so the time to the READY line is the package's set-up.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKERS_ENV = "FINSLER_SOLITONS_WORKERS"


def pin_environment():
    """Single process, one BLAS/OpenMP thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(WORKERS_ENV, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def parse_perturb(text):
    if text is None:
        return None
    ingredient, eps = text.split(":", 1)
    return ingredient, float(eps)


def prepare(workload) -> float | None:
    """Build the workload's fixtures and jet spaces; returns the jet build time.

    The jet time is None when the package no longer has `jets.jet_space`.
    """
    from finsler_solitons import cli, fixtures, jets  # noqa: F401
    for name, perturb in workload.fixtures:
        fixtures.get_fixture(name, perturb=parse_perturb(perturb))
    build = getattr(jets, "jet_space", None)
    if build is None:
        return None
    t0 = time.perf_counter()
    for nvars, order in workload.jet_spaces:
        build(nvars, order)
    return time.perf_counter() - t0


if __name__ == "__main__":
    pin_environment()
    import workloads
    build_s = prepare(workloads.WORKLOADS[sys.argv[1]])
    print("READY " + json.dumps({"jet_space_build_s": build_s}), flush=True)
