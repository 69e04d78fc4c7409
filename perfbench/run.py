#!/usr/bin/env python3
"""Benchmark of the finsler-solitons CLI.

    python3 perfbench/run.py --workload verify-plane --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each pass calls `finsler_solitons.cli.main`
once per invocation of the workload (see workloads.py), in this process,
exactly as a user's `finsler-solitons verify` / `crosscheck` run does, and
every report goes through the correctness gate (gate.py).

`--trace 0` prints the end-to-end metrics: flags_per_s (flags per pass over
the sum of each invocation's median time across the timed passes), setup_s
(median over PROBES fresh interpreters, see probe.py) and peak_rss_mb.  Times
are in nominal seconds, corrected for the machine's drifting speed by a
kernel timed between calls (see speed.py).
`--trace 1` times untraced passes, then the same passes with the outside-in
hooks of layers.py installed, and prints the per-layer metrics.  The last
line of stdout is one JSON object; the lines before it are a human summary.
Exit status: 0 when every report matched the reference, 1 when one did not,
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, Tracer  # noqa: E402
from probe import SRC, WORKERS_ENV, pin_environment, prepare  # noqa: E402

END_TO_END = {"flags_per_s": "flags/s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBES = 7      # fresh interpreters timed for setup_s


def probe_setup(workload, count: int, meter) -> tuple[list[float], list[float]]:
    """Time `count` fresh interpreters from start to ready.

    Returns (set-up seconds, jet_space build seconds) per interpreter, both
    nominal.  The interpreters inherit this process's CPU, so the speed
    measured here just before and after one is the speed it ran at.
    """
    setups, builds = [], []
    before = meter.bracket()
    for _ in range(count):
        wall, build = _probe_once(workload)
        after = meter.bracket()
        setups.append(speed.nominal(wall, before, after))
        if build is not None:
            builds.append(speed.nominal(build, before, after))
        before = after
    return setups, builds


def _probe_once(workload) -> tuple[float, float | None]:
    """(seconds to the READY line, the probe's own jet_space build seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload.name],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or not line.startswith("READY "):
        raise RuntimeError(f"set-up probe failed with exit code {code}: {line!r}")
    return wall, json.loads(line[len("READY "):])["jet_space_build_s"]


def invoke(cli, argv) -> tuple[int | None, str, str]:
    """One CLI call in this process: (exit code or None on a crash, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


class Session:
    """Repeated passes over one workload's invocations, each result gated.

    The first pass is checked against the reference; every later pass must
    reproduce its exit codes and report bytes exactly.
    """

    def __init__(self, invocations, seeds, reference, meter):
        from finsler_solitons import cli
        self.cli = cli
        self.meter = meter
        self.wall: list[list[float]] = []   # wall-clock call times, per pass
        self.invocations = invocations
        self.seeds = seeds
        self.reference = reference
        self.flags = sum(inv.flags for inv in invocations)
        self.first: list[tuple] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self) -> list[float]:
        """One call of every invocation; returns each call's nominal time."""
        results, times, wall = [], [], []
        before = self.meter.bracket()
        for inv, seed in zip(self.invocations, self.seeds):
            t0 = time.perf_counter()
            results.append(invoke(self.cli, inv.argv(seed)))
            seconds = time.perf_counter() - t0
            after = self.meter.bracket()
            wall.append(seconds)
            times.append(speed.nominal(seconds, before, after))
            before = after
        self.wall.append(wall)
        self._check(results)
        return times

    def _check(self, results):
        if self.first is None:
            self.first = [(code, out) for code, out, _ in results]
        for inv, seed, (code, out, err), first in zip(self.invocations, self.seeds,
                                                      results, self.first):
            self.attempted += 1
            if (code, out) != first:
                problems = ["exit code or report bytes differ from the first pass"]
            else:
                problems = gate.check(inv, seed, code, out, self.reference)
            if problems:
                self.failed += 1
                argv = " ".join(inv.argv(seed))
                self.problems += [f"{argv}: {p}" for p in problems]
                if err:
                    self.problems.append(f"{argv}: stderr: {err.strip()[-2000:]}")


def timed_passes(session, seconds: float, min_passes: int) -> list[list[float]]:
    """Run passes until the next one would end after `seconds`; per-call times."""
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(session.run_pass())
        durations.append(time.perf_counter() - t0)
        if (len(passes) >= min_passes
                and time.perf_counter() - start + statistics.median(durations) > seconds):
            return passes


def pass_s(passes) -> float:
    """Sum over invocations of each invocation's median time across passes."""
    return sum(statistics.median(col) for col in zip(*passes))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(cpus) -> str:
    import numpy
    return (f"nproc={len(cpus)} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas_threads=1 {WORKERS_ENV}=unset workers=1 "
            f"pinned_cpu={min(cpus)}")


def measure(workload, bench_seed, seconds, trace, **options):
    """Run the benchmark in this process; returns (result dict, summary lines).

    The run keeps to one CPU, as do the set-up interpreters it starts: the
    CPUs of a shared machine run at different, drifting speeds, and the speed
    samples (speed.py) only correct a call for the CPU they share it with.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _measure(workload, bench_seed, seconds, trace, cpus, **options)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(workload, bench_seed, seconds, trace, cpus, size="full", probes=PROBES, min_passes=3):
    invocations = workload.sizes[size]
    seeds = workloads.cli_seeds(workload.name, bench_seed, len(invocations))
    meter = speed.Speedometer()
    session = Session(invocations, seeds, gate.load_reference(), meter)
    setups, builds = probe_setup(workload, probes, meter)
    prepare(workload)
    lines = [f"workload {workload.name} size={size} seed={bench_seed} "
             f"cli_seeds={seeds} flags/pass={session.flags}",
             f"env {environment(cpus)}"]
    if not trace:
        passes = timed_passes(session, seconds, min_passes)
        q1, q2, q3 = quartiles([session.flags / sum(p) for p in passes])
        lines.append(f"nominal flags/s per pass: median={q2:.2f} q1={q1:.2f} q3={q3:.2f} "
                     f"passes={len(passes)}")
        q1, q2, q3 = quartiles([session.flags / sum(p) for p in session.wall])
        lines.append(f"wall-clock flags/s per pass: median={q2:.2f} q1={q1:.2f} q3={q3:.2f}; "
                     f"kernel repetition now {meter.bracket():.3e} s, "
                     f"nominal {speed.NOMINAL_REP_S:.3e} s")
        lines.append(f"setup_s samples={[round(s, 4) for s in setups]}")
        values = {"flags_per_s": session.flags / pass_s(passes),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
        units = END_TO_END
    else:
        units = {m.name: m.unit for m in PER_LAYER}
        min_passes = min(min_passes, 2)     # each phase gets half the time
        plain = timed_passes(session, seconds / 2, min_passes)
        tracer = Tracer()
        snapshots, traced, shares = [], [], {}
        with tracer:
            deadline = time.perf_counter() + seconds / 2
            while len(traced) < min_passes or time.perf_counter() < deadline:
                tracer.reset()
                traced.append(session.run_pass())
                # Span times are wall seconds; rescale them to nominal ones.
                scale = sum(traced[-1]) / sum(session.wall[-1])
                snapshots.append({name: v * scale if units[name] == "s" else v
                                  for name, v in tracer.snapshot(session.flags).items()})
                shares = tracer.inclusive_shares(sum(session.wall[-1]))
                if tracer.draws != tracer.accepted + tracer.rejected:
                    session.failed += 1
                    session.problems.append(
                        f"sampling.draws {tracer.draws} != accepted {tracer.accepted} "
                        f"+ rejected {tracer.rejected}")
        values = {name: statistics.median(s[name] for s in snapshots) for name in snapshots[0]}
        values["jets.jet_space.build_s"] = statistics.median(builds) if builds else 0.0
        values["trace.overhead"] = pass_s(traced) / pass_s(plain)
        absent = tracer.absent + ([] if builds else ["jets:jet_space"])
        lines.append(f"passes untraced={len(plain)} traced={len(traced)}; "
                     f"absent targets (measured as 0): {absent or 'none'}")
        lines.append("inclusive share of a traced pass: " + ", ".join(
            f"{g} {v:.1%}" for g, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    lines.append(f"attempted={session.attempted} failed={session.failed} "
                 f"failed_share={session.failed / session.attempted:.4f}")
    lines += [f"MISMATCH {p}" for p in dict.fromkeys(session.problems)]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="benchmark seed (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0, help="timed span per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "finsler_solitons").is_dir():
        print(f"perfbench: package source not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        ap.error("--workload is required")
    pin_environment()
    try:
        result, lines = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
