"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They run every workload at its smoke size, so they take about 40 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_environment()

import gate  # noqa: E402
import numpy as np  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from finsler_solitons import cli, finsler, jets, sampling, suites  # noqa: E402

SMOKE = {name: wl.sizes["smoke"] for name, wl in workloads.WORKLOADS.items()}


def smoke_pass(name, bench_seed=0):
    invocations = SMOKE[name]
    seeds = workloads.cli_seeds(name, bench_seed, len(invocations))
    return [(inv, seed, run.invoke(cli, inv.argv(seed)))
            for inv, seed in zip(invocations, seeds)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_the_gate(name):
    result, lines = run.measure(workloads.WORKLOADS[name], bench_seed=3, seconds=0,
                                trace=False, size="smoke", probes=1, min_passes=1)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == len(SMOKE[name])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_negative_control_exits_1_with_its_failing_checks():
    ((inv, seed, (code, out, _err)),) = [r for r in smoke_pass("verify-plane")
                                          if r[0].perturb is not None]
    assert code == 1
    failing = [c["name"] for c in json.loads(out)["checks"] if c["verdict"] == "fail"]
    expected = [c["name"] for c in gate.load_reference()[inv.key]["checks"]
                if c["verdict"] == "fail"]
    assert failing == expected and expected


def test_gate_flags_altered_reports():
    reference = gate.load_reference()
    for inv, seed, (code, out, _err) in smoke_pass("verify-plane"):
        assert gate.check(inv, seed, code, out, reference) == []
        passing = next(i for i, c in enumerate(json.loads(out)["checks"])
                       if c["verdict"] == "pass" and c["tol"] > 0)

        def altered(edit):
            report = json.loads(out)
            edit(report)
            return json.dumps(report)

        cases = [
            (1 - code, out),
            (code, altered(lambda r: r["checks"][passing].update(verdict="fail"))),
            (code, altered(lambda r: r["checks"][passing].update(samples=999))),
            (code, altered(lambda r: r["checks"][passing].update(tol=1.0))),
            (code, altered(lambda r: r["checks"][passing].update(
                max_abs=r["checks"][passing]["tol"] * 0.99))),
            (code, altered(lambda r: r["checks"].pop())),
            (code, altered(lambda r: r.update(seed=seed + 1))),
            (code, "not json"),
        ]
        for bad_code, bad_out in cases:
            assert gate.check(inv, seed, bad_code, bad_out, reference), (bad_code, bad_out)


def test_traced_and_untraced_report_bytes_are_identical():
    for inv, seed, plain in smoke_pass("verify-plane") + smoke_pass("crosscheck"):
        with layers.Tracer() as tracer:
            traced = run.invoke(cli, inv.argv(seed))
        assert tracer.stats["jets.mul"][0] > 0
        assert traced == plain


def test_sampling_draws_equal_accepted_plus_rejected():
    with layers.Tracer() as tracer:
        results = smoke_pass("verify-plane")
    assert tracer.accepted == sum(inv.size for inv, _, _ in results)
    assert tracer.draws == tracer.accepted + tracer.rejected


def test_sampling_counts_rejected_draws():
    def F(x, y):
        if x[0] < 0:
            raise jets.EvaluationError("outside the chart")
        return jets.sqrt(y[0] * y[0] + y[1] * y[1]) * (0.0 if x[1] < -0.5 else 1.0)

    fixture = SimpleNamespace(name="half-plane", dim=2, metric=finsler.FinslerMetric(2, F),
                              sample_x=lambda rng: rng.uniform(-1.0, 1.0, size=2))
    with layers.Tracer() as tracer:
        flags = sampling.sample_flags(fixture, 40, np.random.default_rng(1))
    assert len(flags) == tracer.accepted == 40
    assert tracer.rejected > 0
    assert tracer.draws == tracer.accepted + tracer.rejected


def test_missing_targets_are_reported_absent():
    groups = dict(layers.GROUPS)
    groups["finsler.f2_tables"] = (("finsler", "_no_such_function"),)
    groups["jets.mul"] = (("jets", "Jet.__no_such_method__"),)
    groups["cli.render"] = (("no_such_module", "render"),)
    with layers.Tracer(groups) as tracer:
        smoke_pass("verify-plane")
    snap = tracer.snapshot(flags=1)
    assert set(tracer.absent) == {"finsler:_no_such_function", "jets:Jet.__no_such_method__",
                                  "no_such_module:render"}
    for name in ("jets.mul.calls", "finsler.f2_tables.calls",
                 "finsler.f2_tables.order4_per_flag", "cli.render.self_s"):
        assert snap[name] == 0
    assert snap["jets.compose.calls"] > 0


def test_uninstall_restores_every_binding():
    def bindings():
        return (jets.Jet.__dict__["__mul__"], jets.Jet.__dict__["__rmul__"],
                finsler._f2_tables, sampling.sample_flags, suites.sample_flags,
                suites.unit_direction, suites.report_from_values)

    before = bindings()
    with layers.Tracer():
        during = bindings()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, bindings()))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_builds_every_jet_space_a_pass_uses(name, monkeypatch):
    used = set()
    build = jets.jet_space

    def record(nvars, order):
        used.add((nvars, order))
        return build(nvars, order)

    monkeypatch.setattr(jets, "jet_space", record)
    smoke_pass(name)
    assert used <= set(workloads.WORKLOADS[name].jet_spaces)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result, lines = run.measure(workloads.WORKLOADS[name], bench_seed=2, seconds=0,
                                trace=True, size="smoke", probes=1, min_passes=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    metrics = result["metrics"]
    assert list(metrics) == [m.name for m in layers.PER_LAYER]
    # Every layer runs on every workload, so every metric is a number above 0.
    assert all(set(m) == {"value", "unit"} for m in metrics.values())
    assert all(isinstance(m["value"], (int, float)) and m["value"] > 0
               for m in metrics.values()), metrics


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
