"""scripts/compare_reports.py: the tree against itself, and its field rules."""

import importlib.util
import json
import pathlib

import pytest

from finsler_solitons import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def compare_reports():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", ROOT / "scripts" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_invocation_list(compare_reports):
    assert len(compare_reports.INVOCATIONS) == 64
    assert len(set(compare_reports.INVOCATIONS)) == 64


def test_tree_against_itself_has_zero_drift(compare_reports, capsys):
    cheap = [args for args in compare_reports.INVOCATIONS
             if "riemann-reduction" in args
             or ("gaussian-riemannian" in args and "fd" in args)]
    assert len(cheap) == 3
    src = ROOT / "src"
    ok, identical, worst, ratio = compare_reports.compare(src, src, cheap)
    assert (ok, identical, ratio) == (True, 3, 0.0)
    assert worst == {"jet": (0.0, None, None), "fd": (0.0, None, None)}
    assert capsys.readouterr().out.count("same  ") == 3


def test_drift_is_kept_per_differentiation_mode(compare_reports):
    # every --diff-mode invocation is an fd one; the jets-vs-fd suite is jet
    invocations = compare_reports.INVOCATIONS
    fd = [args for args in invocations if compare_reports.mode(args) == "fd"]
    assert fd == [args for args in invocations if "--diff-mode" in args]
    assert len(fd) == 8
    assert compare_reports.mode(("crosscheck", "--suite", "jets-vs-fd")) == "jet"


def _report(**check):
    row = {"name": "ricci-law", "samples": 4, "max_abs": 1e-14, "mean_abs": 1e-15,
           "tol": 1e-6, "verdict": "pass", "detail": ""}
    row.update(check)
    return {"command": "verify", "fixture": "cigar", "seed": 0, "samples": 4,
            "passed": True, "checks": [row]}


def test_residual_drift_is_measured_and_other_fields_must_match(compare_reports):
    base = (0, _report(), "a")
    diffs, drift = compare_reports.compare_one(base, (0, _report(max_abs=3e-14), "b"))
    assert diffs == []
    assert drift["max_abs"][0] == pytest.approx(2e-14)
    assert drift["max_abs"][1] == pytest.approx(0.02)
    assert drift["max_abs"][2] == "ricci-law"
    for changed in ({"verdict": "fail"}, {"samples": 5}, {"tol": 1e-7},
                    {"detail": "x"}, {"name": "other"}):
        diffs, _ = compare_reports.compare_one(base, (0, _report(**changed), "b"))
        assert len(diffs) == 1, changed
    diffs, _ = compare_reports.compare_one(base, (1, _report(), "a"))
    assert diffs == ["exit code 0 != 1"]


def test_a_null_residual_compares_as_it_is(compare_reports):
    # a report writes a residual that is not finite as null
    null = (1, _report(max_abs=None, verdict="fail"), "a")
    diffs, drift = compare_reports.compare_one(null, (1, _report(max_abs=None, verdict="fail"),
                                                      "a"))
    assert diffs == [] and drift["max_abs"] == (0.0, 0.0, None)
    diffs, _ = compare_reports.compare_one(null, (1, _report(verdict="fail"), "b"))
    assert diffs == ["ricci-law: max_abs None != 1e-14"]


def test_summary_names_the_invocation_and_check_of_each_largest_drift(
        compare_reports, monkeypatch, capsys):
    # (invocation, {check: drift of max_abs in the new tree})
    drifts = {("crosscheck", "--suite", "navigation"): {"roundtrip": 3e-16},
              ("crosscheck", "--suite", "jets-vs-fd"): {"pipeline-s": 1e-12,
                                                        "pipeline-s-dot": 4e-11},
              ("verify", "--fixture", "cigar", "--diff-mode", "fd"): {"ricci-law": 2e-9}}

    def run_cli(src, args):
        rep = {"command": args[0], "checks": [
            dict(_report()["checks"][0], name=name, max_abs=1e-10 + (d if src == "new" else 0.0))
            for name, d in drifts[args].items()]}
        return 0, rep, json.dumps(rep)

    monkeypatch.setattr(compare_reports, "run_cli", run_cli)
    monkeypatch.setattr(compare_reports, "INVOCATIONS", tuple(drifts))
    assert compare_reports.main(["old", "new"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("3 invocations, 0 byte-identical; discrete fields identical")
    assert "jet 4.00e-11 (crosscheck --suite jets-vs-fd: pipeline-s-dot)" in summary
    assert "fd 2.00e-09 (verify --fixture cigar --diff-mode fd: ricci-law)" in summary


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_csv_and_text_reports_are_compared_check_by_check(compare_reports, fmt):
    def run(**check):
        out = cli._render(_report(**check), fmt)
        return 0, compare_reports.parse_report(out), out

    base = run()
    assert base[1]["checks"][0]["max_abs"] == 1e-14
    diffs, drift = compare_reports.compare_one(base, run(max_abs=3e-14))
    assert diffs == []
    assert drift["max_abs"][0] == pytest.approx(2e-14)
    diffs, _ = compare_reports.compare_one(base, run(verdict="fail"))
    assert len(diffs) == 1 and "verdict" in diffs[0]
