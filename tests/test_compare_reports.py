"""scripts/compare_reports.py: the tree against itself, and its field rules."""

import importlib.util
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
    assert len(compare_reports.INVOCATIONS) == 45
    assert len(set(compare_reports.INVOCATIONS)) == 45


def test_tree_against_itself_has_zero_drift(compare_reports, capsys):
    cheap = [args for args in compare_reports.INVOCATIONS
             if "riemann-reduction" in args
             or ("gaussian-riemannian" in args and "fd" in args)]
    assert len(cheap) == 3
    src = ROOT / "src"
    ok, identical, worst, ratio = compare_reports.compare(src, src, cheap)
    assert (ok, identical, worst, ratio) == (True, 3, 0.0, 0.0)
    assert capsys.readouterr().out.count("same  ") == 3


def _report(**check):
    row = {"name": "ricci-law", "samples": 4, "max_abs": 1e-14, "mean_abs": 1e-15,
           "max_rel": 1e-14, "tol": 1e-6, "verdict": "pass", "detail": ""}
    row.update(check)
    return {"command": "verify", "fixture": "cigar", "seed": 0, "samples": 4,
            "passed": True, "checks": [row]}


def test_residual_drift_is_measured_and_other_fields_must_match(compare_reports):
    base = (0, _report(), "a")
    diffs, drift = compare_reports.compare_one(base, (0, _report(max_abs=3e-14), "b"))
    assert diffs == []
    assert drift["max_abs"][0] == pytest.approx(2e-14)
    assert drift["max_abs"][1] == pytest.approx(0.02)
    for changed in ({"verdict": "fail"}, {"samples": 5}, {"tol": 1e-7},
                    {"detail": "x"}, {"name": "other"}):
        diffs, _ = compare_reports.compare_one(base, (0, _report(**changed), "b"))
        assert len(diffs) == 1, changed
    diffs, _ = compare_reports.compare_one(base, (1, _report(), "a"))
    assert diffs == ["exit code 0 != 1"]


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
