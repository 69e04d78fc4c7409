"""Command-line harness: exit-code contract, formats, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from finsler_solitons import cli, fixtures, suites
from finsler_solitons.finsler import ParameterError


def run_cli(*argv):
    return cli.main(list(argv))


def test_verify_pass_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("verify", "--fixture", "cigar", "--samples", "6", "--seed", "42",
                   "--tol", "1e-7", "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["fixture"] == "cigar"
    assert all(row["verdict"] == "pass" for row in report["checks"])


def test_verify_perturbed_exit_one(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("verify", "--fixture", "cigar", "--samples", "6", "--seed", "42",
                   "--perturb", "f:1e-2", "--output", str(out))
    assert code == 1
    report = json.loads(out.read_text())
    failing = [row["name"] for row in report["checks"] if row["verdict"] == "fail"]
    assert failing, "perturbed run must name at least one failing check"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP open item 8: the fd oracle's infinity-ricci reads max_abs 2.44e-6 "
    "against tol 1e-6 on this run (0.27 s); it passes once the fd bundle is mended"))
def test_expanding_fd_verify_passes(capsys):
    assert run_cli("verify", "--fixture", "expanding", "--diff-mode", "fd",
                   "--samples", "3", "--seed", "3") == 0


def test_removed_workers_option_exit_two():
    assert run_cli("verify", "--fixture", "cigar", "--samples", "2", "--workers", "2") == 2


def test_unknown_fixture_exit_two(capsys):
    assert run_cli("verify", "--fixture", "nosuch") == 2
    err = capsys.readouterr().err
    assert "cigar" in err and "gaussian" in err


def test_bad_perturb_spec_exit_two(capsys):
    assert run_cli("verify", "--fixture", "cigar", "--perturb", "oops") == 2


def test_bad_samples_exit_two(capsys):
    assert run_cli("verify", "--fixture", "cigar", "--samples", "0") == 2


def test_negative_seed_exit_two(capsys):
    # numpy refuses a negative seed: a usage error, not a failed check
    assert run_cli("verify", "--fixture", "cigar", "--samples", "2", "--seed", "-1") == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "seed >= 0" in out.err


def test_suites_refuse_an_empty_or_invalid_run():
    # one guard in the suites: no run of zero samples reports rows of no
    # residuals, and numpy never sees a negative seed
    cigar = fixtures.get_fixture("cigar")
    runs = [lambda: suites.run_fixture_suite(cigar, samples=0, seed=0),
            lambda: suites.run_fixture_suite(cigar, samples=2, seed=-1),
            lambda: suites.run_fixture_suite(cigar, samples=2, seed=0, tol=math.nan),
            lambda: suites.run_crosscheck_suite("navigation", count=0, seed=1),
            lambda: suites.run_crosscheck_suite("navigation", seed=-1),
            lambda: suites.run_crosscheck_suite("navigation", seed=1, tol=math.inf)]
    for run in runs:
        with pytest.raises(ParameterError, match="seed >= 0"):
            run()


def test_usage_error_exit_two():
    assert run_cli("verify") == 2          # missing --fixture
    assert run_cli("bogus-command") == 2


def test_list_fixtures(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in ("gaussian", "cigar", "shrinking", "expanding"):
        assert name in out


def test_list_suites(capsys):
    assert run_cli("list", "--suites") == 0
    out = capsys.readouterr().out
    assert "randers-ricci" in out and "jets-vs-fd" in out


def test_list_json_parses(capsys):
    assert run_cli("list", "--format", "json") == 0
    names = json.loads(capsys.readouterr().out)
    assert isinstance(names, list) and "cigar" in names


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("verify", "--fixture", "gaussian", "--samples", "8",
                       "--seed", "3", "--output", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("verify", "--fixture", "gaussian-riemannian", "--samples", "4",
                   "--seed", "1", "--format", "csv", "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,samples,max_abs")
    assert len(lines) > 3


def test_report_rows_have_exactly_the_schema_columns(capsys):
    columns = ["name", "samples", "max_abs", "mean_abs", "tol", "verdict", "detail"]
    for argv in (["verify", "--fixture", "cigar", "--samples", "2"],
                 ["crosscheck", "--suite", "riemann-reduction", "--count", "2"]):
        assert run_cli(*argv) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks and all(sorted(row) == sorted(columns) for row in checks), argv
        assert run_cli(*argv, "--format", "csv") == 0
        assert capsys.readouterr().out.splitlines()[0] == ",".join(columns), argv


def _no_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def test_a_report_with_residuals_that_are_not_finite_is_valid_json(capsys):
    # kappa perturbed by 1e308 overflows kappa F^2: those residuals are inf,
    # written as null, and the csv and text formats still print them
    argv = ["verify", "--fixture", "cigar", "--samples", "2", "--perturb", "kappa:1e308"]
    with np.errstate(over="ignore"):
        assert run_cli(*argv) == 1
        checks = json.loads(capsys.readouterr().out, parse_constant=_no_constant)["checks"]
        assert run_cli(*argv, "--format", "csv") == 1
        csv_rows = capsys.readouterr().out.splitlines()[1:]
        assert run_cli(*argv, "--format", "text") == 1
        text = capsys.readouterr().out
    nulls = [row["name"] for row in checks if row["max_abs"] is None]
    assert "infinity-ricci" in nulls
    assert all(row["verdict"] == "fail" for row in checks if None in
               (row["max_abs"], row["mean_abs"]))
    assert any(",inf,inf," in row for row in csv_rows) and "max=inf" in text


def test_text_format(capsys):
    assert run_cli("verify", "--fixture", "gaussian-riemannian", "--samples", "4",
                   "--seed", "1", "--format", "text") == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out


def test_crosscheck_suite(tmp_path):
    out = tmp_path / "cc.json"
    code = run_cli("crosscheck", "--suite", "riemann-reduction", "--count", "6",
                   "--seed", "7", "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "riemann-reduction"
    assert report["passed"] is True


def test_crosscheck_passes_only_the_given_count_and_tol(monkeypatch, capsys):
    # each suite's defaults live in its signature; the report keeps the given count
    calls = []

    def suite(count=3, seed=7, tol=1e-9):
        calls.append((count, seed, tol))
        return []

    monkeypatch.setitem(suites.CROSSCHECK_SUITES, "riemann-reduction", suite)
    for extra, want in (((), (3, 7, 1e-9)), (("--count", "5"), (5, 7, 1e-9)),
                        (("--tol", "1e-3", "--seed", "2"), (3, 2, 1e-3))):
        capsys.readouterr()
        assert run_cli("crosscheck", "--suite", "riemann-reduction", *extra) == 0
        assert calls.pop() == want
        count = json.loads(capsys.readouterr().out)["count"]
        assert count == (5 if "--count" in extra else None)


def test_crosscheck_text_header_names_the_count(monkeypatch, capsys):
    # a crosscheck has a count, not samples; without --count the suite's default runs
    monkeypatch.setitem(suites.CROSSCHECK_SUITES, "riemann-reduction",
                        lambda count=3, seed=7, tol=1e-9: [])
    for extra, want in (((), "count=default"), (("--count", "5"), "count=5")):
        capsys.readouterr()
        assert run_cli("crosscheck", "--suite", "riemann-reduction", "--format", "text",
                       *extra) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"riemann-reduction: seed=7 {want}"


def test_crosscheck_unknown_suite(capsys):
    assert run_cli("crosscheck", "--suite", "nosuch") == 2
    assert capsys.readouterr().err == (
        "unknown suite 'nosuch'; available: "
        f"{', '.join(sorted(suites.CROSSCHECK_SUITES))}\n")


def test_a_key_error_inside_a_run_is_not_a_usage_error(monkeypatch, capsys):
    # only a name the registry lacks is a usage error; a KeyError raised while
    # a known suite or fixture runs propagates as the fault it is
    def broken(**kwargs):
        raise KeyError("inner")

    def broken_fixture():
        raise KeyError("inner")

    monkeypatch.setitem(suites.CROSSCHECK_SUITES, "navigation", broken)
    monkeypatch.setitem(fixtures._REGISTRY, "cigar", broken_fixture)
    for argv in (["crosscheck", "--suite", "navigation"],
                 ["verify", "--fixture", "cigar", "--samples", "2"]):
        with pytest.raises(KeyError, match="inner"):
            run_cli(*argv)
        assert "unknown" not in capsys.readouterr().err, argv


def test_crosscheck_bad_count_or_tol_exit_two(capsys):
    for extra in (["--suite", "randers-ricci", "--count", "0"],
                  ["--suite", "navigation", "--count", "-3"],
                  ["--suite", "navigation", "--tol", "0"],
                  ["--suite", "jets-vs-fd", "--tol", "-0.5"],
                  ["--suite", "navigation", "--seed", "-1"]):
        assert run_cli("crosscheck", *extra) == 2, extra
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and "count >= 1" in out.err


def test_non_finite_tol_or_perturbation_exit_two(capsys):
    # a NaN tolerance would run the whole suite and fail every check
    for argv in (["verify", "--fixture", "gaussian", "--tol", "nan"],
                 ["verify", "--fixture", "gaussian", "--tol", "inf"],
                 ["verify", "--fixture", "cigar", "--perturb", "f:nan"],
                 ["verify", "--fixture", "cigar", "--perturb", "W:-inf"],
                 ["crosscheck", "--suite", "navigation", "--tol", "nan"],
                 ["crosscheck", "--suite", "riemann-reduction", "--tol", "inf"]):
        assert run_cli(*argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert "finite" in out.err, argv


def test_evaluation_error_exit_three(capsys):
    # a wind perturbation of 50 pushes ||W|| past 1 on the whole domain, so
    # every sampled flag trips the navigation guard
    assert run_cli("verify", "--fixture", "cigar", "--samples", "4",
                   "--perturb", "W:50") == 3
    assert "evaluation error" in capsys.readouterr().err


def test_unwritable_output_exit_two(tmp_path, capsys):
    # the suite runs, but its report cannot be written: a usage error, not a
    # failed check, with one line on stderr and no traceback
    out = tmp_path / "no-such-dir" / "r.json"
    for argv in (["verify", "--fixture", "gaussian", "--samples", "1"],
                 ["crosscheck", "--suite", "riemann-reduction", "--count", "2"]):
        assert run_cli(*argv, "--output", str(out)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "cannot write report" in captured.err
        assert not out.exists()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-c",
                           "from finsler_solitons.cli import main; import sys; "
                           "sys.exit(main(['list', '--format', 'json']))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cigar" in proc.stdout


def test_one_parser_per_process_parses_as_a_fresh_one(capsys):
    # usage errors (a missing option, an unknown command, a bad choice, a bad
    # int) and --help run before valid calls on the process's one parser;
    # each call's exit code and bytes equal those of a freshly built parser
    argvs = (["verify"], ["bogus"], ["verify", "--fixture", "cigar", "--format", "xml"],
             ["verify", "--fixture", "cigar", "--samples", "two"], ["list", "--help"],
             ["verify", "--fixture", "cigar", "--samples", "1", "--seed", "3"],
             ["crosscheck", "--suite", "riemann-reduction", "--count", "1"],
             ["list", "--suites", "--format", "json"], ["verify"])
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    shared = []
    for argv in argvs:
        shared.append((cli.main(argv), capsys.readouterr()))
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append((cli.main(argv), capsys.readouterr()))
    assert shared == fresh
    assert [code for code, _ in shared] == [2, 2, 2, 2, 0, 0, 0, 0, 2]
