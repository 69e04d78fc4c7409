"""Smoke runs of the experiment scripts, so an API change that breaks one fails here."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cigar_profile_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cigar_profile.py"),
                           "--points", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "fitted soliton scalar kappa" in proc.stdout


def test_run_all_checks_refuses_a_bad_sample_count_or_seed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args in (["--samples", "0"], ["--seed", "-1"]):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_all_checks.py"),
                               *args], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "seed >= 0" in proc.stderr, args


def test_code_size_counts_lines_functions_and_defaults(tmp_path):
    (tmp_path / "a.py").write_text("def f(x, y=1, *, z=2, w):\n    return lambda v=0: v\n")
    (tmp_path / "b.py").write_text("g = 1\n")
    script = str(ROOT / "scripts" / "code_size.py")
    for args in ([str(tmp_path)], []):
        proc = subprocess.run([sys.executable, script, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [row[:-1] for row in rows] == [["lines"], ["functions"],
                                              ["defaulted", "parameters"]]
        if args:
            assert [row[-1] for row in rows] == ["3", "2", "3"]
