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
