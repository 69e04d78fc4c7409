"""The Python examples of README.md run as written and print what they say."""

import contextlib
import io
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    if "finsler.evaluate_flags(" in BLOCKS[index]:
        # the cigar example: Ric / F^2 against the law 2 / cosh^2 t at t = 1,
        # then the steady soliton's residual Ric_inf / F^2 - kappa
        ratio, residual = (float(line) for line in out.getvalue().split())
        assert abs(ratio - 2.0 / math.cosh(1.0) ** 2) < 1e-12
        assert abs(residual) < 1e-12
