"""The Python examples of README.md run as written and print what they say,
and the names it cites exist."""

import ast
import contextlib
import importlib
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


# -- the names README cites --------------------------------------------------------------

SRC = ROOT / "src" / "finsler_solitons"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
PROSE = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
SPANS = re.findall(r"`([^`\n]+)`", PROSE)


def _defined_names():
    """Every name the package binds: defs, classes, assigned names and
    attributes, in any scope."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return names


def test_readme_names_resolve_in_the_source(monkeypatch):
    # every backticked private name is bound somewhere in src/, and every
    # backticked module.attr of a package module resolves by getattr
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    defined = _defined_names()
    private = {m for span in SPANS for m in re.findall(r"(?<![\w.*])(_\w+)", span)}
    qualified = {m for span in SPANS for m in re.findall(
        rf"(?<![\w.])((?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*)+)", span)}
    assert len(private) > 10 and len(qualified) > 10
    missing = sorted(name for name in private if name not in defined)
    for name in sorted(qualified):
        module, *path = name.split(".")
        owner = importlib.import_module(f"finsler_solitons.{module}")
        for part in path:
            owner = getattr(owner, part, missing)
            if owner is missing:
                missing.append(name)
                break
    assert missing == []


# -- the claims map ------------------------------------------------------------------------

CLAIMS = re.search(r"^## Claims map\n(.*?)^## ", (ROOT / "README.md").read_text(),
                   re.S | re.M).group(1)
CLAIM_ROWS = [line.split(" | ") for line in CLAIMS.splitlines()
              if line.startswith("| ") and not line.startswith(("| claim", "| ---"))]


def test_every_row_of_the_claims_map_is_in_a_report():
    from test_vacuous_rows import VACUOUS

    from finsler_solitons import fixtures, suites

    verify_rows = {r.name for name in fixtures.FIXTURE_NAMES
                   for r in suites.run_fixture_suite(fixtures.get_fixture(name), samples=2,
                                                     seed=0)}
    assert len(CLAIM_ROWS) == 6
    cited, vacuous = set(), set()
    for _, rows, checks in CLAIM_ROWS:
        names = set(re.findall(r"`([^`]+)`", rows)) - set(fixtures.FIXTURE_NAMES)
        assert names <= verify_rows, sorted(names - verify_rows)
        cited |= names
        vacuous |= set(re.findall(r"`([^`]+)` \*\(vacuous\)\*", rows))
        for suite, suite_rows in re.findall(r"`([\w-]+)` \(([^)]*)\)", checks):
            got = {r.name for r in suites.run_crosscheck_suite(suite, seed=0, count=2)}
            want = set(re.findall(r"`([^`]+)`", suite_rows))
            assert want and want <= got, (suite, sorted(want - got))
    # every vacuous bundle row is cited, and marked as such
    assert vacuous == set(VACUOUS) <= cited
