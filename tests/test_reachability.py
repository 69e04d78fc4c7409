"""Every def and class of the package serves a report, a script or the
benchmark: each is reached, by name, from the CLI, `scripts/*.py`, the
non-test `perfbench/*.py` or the package's own module-level statements
(`fixtures._REGISTRY`, `suites.BUNDLES`, `suites.CROSSCHECK_SUITES`, ...).
Tests are not roots, so a def only tests call shows up here.

The walk matches names, not bindings: a reached def marks every name its
body reads (a bare name, an attribute, or a string that is an identifier,
as in `getattr` or the benchmark's wrapper tables) as reached, whichever
def of that name it means.  So it can miss an unreached def, but it never
reports a reached one.  A class marks the statements of its body and its
dunder methods; its other methods are defs of their own.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCTIONS + (ast.ClassDef,)

# The defs no root reaches, each with the reason it stays in the package.
# An entry goes when its def is wired into a report (or deleted).
UNREACHED = {
    "sphere_metric": "the round-sphere metric of the planned sphere-almost "
                     "fixture (ROADMAP item 4)",
    "almost_soliton_residual": "the defining equation 2 Ric + L_V(F^2) = 2 kappa F^2, "
                               "planned as a report row (ROADMAP item 5)",
    "spray_correction": "the closed form test_spray_navigation_correction holds "
                        "the engine's spray to (a test's reference oracle)",
}


def _names(nodes):
    """Every name the nodes read: bare names, attributes and identifier strings."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                    and sub.value.isidentifier():
                out.add(sub.value)
    return out


def _own_statements(node):
    """What a reached def runs: a function whole; a class's bases, decorators
    and body statements other than its methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return (node.bases + node.keywords + node.decorator_list
            + [s for s in node.body if not isinstance(s, FUNCTIONS)])


def _defs(tree):
    """(name, node) of every def and class, methods and nested defs included."""
    return [(node.name, node) for node in ast.walk(tree) if isinstance(node, DEFS)]


def unreached(root: pathlib.Path) -> set:
    package = root / "src" / "finsler_solitons"
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    roots = [trees.pop("cli.py")]
    roots += [ast.parse(p.read_text(), str(p)) for p in sorted((root / "scripts").glob("*.py"))]
    roots += [ast.parse(p.read_text(), str(p))
              for p in sorted((root / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")]
    reached = _names(roots)
    reached |= _names([stmt for tree in trees.values() for stmt in tree.body
                       if not isinstance(stmt, DEFS)])
    defs = [d for tree in trees.values() for d in _defs(tree)]
    done = set()
    while todo := [node for name, node in defs if name in reached and id(node) not in done]:
        for node in todo:
            done.add(id(node))
            reached |= _names(_own_statements(node))
            if isinstance(node, ast.ClassDef):
                reached |= {s.name for s in node.body
                            if isinstance(s, FUNCTIONS) and s.name.startswith("__")}
    return {name for name, node in defs if id(node) not in done}


def test_every_package_def_is_reached_or_listed():
    assert unreached(ROOT) == set(UNREACHED)
