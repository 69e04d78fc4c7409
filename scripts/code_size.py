#!/usr/bin/env python3
"""Print the size of the library: its lines, its functions and its
defaulted parameters.

Usage:  python3 scripts/code_size.py [PACKAGE_DIR]

PACKAGE_DIR holds the `*.py` files counted (default: this checkout's
`src/finsler_solitons`).  Lines are those of `wc -l`.  A function is a
`def`, `async def` or `lambda`, and a defaulted parameter is one that has a
default value, positional or keyword-only, counted over all of them.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "finsler_solitons"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def code_size(package) -> dict:
    lines = functions = defaulted = 0
    for path in sorted(pathlib.Path(package).glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, FUNCTIONS):
                functions += 1
                defaulted += len(node.args.defaults)
                defaulted += sum(d is not None for d in node.args.kw_defaults)
    return {"lines": lines, "functions": functions, "defaulted parameters": defaulted}


def main(argv):
    if len(argv) > 1:
        print("usage: python3 scripts/code_size.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    if not package.is_dir():
        print(f"not a directory: {package}", file=sys.stderr)
        return 2
    for name, value in code_size(package).items():
        print(f"{name:22s}{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
