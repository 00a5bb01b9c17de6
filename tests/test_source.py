"""Properties of the package source itself."""

import ast
from pathlib import Path

import blowup_lab

SRC = Path(blowup_lab.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently vanish; the library raises explicit exceptions instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
