"""Correctness checks in the package must raise, not assert.

``python -O`` strips assert statements, so a check written as one silently
disappears.  This lint parses every module of the package and fails on any
assert node.
"""

import ast
from pathlib import Path

import boxchrom

PACKAGE = Path(boxchrom.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
