"""Invariant checks in the package must raise, not assert: `python -O` strips
assert statements, and with them the check."""

import ast
from pathlib import Path

import cubesum

PACKAGE = Path(cubesum.__file__).parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/cubesum: {found}"
