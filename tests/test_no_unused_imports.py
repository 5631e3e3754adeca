"""Every name the package imports is used: an import that nothing references is
dead code that still costs a load and misleads the reader about dependencies."""

import ast
from pathlib import Path

import cubesum

PACKAGE = Path(cubesum.__file__).parent


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_package_has_no_unused_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for name, line in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"unused imports in src/cubesum: {found}"


def test_detector_flags_an_unused_name():
    tree = ast.parse("from math import gcd, isqrt\nimport os.path\nprint(isqrt(4))\n")
    assert _unused_imports(tree) == [("gcd", 1), ("os", 2)]
