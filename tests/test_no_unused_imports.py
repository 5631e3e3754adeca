"""Every name the package, the scripts, the tests and the test-only reference
modules (tests/reference_*.py) import is used. Every private name the package
and the reference modules define at module level or as a method of a class is
read: an import or a helper that nothing references is dead code that still costs a load and misleads the reader about what the code
depends on. Every public module-level name of the package is read by the
package, a script or a bench file, not by the tests alone. No package module
reads another one's private name: what a module shares is public. The census,
field and lattice-sum oracles import nothing from cubesum, so a fault in the
code they check cannot reach them."""

import ast
from pathlib import Path

import cubesum

PACKAGE = Path(cubesum.__file__).parent
TESTS = Path(__file__).parent


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


def _module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The functions, classes and assigned names a module binds at its top level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)]
    return found


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The private names a module binds: module-level functions, classes and
    assigned names, and the methods of its classes, that start with one
    underscore and are not dunders."""
    found = [(m.name, m.lineno) for node in tree.body if isinstance(node, ast.ClassDef)
             for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, line) for name, line in found + _module_level_names(tree) if _is_private(name)]


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads, bare or as an attribute of another object."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    read = set().union(*map(_reads, trees.values()))
    return sorted(f"{name}:{line} {private}"
                  for name, tree in trees.items()
                  for private, line in _private_definitions(tree)
                  if private not in read)


def _unread_public_names(trees: dict[str, ast.Module], readers: dict[str, ast.Module]) -> list[str]:
    """The public module-level names of trees that none of readers reads."""
    read = set().union(*map(_reads, readers.values()))
    return sorted(f"{name}:{line} {public}"
                  for name, tree in trees.items()
                  for public, line in _module_level_names(tree)
                  if not public.startswith("_") and public not in read)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _foreign_private_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """Private names a module takes from a sibling: `from .m import _name`, and
    `m._name` where m was bound by `from . import m`. Private attributes of
    objects (`E._fibers`) are not module reads and are not flagged."""
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                siblings |= {alias.asname or alias.name for alias in node.names}
            else:
                found += [(f"{node.module}.{alias.name}", node.lineno)
                          for alias in node.names if _is_private(alias.name)]
    found += [(f"{node.value.id}.{node.attr}", node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and _is_private(node.attr)]
    return sorted(found)


def _trees(directory: Path, pattern: str) -> dict[str, ast.Module]:
    sources = sorted(directory.glob(pattern))
    assert sources
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}


def _package_trees() -> dict[str, ast.Module]:
    return _trees(PACKAGE, "*.py")


def test_package_has_no_unused_imports():
    found = [
        f"{name}:{line} {imported}"
        for name, tree in _package_trees().items()
        for imported, line in _unused_imports(tree)
    ]
    assert not found, f"unused imports in src/cubesum: {found}"


def test_detector_flags_an_unused_name():
    tree = ast.parse("from math import gcd, isqrt\nimport os.path\nprint(isqrt(4))\n")
    assert _unused_imports(tree) == [("gcd", 1), ("os", 2)]


def test_package_reads_every_private_name():
    found = _unread_private_names(_package_trees())
    assert not found, f"private names nothing reads in src/cubesum: {found}"


def test_detector_flags_an_unread_private_name():
    trees = {
        "a.py": ast.parse("_TABLE = {1: 2}\n_INVERSE = {2: 1}\ndef _helper():\n    return _TABLE\n"
                          "class _Gone:\n    pass\n__version__ = '1'\n_kept: int = 0\n"),
        "b.py": ast.parse("from a import _helper\nimport a\nprint(a._kept, _helper())\n"),
    }
    assert _unread_private_names(trees) == ["a.py:2 _INVERSE", "a.py:5 _Gone"]


def test_detector_flags_an_unread_private_method():
    trees = {
        "a.py": ast.parse("class Ring:\n    def _norm(self):\n        return 1\n"
                          "    def _unused(self):\n        return 2\n"
                          "    def __len__(self):\n        return self._norm()\n"),
    }
    assert _unread_private_names(trees) == ["a.py:4 _unused"]


def test_package_scripts_or_bench_read_every_public_name():
    # a public name only the tests read is an API kept for the tests alone
    repo = TESTS.parent
    readers = {**_package_trees(), **_trees(repo / "scripts", "*.py"), **_trees(repo / "bench", "*.py")}
    found = _unread_public_names(_package_trees(), readers)
    assert not found, f"public names in src/cubesum that no module, script or bench file reads: {found}"


def test_detector_flags_an_unread_public_name():
    trees = {
        "a.py": ast.parse("ONE = 1\nTWO: int = 2\ndef used():\n    return ONE\n"
                          "def unused():\n    pass\nclass Gone:\n    pass\n_private = 3\n"),
    }
    readers = {**trees, "run.py": ast.parse("import a\nprint(a.used(), a.TWO)\n")}
    assert _unread_public_names(trees, readers) == ["a.py:5 unused", "a.py:7 Gone"]
    assert _unread_public_names(trees, trees) == ["a.py:2 TWO", "a.py:3 used", "a.py:5 unused", "a.py:7 Gone"]


def test_package_reads_no_private_name_of_another_module():
    found = [f"{name}:{line} {read}"
             for name, tree in _package_trees().items()
             for read, line in _foreign_private_reads(tree)]
    assert not found, f"private names read across src/cubesum modules: {found}"


def test_detector_flags_a_private_name_read_across_modules():
    tree = ast.parse("from . import modular as mod, rings\nfrom .arith import _spf, is_prime\n"
                     "from os import _exit\n\ndef f(E, P):\n"
                     "    return mod._alpha(rings.__name__, mod.hecke, E._fibers, P.x._rows, is_prime)\n")
    assert _foreign_private_reads(tree) == [("arith._spf", 2), ("mod._alpha", 6)]


def test_reference_modules_have_no_unused_imports():
    found = [
        f"{name}:{line} {imported}"
        for name, tree in _trees(TESTS, "reference_*.py").items()
        for imported, line in _unused_imports(tree)
    ]
    assert not found, f"unused imports in tests/reference_*.py: {found}"


def test_scripts_and_tests_have_no_unused_imports():
    found = [
        f"{name}:{line} {imported}"
        for name, tree in {**_trees(TESTS.parent / "scripts", "*.py"), **_trees(TESTS, "test_*.py")}.items()
        for imported, line in _unused_imports(tree)
    ]
    assert not found, f"unused imports in scripts/*.py and tests/test_*.py: {found}"


def test_reference_modules_read_every_private_name():
    # a reference module's helper may be read by the reference modules or the tests
    references, tests = _trees(TESTS, "reference_*.py"), _trees(TESTS, "test_*.py")
    read = set().union(*map(_reads, {**references, **tests}.values()))
    found = sorted(f"{name}:{line} {private}"
                   for name, tree in references.items()
                   for private, line in _private_definitions(tree)
                   if private not in read)
    assert not found, f"private names nothing reads in tests/reference_*.py: {found}"


# the oracles that must share no code with the package they check
INDEPENDENT_REFERENCES = ("reference_search.py", "reference_field.py", "reference_lattice.py")


def _cubesum_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """The imports of cubesum or of anything in it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name.split(".")[0] == "cubesum"]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "cubesum":
            found.append((node.module, node.lineno))
    return found


def test_independent_oracles_import_nothing_from_cubesum():
    trees = _trees(TESTS, "reference_*.py")
    assert set(INDEPENDENT_REFERENCES) <= set(trees)
    found = [f"{name}:{line} {module}" for name in INDEPENDENT_REFERENCES
             for module, line in _cubesum_imports(trees[name])]
    assert not found, f"independent oracles import the package: {found}"


def test_detector_flags_a_cubesum_import():
    tree = ast.parse("import numpy as np\nimport cubesum.arith\nfrom cubesum import diophantine\n"
                     "from cubesum.arith import icbrt\nfrom cubesumx import y\n"
                     "def f():\n    import cubesum as c\n")
    assert _cubesum_imports(tree) == [("cubesum.arith", 2), ("cubesum", 3), ("cubesum.arith", 4),
                                      ("cubesum", 7)]
