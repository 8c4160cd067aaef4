"""Every exported name imports and has a caller outside the tests.

A name in `expocert.__all__` must be used by the library itself (outside
its own definition and `__init__.py`) or by the acceptance criteria in
`tests/test_acceptance.py`. Library code that only unit tests reach is
then caught here, before it can grow back.
"""

import ast
from pathlib import Path

import expocert

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expocert"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _uses(tree: ast.AST, skip: range = range(0)) -> set[str]:
    """Names loaded or attributes read in `tree`, outside the lines in `skip`."""
    out = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _callers() -> dict[str, set[str]]:
    """For each exported name, the files that use it."""
    found = {name: set() for name in expocert.__all__}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined = {
            node.name: range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for name in found:
            if name in _uses(tree, defined.get(name, range(0))):
                found[name].add(path.name)
    acceptance = _uses(ast.parse(ACCEPTANCE.read_text()))
    for name in found:
        if name in acceptance:
            found[name].add(ACCEPTANCE.name)
    return found


def test_every_exported_name_imports():
    missing = [name for name in expocert.__all__ if not hasattr(expocert, name)]
    assert missing == []


def test_every_exported_name_has_a_caller():
    unused = sorted(name for name, files in _callers().items() if not files)
    assert unused == []
