"""Leftovers a linter would flag, found with the standard library's `ast`:
an import that its module never reads, a private module-level function
or class that nothing in the package calls, and a function in the tests'
`helpers.py` that no test and no other helper calls. `__init__.py` only
re-exports, so its imports are not checked for use. The package imports
nothing outside the standard library (`sys.stdlib_module_names`, 3.10+).
A public function, class or method is used somewhere in the package, the
tests, the demos or the benchmark, not only re-exported."""

import ast
import re
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "gproj"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _names_imported(tree):
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    read = _names_read(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read:
                    unused.append(bound)
    assert not unused, f"{path.name} imports but never reads {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tops = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    outside = sorted(tops - sys.stdlib_module_names)
    assert not outside, f"{path.name} imports outside the standard library: {outside}"


def test_no_unreferenced_private_function_or_class():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    for tree in trees.values():  # a name imported from a sibling module counts
        read |= _names_imported(tree)
    orphans = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and node.name not in read]
    assert not orphans, f"private definitions nothing references: {orphans}"


def test_no_unreferenced_test_helper():
    read = set()
    for path in TESTS.glob("*.py"):
        if path.name != "helpers.py":
            tree = _tree(path)
            read |= _names_read(tree) | _names_imported(tree)
    body = _tree(TESTS / "helpers.py").body
    # a call from another helper counts, a recursive one does not
    orphans = [node.name for node in body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name not in read
               and not any(node.name in _names_read(other) for other in body if other is not node)]
    assert not orphans, f"helpers.py functions nothing references: {orphans}"


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _references(tree):
    """Names the code reads or imports, and the words of its strings other
    than docstrings (a tracer names its targets as "Class.method" text)."""
    words = _names_read(tree) | _names_imported(tree)
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            words.update(re.findall(r"\w+", node.value))
    return words


def test_no_unreferenced_public_name():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("tests", "demos", "perfbench"):
        users += (ROOT / folder).rglob("*.py")
    referenced = set().union(*(_references(_tree(p)) for p in users))
    public = []
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                public.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                public += [(path.name, f"{node.name}.{item.name}") for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    orphans = [f"{module}:{name}" for module, name in public
               if not name.split(".")[-1].startswith("_")
               and name.split(".")[-1] not in referenced]
    assert not orphans, f"public definitions nothing uses: {orphans}"
