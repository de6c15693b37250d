"""No dead code in the package: each import is used, each private name is referenced.

Read with `ast` alone, so the check needs no linter and runs wherever the tests do.
A private name is one that starts with "_" and is not a dunder; it counts as
referenced when some module of the package reads it, its own module included.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "perioparse").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _read_names(tree):
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    """The names the module's imports bind, at any depth; `__future__` features excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_the_package_sources_are_found():
    assert len(TREES) >= 10 and "__init__.py" in TREES


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    assert sorted(set(_imported_names(tree)) - _read_names(tree)) == []


def test_every_top_level_private_name_is_referenced():
    referenced = set().union(*map(_read_names, TREES.values()))
    private = set()
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            private |= {
                (module, name) for name in names
                if name.startswith("_") and not name.startswith("__")
            }
    assert sorted((m, n) for m, n in private if n not in referenced) == []
