"""The benchmark scripts under perfbench/ import library names that tier-1 must keep.

A refactor that drops or renames one of them would break the benchmark while
every library test still passed, so each `from perioparse... import name` in
those scripts is resolved here.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_imports():
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("perioparse"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_bench_imports_are_found():
    assert len({(m, n) for _, m, n in _bench_imports()}) >= 25


@pytest.mark.parametrize("script, module, name", sorted(set(_bench_imports())))
def test_bench_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script}: {module}.{name}"
