"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

import polyres

SRC = Path(polyres.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unused_imports(text: str) -> list[str]:
    """The names that module-level imports of ``text`` bind and nothing in
    it reads, ``from __future__`` and the names ``__all__`` exports aside."""
    tree = ast.parse(text)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_unused_test_imports(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


def test_unused_import_caught():
    # the guard itself: a leftover import is named, a used one and the
    # exports of __all__ are not
    text = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from operator import sub, add\n"
        "from .plan import SolverPlan\n"
        "__all__ = ['SolverPlan']\n"
        "x = np.zeros(add(1, 2))\n"
    )
    assert unused_imports(text) == ["sub (line 3)"]
