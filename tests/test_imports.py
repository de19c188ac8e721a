"""Every name a pevplan module imports at module level is used there.

No linter is required to run the suite, so this test stands in for one
rule of it (pyflakes' F401): an imported name that its module never reads
fails, unless the module lists it in ``__all__`` or its import line
carries ``# noqa: F401`` (a name kept for a caller that reads it from the
module, such as the benchmark's tracer).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pevplan"


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The names the module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """The module-level imported names ``source`` never reads, each as
    ``"line: name"``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names_read(tree) | _exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


def test_the_check_finds_an_unused_import():
    source = ("from typing import Any, Callable\n"
              "import numpy as np  # noqa: F401\n"
              "from .devices import QCapability\n"
              "__all__ = ['QCapability']\n"
              "def f(x: 'Any') -> None:\n"
              "    pass\n")
    assert unused_imports(source) == ["1: Callable"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == [], path.name
