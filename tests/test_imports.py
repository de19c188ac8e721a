"""Every name a pevplan module imports at module level is used there, and
every private name the package defines is read somewhere in it.

No linter is required to run the suite, so these tests stand in for two
linter rules.  An imported name that its module never reads fails (pyflakes'
F401), unless the module lists it in ``__all__`` or its import line carries
``# noqa: F401``.  That mark keeps a name for the benchmark's tracer, which
wraps it on its module, so a marked name that the tracer's ``WRAPPED`` does
not list for that module fails too.  A private (single-underscore)
module-level function, class or constant, or private method, that no module
of the package reads fails as well (a dead helper, as vulture reports one).
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pevplan"
TRACING = ROOT / "perfbench" / "tracing.py"


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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


def unwrapped_noqa_imports(module: str, source: str, wrapped) -> list[str]:
    """The module-level imported names of ``source`` whose line carries
    ``# noqa: F401`` but that ``wrapped`` (the tracer's ``(owner,
    attribute, span)`` rows) does not list as ``(module, name)``, each as
    ``"line: name"``."""
    traced = {(owner, attr) for owner, attr, _ in wrapped}
    lines = source.splitlines()
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" in lines[alias.lineno - 1] and (module, name) not in traced:
                    found.append(f"{alias.lineno}: {name}")
    return found


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of each private module-level function, class and
    constant, and of each private method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            found += [(node.lineno, node.name) for node in cls.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted((line, name) for line, name in found if _is_private(name))


def _reads(tree: ast.Module) -> set[str]:
    """What a module reads: loaded names, attributes and imported names."""
    return (_names_read(tree)
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names defined in ``sources`` (module sources by file
    name) that none of them reads, each as ``"file:line: name"``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [f"{name}:{line}: {defined}" for name, tree in trees.items()
            for line, defined in _private_definitions(tree) if defined not in read]


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


def test_the_check_finds_a_noqa_import_the_tracer_does_not_wrap():
    source = ("from .dispatch import (\n"
              "    dispatch_q,  # noqa: F401\n"
              "    solve,  # noqa: F401\n"
              "    Scenario,\n"
              ")\n"
              "import numpy as np  # noqa: F401\n")
    wrapped = (("objective", "dispatch_q", "dispatch.hour"), ("dispatch", "solve", "x"))
    assert unwrapped_noqa_imports("objective", source, wrapped) == ["3: solve", "6: np"]


def test_every_noqa_import_is_one_the_tracer_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unwrapped = {path.name: found for path in sorted(SRC.glob("*.py"))
                 if (found := unwrapped_noqa_imports(path.stem, path.read_text(),
                                                     tracing.WRAPPED))}
    assert unwrapped == {}


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": ("from .b import _imported as imported\n"
                 "_LIMIT = 3\n"
                 "_SPARE: int = 4\n"
                 "def _helper():\n"
                 "    return _LIMIT\n"
                 "def _orphan():\n"
                 "    _orphan = 1\n"
                 "class _Box:\n"
                 "    def _read(self):\n"
                 "        return self._width\n"
                 "    def _never(self):\n"
                 "        pass\n"
                 "    def __len__(self):\n"
                 "        return 0\n"
                 "def run(box: '_Box'):\n"
                 "    return _helper(), box._read(), imported\n"),
        "b.py": ("def _imported():\n"
                 "    pass\n"
                 "class Kept:\n"
                 "    _width = 2\n"),
    }
    assert unread_private_names(sources) == [
        "a.py:3: _SPARE", "a.py:6: _orphan", "a.py:11: _never"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
