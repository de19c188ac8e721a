"""The names the benchmark's traced run wraps must exist in pevplan.

``perfbench/tracing.py`` lists in ``WRAPPED`` the ``(owner, attribute)``
pairs under ``pevplan`` that a traced run replaces with recording wrappers.
A name that no longer resolves does not fail that run: it exits 0 and
prints the metrics that depend on the name as null, with a ``missing``
reason.  This test fails instead, so a rename or deletion is caught here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pevplan

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_names() -> tuple[tuple[str, str, str], ...]:
    """``WRAPPED`` read from the tracer's file, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_name_resolves_to_a_callable():
    names = wrapped_names()
    assert names
    unresolved = []
    for owner_path, attr, span in names:
        owner = pevplan
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"pevplan.{owner_path}.{attr} ({span})")
    assert not unresolved, f"the traced run cannot wrap: {unresolved}"
