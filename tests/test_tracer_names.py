"""The names the benchmark's traced run wraps must exist in pevplan.

``perfbench/tracing.py`` lists in ``WRAPPED`` the ``(owner, attribute)``
pairs under ``pevplan`` that a traced run replaces with recording wrappers.
A name that no longer resolves does not fail that run: it exits 0 and
prints the metrics that depend on the name as null, with a ``missing``
reason.  This test fails instead, so a rename or deletion is caught here.
A name can also resolve and no longer be called, which leaves its spans and
counters at zero; a traced dispatch hour catches that.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pevplan
from pevplan import objective
from pevplan.dispatch import Scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_module():
    """The tracer's file, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    names = tracing_module().WRAPPED
    assert names
    unresolved = []
    for owner_path, attr, span in names:
        owner = pevplan
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"pevplan.{owner_path}.{attr} ({span})")
    assert not unresolved, f"the traced run cannot wrap: {unresolved}"


def test_a_traced_hour_records_its_brent_searches(bus33, devices33):
    tracer = tracing_module().Tracer(pevplan)
    tracer.install()
    try:
        res = objective.dispatch_q(bus33.network, devices33, 19, Scenario(mode="dgq+v2gq"))
    finally:
        tracer.restore()
    assert not tracer.missing
    work = tracer.work()
    assert work["dispatch.hours"] == 1 and res.score < res.base_score
    assert work["dispatch.brent_searches"] > 0
    assert work["dispatch.brent_nfev"] > 0
