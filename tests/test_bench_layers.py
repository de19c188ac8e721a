"""The layer benchmark must read a lockstep day's work as the day counts it.

``bench/layers.py`` reports, per day, the width of every block the lockstep
dispatch hands the kernel (``width_histogram``), counted by wrapping the
kernel from outside the package.  Its blocks and their columns must be the
day's own ``DayStats.dispatch_steps`` and ``dispatch_columns``: a block
solved outside the lockstep, such as the day's base block, is no step.
Every other work figure is the day's ``DayStats`` counter, per day.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pevplan
from pevplan.dispatch import Scenario
from pevplan.objective import DayEvaluator

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# each per-day work figure of the script and the DayStats counter it reads
WORK_COUNTERS = {
    "block_calls": "batches",
    "block_columns": "block_columns",
    "block_iterations": "block_iterations",
    "dispatch_columns": "dispatch_columns",
    "dispatch_iterations": "dispatch_iterations",
    "brent_searches": "searches",
    "brent_nfev": "trials",
    "dispatch_steps": "dispatch_steps",
}


def layers_module():
    """The bench script, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loading_the_script_leaves_the_environment_alone():
    # the script pins BLAS to one thread in main(), not on import, so a
    # process that loads it starts its own subprocesses with its own settings
    before = dict(os.environ)
    with mock.patch.dict(os.environ):
        layers_module()
        after = dict(os.environ)
    assert after == before


def test_width_histogram_counts_each_dispatch_step_once(bus33, devices33, profiles33):
    layers = layers_module()
    net, key, mode = bus33.network, (7, 29), "dgq+v2gq"
    work = layers._count_work(pevplan, (net, devices33, profiles33), mode, [key])
    ev = DayEvaluator(net, devices33, profiles33,
                      Scenario(mode=mode, load_profile_id=layers.LOAD_PROFILE))
    ev.evaluate(key)
    stats = ev.stats
    widths = {int(w): n for w, n in work["width_histogram"].items()}
    assert sum(widths.values()) == stats.dispatch_steps
    assert sum(w * n for w, n in widths.items()) == stats.dispatch_columns
    assert (work["dispatch_steps"], work["dispatch_columns"]) == (
        stats.dispatch_steps, stats.dispatch_columns)
    assert work["dispatch_iterations"] == stats.dispatch_iterations > 0
    # every other work figure is its DayStats counter per day
    days = stats.days
    for field, counter in WORK_COUNTERS.items():
        assert work[field] == getattr(stats, counter) / days, field
    assert work["newton_solves"] == (stats.newton_columns + stats.newton_fallbacks) / days
    assert work["mean_width"] == stats.dispatch_columns / stats.dispatch_steps
    assert set(work) == {*WORK_COUNTERS, "newton_solves", "mean_width", "width_histogram"}


def test_v2g_search_batch_sizes_add_up_to_its_days(bus33, devices33, profiles33,
                                                   monkeypatch):
    # the search layer's histogram of batch sizes comes from wrapping
    # DayEvaluator._days; its batches must hold the evaluator's own days
    layers = layers_module()
    monkeypatch.setattr(layers, "V2G_SEARCH_SEEDS", (0,))
    monkeypatch.setattr(layers, "V2G_SEARCH_PARAMS",
                        {"population": 4, "generations": 1, "n_lots": 2})
    out = layers._v2g_searches(pevplan, (bus33.network, devices33, profiles33))
    sizes = {int(size): n for size, n in out["batch_sizes"].items()}
    assert max(sizes) > 1  # the wrapper counted the batches
    assert sum(size * n for size, n in sizes.items()) == out["days"] > 0
