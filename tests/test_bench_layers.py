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
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

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
    "divergent_hours": "divergent_hours",
    "hours_dispatched": "hours_dispatched",
    "reverted_hours": "reverted_hours",
    "penalty_trials": "penalty_trials",
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


def test_v2g_search_batch_sizes_add_up_to_its_days(bus33, devices33, profiles33):
    # the search runner's histogram of batch sizes comes from wrapping
    # DayEvaluator._days; its batches must hold the evaluator's own days
    layers = layers_module()
    out = layers._search_batch(pevplan, (bus33.network, devices33, profiles33), "dgq+v2gq",
                               (0,), {"population": 4, "generations": 1, "n_lots": 2})
    sizes = {int(size): n for size, n in out["batch_sizes"].items()}
    assert max(sizes) > 1  # the wrapper counted the batches
    assert sum(size * n for size, n in sizes.items()) == out["days"] > 0
    assert sum(sizes.values()) == out["batches"]
    assert out["rank_calls"] > 0  # the wrapper counted the rankings


def test_passes_alternate_and_divide_by_the_reference_after_each(monkeypatch):
    # the one timing rule: per name, the median CPU time per operation, and
    # the median of each pass's time per operation over the reference
    # kernel's ms timed right after it; the names' passes alternate
    layers = layers_module()
    monkeypatch.setattr(layers, "PASSES", 3)
    clock, order = [0.0], []
    monkeypatch.setattr(layers, "process_time", lambda: clock[0])

    def run(name, seconds):
        def one_pass():
            order.append(name)
            clock[0] += seconds.pop(0)
        return one_pass

    reference_ms = iter([1.0, 2.0, 1.0, 4.0, 2.0, 2.0])

    def reference():
        order.append("reference")
        return next(reference_ms)

    times, relative = layers._passes(
        reference, {"a": (run("a", [0.004, 0.002, 0.008]), 2), "b": (run("b", [0.001] * 3), 1)},
        1e3)
    assert order == ["a", "reference", "b", "reference"] * 3
    # a: 2, 1 and 4 ms per operation over 1, 1 and 2 ms; b: 1 ms over 2, 4 and 2
    assert times == pytest.approx({"a": 2.0, "b": 1.0})
    assert relative == pytest.approx({"a": 2.0, "b": 0.5})


@pytest.mark.parametrize("buses", [None, 40], ids=["bus33", "sized40"])
def test_solver_layer_reports_each_kind_with_its_iterations(buses, bus33, monkeypatch):
    # the solver layer times the same three kinds of solve, in CPU time,
    # with their times over the reference kernel's, on bus33 at the bench's
    # scales or on a sized feeder loaded to its lowest voltage; the
    # iteration lists are the solvers' own
    layers = layers_module()
    monkeypatch.setattr(layers, "PASSES", 2)
    monkeypatch.setattr(layers, "REFERENCE_RUNS", 1)
    if buses is None:
        net = bus33.network
        p, q = net.load_vectors()
        injections = [pevplan.InjectionSet.from_loads(p * s, q * s)
                      for s in layers.SOLVE_SCALES]
    else:
        net, inj, v_min = layers._sized_feeder(pevplan, buses)
        assert net.n_bus == buses
        assert abs(v_min - layers.SIZE_V_MIN) < 1e-9
        injections = [inj]
    times, relative = layers._solver_layer(pevplan, layers._reference_kernel(), net,
                                           injections, 1)
    kinds = ("newton", "sweep", "checked")
    assert set(times) == {f"{k}_us" for k in kinds} | {"newton_iterations",
                                                       "sweep_iterations"}
    assert set(relative) == set(kinds)
    assert all(times[f"{k}_us"] > 0 and relative[k] > 0 for k in kinds)
    assert times["newton_iterations"] == [pevplan.solve(net, i).iterations for i in injections]
    assert times["sweep_iterations"] == [
        pevplan.solve_sweep(net, i).iterations for i in injections]


def test_measure_reports_every_layer_with_its_relative_figures(monkeypatch):
    # the whole measurement at its smallest counts: every layer is there,
    # each _rel block holds the kinds of its raw block, and the change block
    # can divide every RELATIVE figure, leaf by leaf
    layers = layers_module()
    search = {"population": 4, "generations": 2, "n_lots": 2}
    for name, value in {"PASSES": 1, "SOLVE_REPEATS": 1, "SIZE_REPEATS": 1,
                        "RANK_REPEATS": 1, "REFERENCE_RUNS": 1, "IMPORT_REPEATS": 1,
                        "SEARCH_REPEATS": 1, "SEARCH_SEEDS": (0,), "V2G_SEARCH_SEEDS": (0,),
                        "SEARCH_PARAMS": search, "V2G_SEARCH_PARAMS": search,
                        "SIZE_BUSES": (12,),
                        "PLACEMENTS": {m: ps[:1] for m, ps in layers.PLACEMENTS.items()},
                        }.items():
        monkeypatch.setattr(layers, name, value)
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = json.loads(json.dumps(layers.measure(layers.ROOT / "src")))
    assert set(out) == {"import_s", "solve_us", "solve_rel", "size", "size_rel", "day_ms",
                        "day_rel", "step_us", "work", "rank_ms", "rank_rel", "search",
                        "search_v2g"}
    assert set(layers.RELATIVE) <= set(out)

    def kinds(raw):
        return {key.removesuffix("_us") for key in raw if key.endswith("_us")}

    assert set(out["solve_rel"]) == kinds(out["solve_us"]) == {"newton", "sweep", "checked"}
    assert set(out["size_rel"]) == set(out["size"]) == {"12"}
    assert set(out["size_rel"]["12"]) == kinds(out["size"]["12"]) == set(out["solve_rel"])
    assert out["size"]["12"]["v_min"] == layers._sized_feeder(pevplan, 12)[2]
    assert set(out["day_rel"]) == set(out["day_ms"]) == set(out["work"]) == set(
        out["step_us"]) == set(layers.PLACEMENTS)
    # a day's µs per lockstep step; mode none takes no step
    assert out["step_us"]["none"] is None
    v2g = out["work"]["dgq+v2gq"]
    assert out["step_us"]["dgq+v2gq"] == out["day_ms"]["dgq+v2gq"] * 1e3 / v2g["dispatch_steps"]
    assert set(out["rank_rel"]) == set(out["rank_ms"]) == {"40", "80"}
    assert set(out["search"]) == set(out["search_v2g"])

    def leaves(fig):
        return [x for v in fig.values() for x in leaves(v)] if isinstance(fig, dict) else [fig]

    change = layers._change([out], [out])
    assert set(change) == set(layers.RELATIVE)
    assert leaves(change) and all(x == 1.0 for x in leaves(change))


def test_change_block_divides_each_round_by_the_baselines(tmp_path, monkeypatch):
    # main() with --baseline-src writes each relative figure of the current
    # tree over the baseline's of the same round, leaf by leaf, summarised
    # over the rounds
    layers = layers_module()
    monkeypatch.setattr(layers, "ROUNDS", 3)
    rounds = {"current": iter([2.0, 3.0, 4.0]), "baseline": iter([1.0, 2.0, 2.0])}

    def measured(src):
        x = next(rounds["baseline" if src.name == "base" else "current"])
        return {"solve_rel": {"newton": x, "sweep": 1.0}, "day_rel": {"none": 3 * x},
                "size_rel": {"100": {"newton": 2 * x, "sweep": 1.0}}, "rank_rel": {"40": x}}

    monkeypatch.setattr(layers, "_measure_in_child", measured)
    out = tmp_path / "bench.json"
    monkeypatch.setattr("sys.argv", ["layers.py", "--out", str(out),
                                     "--baseline-src", str(tmp_path / "base")])
    with mock.patch.dict(os.environ):
        assert layers.main() == 0
    change = json.loads(out.read_text())["change"]
    ratios = {"median": 2.0, "min": 1.5, "max": 2.0}
    assert change == {"solve_rel": {"newton": ratios, "sweep": 1.0},
                      "size_rel": {"100": {"newton": ratios, "sweep": 1.0}},
                      "day_rel": {"none": ratios}, "rank_rel": {"40": ratios}}
