"""Enumerate the golden oracle table for the benchmark.

Evaluates the day breakdown (v_dev, loss, cost, scalar, feasible) of every
two-lot placement on the bundled bus33 feeder with the ``load-weekday``
profile, in each mode of ``GOLDEN_MODES``, and writes ``golden.json`` beside
this file.  Floats are stored with all their digits.

    python3 perfbench/golden.py

Placements are evaluated in a pool of one process per CPU this process may
run on.  The ``dgq+v2gq`` mode takes about ten minutes on two cores; rerun
it only when the package's numbers are meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import time
from multiprocessing import get_context

from common import (
    CASE,
    GOLDEN_MODES,
    GOLDEN_PATH,
    LOAD_PROFILE,
    all_pairs,
    import_pevplan,
    load_bundle,
    optimum,
    pair_key,
)

_evaluators: dict = {}


def _evaluate(job):
    mode, pair = job
    pevplan = import_pevplan()
    if mode not in _evaluators:
        net, devices, profiles = load_bundle(pevplan)
        scenario = pevplan.Scenario(mode=mode, load_profile_id=LOAD_PROFILE)
        _evaluators[mode] = pevplan.DayEvaluator(net, devices, profiles, scenario)
    t0 = time.perf_counter()
    bd = _evaluators[mode].evaluate(pair).breakdown
    elapsed = time.perf_counter() - t0
    row = {"v_dev": bd.v_dev, "loss": bd.loss, "cost": bd.cost,
           "scalar": bd.scalar, "feasible": bd.feasible}
    return mode, pair_key(pair), row, elapsed


def main() -> int:
    pevplan = import_pevplan()
    net, _, _ = load_bundle(pevplan)
    pairs = all_pairs(net)
    jobs = [(mode, pair) for mode in GOLDEN_MODES for pair in pairs]
    tables: dict[str, dict] = {mode: {} for mode in GOLDEN_MODES}
    seconds = {mode: 0.0 for mode in GOLDEN_MODES}
    with get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        for done, (mode, key, row, elapsed) in enumerate(
            pool.imap_unordered(_evaluate, jobs, chunksize=4), 1
        ):
            tables[mode][key] = row
            seconds[mode] += elapsed
            if done % 50 == 0:
                print(f"{done}/{len(jobs)} placements", file=sys.stderr, flush=True)

    out = {
        "case": CASE,
        "load_profile": LOAD_PROFILE,
        "pevplan_version": pevplan.__version__,
        "placements": len(pairs),
        "optima": {},
        "modes": {},
    }
    for mode in GOLDEN_MODES:
        table = dict(sorted(tables[mode].items(),
                            key=lambda kv: tuple(int(b) for b in kv[0].split(","))))
        best, row = optimum(table)
        out["optima"][mode] = {"lot_buses": list(best), **row}
        out["modes"][mode] = table
        print(f"{mode}: optimum {best} scalar {row['scalar']:.6f}, "
              f"{seconds[mode]:.1f} s of day evaluations", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
