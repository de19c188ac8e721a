"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

Shows that the gates bite and that the traced counters are exact:

1. a perturbed golden entry makes ``day-v2g`` and ``search-none`` report
   failed operations, and an exception inside a ``snapshot`` operation is
   counted while the run goes on;
2. two traced passes of one seed give identical work counters;
3. a wrapped name that no longer exists is reported as missing, not as 0;
4. ``BENCHMARK.json`` names the metrics ``run.py`` prints, with their units.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

from common import ROOT, import_pevplan, load_golden, optimum, pair_key
from run import END_TO_END, measure, untraced
from tracing import LAYER_METRICS, WRAPPED, Tracer
from workloads import DayV2g, SearchNone, Snapshot

SEED = 7


def _fail_frac(workload, pevplan, max_ops: int, seed: int = SEED) -> float:
    state = workload.setup(pevplan, untraced)
    durations, failures = measure(workload, state, seed, max_ops=max_ops)
    return len(failures) / len(durations)


def check_failure_accounting(pevplan, golden) -> list[str]:
    problems = []
    first = next(iter(DayV2g(golden).inputs(SEED)))
    bad = copy.deepcopy(golden)
    bad["modes"]["dgq+v2gq"][pair_key(first)]["scalar"] += 1e-3
    frac = _fail_frac(DayV2g(bad), pevplan, max_ops=2)
    if frac != 0.5:
        problems.append(f"day-v2g: perturbed entry gave fail_frac {frac}, want 0.5")
    if _fail_frac(DayV2g(golden), pevplan, max_ops=1) != 0.0:
        problems.append("day-v2g: the true golden table fails")

    bad = copy.deepcopy(golden)
    best, _ = optimum(bad["modes"]["none"])
    bad["modes"]["none"][pair_key(best)]["loss"] += 1e-3
    frac = _fail_frac(SearchNone(bad), pevplan, max_ops=1)
    if not frac > 0:
        problems.append(f"search-none: perturbed optimum gave fail_frac {frac}")

    class Poisoned(Snapshot):
        def inputs(self, seed):
            yield from (0.5, float("nan"), 0.7)

    frac = _fail_frac(Poisoned(golden), pevplan, max_ops=3)
    if abs(frac - 1 / 3) > 1e-12:
        problems.append(f"snapshot: NaN load gave fail_frac {frac}, want 1/3")
    return problems


def _traced_work(pevplan, workload, ops: int, wrapped=WRAPPED):
    tracer = Tracer(pevplan)
    tracer.install(wrapped)
    try:
        state = workload.setup(pevplan, tracer.wrap)
        measure(workload, state, SEED, max_ops=ops)
    finally:
        tracer.restore()
    return tracer


def check_exact_repeat(pevplan, golden) -> list[str]:
    problems = []
    for cls, ops in ((Snapshot, 200), (DayV2g, 1), (SearchNone, 2)):
        first = _traced_work(pevplan, cls(golden), ops).work()
        second = _traced_work(pevplan, cls(golden), ops).work()
        if first != second:
            problems.append(f"{cls.name}: counters differ: {first} vs {second}")
        if not first["powerflow.solves"]:
            problems.append(f"{cls.name}: traced run counted no solves")
    return problems


def check_missing_name(pevplan, golden) -> list[str]:
    renamed = WRAPPED + (("nsga", "renamed_sort", "nsga.sort"),)
    tracer = _traced_work(pevplan, Snapshot(golden), 5, wrapped=renamed)
    value, _, _, reason = tracer.layer_metrics(0.0)["nsga.sort_calls"]
    if value is not None or not reason or "renamed_sort" not in reason:
        return [f"missing name reported as value={value!r}, reason={reason!r}"]
    if hasattr(pevplan.nsga, "renamed_sort"):
        return ["restore() left a wrapper behind"]
    return []


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != END_TO_END:
        problems.append(f"end_to_end {e2e} != run.py {END_TO_END}")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
    if layer != want:
        problems.append(f"per_layer differs from tracing.py: {set(layer) ^ set(want)}")
    return problems


def main() -> int:
    pevplan = import_pevplan()
    golden = load_golden()
    problems = []
    for check in (check_failure_accounting, check_exact_repeat, check_missing_name):
        found = check(pevplan, golden)
        print(f"{'FAIL' if found else 'ok  '} {check.__name__}")
        problems += found
    found = check_benchmark_json()
    print(f"{'FAIL' if found else 'ok  '} check_benchmark_json")
    problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
