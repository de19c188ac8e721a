"""Layer benchmark: one power-flow solve, one day evaluation, one population
ranking and a batch of placement searches, timed and counted.

    python bench/layers.py --out BENCH.json [--baseline-src OTHER/src]

Measures the pevplan source in ``src/`` beside this directory and, with
``--baseline-src``, the parent commit's source the same way, each in its own
process with BLAS pinned to one thread.  It measures trees from commit
8ef1e9b on, whose ``DayStats`` count their own work.  The trees are measured
``ROUNDS`` times, alternating which goes first, so that a drift of the
host's speed shows as spread rather than as a difference between trees: a
figure that differs between rounds is reported as ``{"median", "min",
"max"}`` over them, and one that every round repeats (a work counter) as its
value.  The inputs are fixed: the bundled bus33 case with the
``load-weekday`` profile, fixed load scales, fixed two-lot placements, and
seeded random populations.  The JSON gives, per source tree:

- ``solve_us``: CPU µs per cold (flat-start) Newton solve, sweep solve and
  checked solve on bus33 at ``SOLVE_SCALES`` of its normal load, the median
  of ``SOLVE_PASSES`` passes of ``SOLVE_REPEATS`` runs over the scales, with
  each solver's iterations per scale.  A checked solve (``checked_us``) is
  perfbench's ``snapshot`` operation, as ``pevplan solve --check-sweep``
  does it: Newton, then the sweep, then the largest phasor gap between them;
- ``solve_rel``: each such pass's µs per solve over the CPU ms of the
  reference kernel timed right after it, the median over the passes, as
  ``day_rel`` below;
- ``day_ms``: CPU ms (``time.process_time``, so that time a shared host
  gives other processes does not count) per day evaluation in modes ``none`` and
  ``dgq+v2gq``, the median of ``REPEATS`` passes over the mode's
  placements, each on a fresh evaluator, so nothing is cached;
- ``day_rel``: each such pass's ms per day over the CPU ms of a fixed
  reference kernel timed right after it (``REFERENCE_RUNS`` runs of
  :func:`_reference_kernel`, which mixes a day's kinds of work as
  ``perfbench/run.py``'s ``Yardstick`` does), the median over the passes:
  the day's time relative to the host's speed at that moment, so that two
  trees measured on a drifting shared host can be compared by it;
- ``rank_ms``: wall ms to rank a 40- and an 80-member population for
  tournament selection (``nsga._rank``: front ranks and crowding
  distances) from its objective, feasibility and penalty arrays;
- ``search``: 8 fixed-seed mode-``none`` searches (population 40, 60
  generations, 2 lots) sharing one fresh evaluator, the repeat of median
  wall time: ``wall_ms``, the evaluator's ``day_ms`` (``DayStats.day_s``),
  the GA's own ``ga_ms`` (wall minus days), the days computed, the
  batches they were computed in, the searches' summed distinct
  evaluations, and ``rank_calls``, the population rankings per search
  (``nsga._rank`` calls, counted by wrapping it during a warm-up batch);
- ``search_v2g``: fixed-seed ``dgq+v2gq`` searches (population 40, a few
  generations, 2 lots) sharing one fresh evaluator, run once: ``wall_ms``,
  ``day_ms``, the days computed, the distinct evaluations, and
  ``batch_sizes``, the batches of days the evaluator computed per batch
  size (counted by wrapping ``DayEvaluator._days``);
- ``work``: per day, read from the evaluator's ``DayStats``: the base
  block's calls (batches), columns and iterations, the dispatch's kernel
  columns, their iterations and the lockstep steps that solved them
  (``mean_width`` is columns per step), Newton solves (base and dispatch
  columns sent to Newton), and Brent searches and their function calls
  (``nfev``), so a faster figure can be told apart from less work; and
  ``width_histogram``, blocks per width over all the mode's placements,
  counted by wrapping ``dispatch._fixed_point_block`` while
  ``objective._dispatch_day`` runs, so the day's base block is no step;
- ``import_s``: seconds to ``import pevplan``, the median of
  ``IMPORT_REPEATS`` fresh processes;
- ``stats``: the evaluator's own work counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
LOAD_PROFILE = "load-weekday"
PLACEMENTS = {
    "none": [(2, 19), (7, 29), (3, 17), (12, 25), (5, 33), (10, 30), (4, 8), (15, 22)],
    "dgq+v2gq": [(7, 29), (3, 17), (12, 25)],
}
REPEATS = {"none": 15, "dgq+v2gq": 8}
POPULATIONS = (40, 80)
RANK_REPEATS = 200
FEASIBLE_SHARE = 0.3
SEARCH_SEEDS = tuple(range(8))
SEARCH_PARAMS = {"population": 40, "generations": 60, "n_lots": 2}
SEARCH_REPEATS = 5
V2G_SEARCH_SEEDS = (0, 1)
V2G_SEARCH_PARAMS = {"population": 40, "generations": 3, "n_lots": 2}
IMPORT_REPEATS = 5
SOLVE_SCALES = (0.3, 0.55, 0.8, 1.0)
SOLVE_PASSES = 10
SOLVE_REPEATS = 30
REFERENCE_RUNS = 40
ROUNDS = 5


def _populations(size: int, count: int = 20):
    """Seeded populations as ranking reads them, the objective rows,
    feasibility and violation penalties: about 30% feasible, with ties."""
    import numpy as np

    rng = np.random.default_rng(size)
    pops = []
    for _ in range(count):
        obj, feasible, penalty = np.full((size, 3), 6.0), np.empty(size, bool), np.zeros(size)
        for i in range(size):
            obj[i, :2] = rng.uniform(1.0, 20.0), rng.uniform(0.05, 0.2)
            feasible[i] = rng.random() < FEASIBLE_SHARE
            if not feasible[i]:
                penalty[i] = float(rng.integers(1, 200)) / 100.0
        pops.append((obj, feasible, penalty))
    return pops


@contextmanager
def _patched(owner, name: str, fn):
    """``owner.name`` replaced by ``fn`` while the block runs."""
    original = vars(owner)[name]
    setattr(owner, name, fn)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _count_work(pevplan, bundle, mode, placements):
    """The work of a day (see ``work`` above), averaged over ``placements``.

    A block counts only while the lockstep (``objective._dispatch_day``)
    runs: the day's base block passes through the same kernel.
    """
    from pevplan import dispatch, objective

    ev = _evaluator(pevplan, bundle, mode)
    widths: dict[int, int] = {}
    block, day = dispatch._fixed_point_block, objective._dispatch_day

    def counted_block(factor, s_pq, v, tol):
        widths[s_pq.shape[1]] = widths.get(s_pq.shape[1], 0) + 1
        return block(factor, s_pq, v, tol)

    def counted_day(*args):
        with _patched(dispatch, "_fixed_point_block", counted_block):
            return day(*args)

    with _patched(objective, "_dispatch_day", counted_day):
        for pair in placements:
            ev.evaluate(pair)
    st, days = ev.stats, len(placements)
    return {
        "block_calls": st.batches / days,
        "block_columns": st.block_columns / days,
        "block_iterations": st.block_iterations / days,
        "dispatch_columns": st.dispatch_columns / days,
        "dispatch_iterations": st.dispatch_iterations / days,
        "newton_solves": (st.newton_columns + st.newton_fallbacks) / days,
        "brent_searches": st.searches / days,
        "brent_nfev": st.trials / days,
        "dispatch_steps": st.dispatch_steps / days,
        "mean_width": st.dispatch_columns / st.dispatch_steps if st.dispatch_steps else None,
        "width_histogram": {str(w): widths[w] for w in sorted(widths)},
    }


def _reference_kernel():
    """A function that runs a fixed reference kernel ``REFERENCE_RUNS``
    times and returns the CPU ms it took.

    The kernel does a day's kinds of work on fixed inputs: small dense
    complex products on a bus vector, a 64 x 64 linear solve and a Python
    loop over the buses, then tuple-keyed dict updates and a sort.  Its
    work never changes, so its time tracks only the host's speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    n = 33
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 8 * np.eye(n)
    jac = rng.standard_normal((2 * n, 2 * n)) + 8 * np.eye(2 * n)
    rhs = rng.standard_normal(2 * n)

    def kernel() -> float:
        v = np.ones(n, dtype=complex)
        acc = 0.0
        for _ in range(4):
            s = v * np.conj(y @ v)
            dx = np.linalg.solve(jac, rhs + s.real.repeat(2))
            v = v + 1e-3 * (dx[:n] + 1j * dx[n:])
            for k in range(n):
                acc += abs(v[k])
        table: dict[tuple[int, int], float] = {}
        for k in range(600):
            key = (k % 31, k * 7 % 29)
            table[key] = table.get(key, 0.0) + k * 0.5
        return acc + sorted(table.items(), key=lambda kv: (kv[1], kv[0]))[0][1]

    def timed() -> float:
        t0 = process_time()
        for _ in range(REFERENCE_RUNS):
            kernel()
        return (process_time() - t0) * 1e3

    return timed


def _evaluator(pevplan, bundle, mode):
    net, devices, profiles = bundle
    scenario = pevplan.Scenario(mode=mode, load_profile_id=LOAD_PROFILE)
    return pevplan.DayEvaluator(net, devices, profiles, scenario)


def _search_batch(pevplan, bundle) -> dict:
    """One batch of the fixed-seed searches on a fresh evaluator."""
    net, devices, profiles = bundle
    ev = _evaluator(pevplan, bundle, "none")
    distinct = 0
    t0 = perf_counter()
    for seed in SEARCH_SEEDS:
        params = pevplan.GaParams(seed=seed, **SEARCH_PARAMS)
        distinct += pevplan.optimize_placement(
            net, devices, profiles, ev.scenario, params, evaluator=ev).evaluations
    wall_s = perf_counter() - t0
    return {"wall_ms": wall_s * 1e3, "day_ms": ev.stats.day_s * 1e3,
            "ga_ms": (wall_s - ev.stats.day_s) * 1e3, "days": ev.stats.days,
            "batches": ev.stats.batches, "distinct_evals": distinct}


def _v2g_searches(pevplan, bundle) -> dict:
    """The fixed-seed ``dgq+v2gq`` searches on one fresh evaluator."""
    net, devices, profiles = bundle
    ev = _evaluator(pevplan, bundle, "dgq+v2gq")
    cls = type(ev)
    days = cls._days
    sizes: dict[int, int] = {}

    def counted(self, placements):
        sizes[len(placements)] = sizes.get(len(placements), 0) + 1
        return days(self, placements)

    distinct = 0
    t0 = perf_counter()
    with _patched(cls, "_days", counted):
        for seed in V2G_SEARCH_SEEDS:
            params = pevplan.GaParams(seed=seed, **V2G_SEARCH_PARAMS)
            distinct += pevplan.optimize_placement(
                net, devices, profiles, ev.scenario, params, evaluator=ev).evaluations
    wall_s = perf_counter() - t0
    return {"wall_ms": wall_s * 1e3, "day_ms": ev.stats.day_s * 1e3,
            "days": ev.stats.days, "distinct_evals": distinct,
            "batch_sizes": {str(k): sizes[k] for k in sorted(sizes)}}


def _solve_us(pevplan, net, reference) -> tuple[dict, dict]:
    """Cold solves at ``SOLVE_SCALES``: ``solve_us`` and ``solve_rel``
    (see above), the passes of the three kinds alternating."""
    import numpy as np

    p, q = net.load_vectors()
    injections = [pevplan.InjectionSet.from_loads(p * s, q * s) for s in SOLVE_SCALES]

    def checked(net, inj):
        sol, ref = pevplan.solve(net, inj), pevplan.solve_sweep(net, inj)
        return float(np.max(np.abs(sol.v_complex - ref.v_complex)))

    solvers = {"newton": pevplan.solve, "sweep": pevplan.solve_sweep, "checked": checked}
    out = {}
    for name in ("newton", "sweep"):
        # the first pass also builds the network's solver arrays
        out[f"{name}_iterations"] = [solvers[name](net, inj).iterations
                                     for inj in injections]
    samples = {name: [] for name in solvers}
    relative = {name: [] for name in solvers}
    for _ in range(SOLVE_PASSES):
        for name, solver in solvers.items():
            t0 = process_time()
            for _ in range(SOLVE_REPEATS):
                for inj in injections:
                    solver(net, inj)
            samples[name].append(
                (process_time() - t0) / (SOLVE_REPEATS * len(injections)) * 1e6)
            relative[name].append(samples[name][-1] / reference())
    for name in solvers:
        out[f"{name}_us"] = statistics.median(samples[name])
    return out, {name: statistics.median(relative[name]) for name in solvers}


def _import_s(src: Path) -> float:
    """Median seconds to ``import pevplan`` from ``src`` in a fresh process."""
    code = ("import time; t0 = time.perf_counter(); import pevplan; "
            "print(time.perf_counter() - t0)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    samples = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                    capture_output=True, text=True, env=env).stdout)
               for _ in range(IMPORT_REPEATS)]
    return statistics.median(samples)


def measure(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import pevplan
    from pevplan import nsga

    case, profiles = pevplan.load_builtin("bus33.grid", "profiles33.csv")
    bundle = (case.network, pevplan.bind_devices(case, profiles), profiles)
    reference = _reference_kernel()
    reference()  # warm-up
    solve_us, solve_rel = _solve_us(pevplan, case.network, reference)
    out: dict = {"import_s": _import_s(src), "solve_us": solve_us, "solve_rel": solve_rel,
                 "day_ms": {}, "day_rel": {}, "work": {}, "stats": {}, "rank_ms": {}}
    for mode, placements in PLACEMENTS.items():
        ev = _evaluator(pevplan, bundle, mode)
        ev.evaluate(placements[0])  # warm-up: lazy arrays, imports
        samples, relative = [], []
        for _ in range(REPEATS[mode]):
            ev = _evaluator(pevplan, bundle, mode)
            t0 = process_time()
            for pair in placements:
                ev.evaluate(pair)
            samples.append((process_time() - t0) / len(placements) * 1e3)
            relative.append(samples[-1] / reference())
        out["day_ms"][mode] = statistics.median(samples)
        out["day_rel"][mode] = statistics.median(relative)
        stats = ev.stats
        out["stats"][mode] = {
            "days": stats.days,
            "block_iterations_per_column": stats.block_iterations
            / max(stats.block_columns, 1),
            "newton_columns": stats.newton_columns,
            "divergent_hours": stats.divergent_hours,
            "hours_dispatched_per_day": stats.hours_dispatched / stats.days,
            "reverted_hours": stats.reverted_hours,
        }
        out["work"][mode] = _count_work(pevplan, bundle, mode, placements)
    for size in POPULATIONS:
        pops = _populations(size)
        for pop in pops:
            nsga._rank(*pop)
        t0 = perf_counter()
        for k in range(RANK_REPEATS):
            nsga._rank(*pops[k % len(pops)])
        out["rank_ms"][str(size)] = (perf_counter() - t0) / RANK_REPEATS * 1e3
    # the warm-up batch also counts the rankings
    rank, rank_calls = nsga._rank, [0]

    def counted_rank(*args):
        rank_calls[0] += 1
        return rank(*args)

    with _patched(nsga, "_rank", counted_rank):
        _search_batch(pevplan, bundle)
    batches = sorted((_search_batch(pevplan, bundle) for _ in range(SEARCH_REPEATS)),
                     key=lambda b: b["wall_ms"])
    out["search"] = batches[len(batches) // 2]
    out["search"]["rank_calls"] = rank_calls[0] / len(SEARCH_SEEDS)
    out["search_v2g"] = _v2g_searches(pevplan, bundle)
    return out


def _measure_in_child(src: Path) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--measure", str(src)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def _over_rounds(values: list):
    """One figure's values over the rounds as one: the value if every round
    repeats it, else its median and range; dicts are summarised key by key."""
    first = values[0]
    if isinstance(first, dict):
        return {k: _over_rounds([v[k] for v in values]) for k in first}
    if all(v == first for v in values):
        return first
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return {"median": statistics.median(values), "min": min(values), "max": max(values)}
    return {"rounds": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--baseline-src", type=Path,
                        help="another checkout's src/ to measure the same way")
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    # one BLAS thread, here and in every process started from here
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.measure:
        json.dump(measure(args.measure), sys.stdout)
        return 0
    if args.out is None:
        parser.error("--out is required")
    result = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "inputs": {"case": "bus33.grid", "load_profile": LOAD_PROFILE,
                   "placements": {m: [",".join(map(str, p)) for p in ps]
                                  for m, ps in PLACEMENTS.items()},
                   "day_repeats": REPEATS, "populations": list(POPULATIONS),
                   "feasible_share": FEASIBLE_SHARE, "rank_repeats": RANK_REPEATS,
                   "search": {"mode": "none", "seeds": list(SEARCH_SEEDS),
                              **SEARCH_PARAMS, "repeats": SEARCH_REPEATS},
                   "search_v2g": {"mode": "dgq+v2gq", "seeds": list(V2G_SEARCH_SEEDS),
                                  **V2G_SEARCH_PARAMS, "repeats": 1},
                   "import_repeats": IMPORT_REPEATS, "reference_runs": REFERENCE_RUNS,
                   "solve": {"scales": list(SOLVE_SCALES), "passes": SOLVE_PASSES,
                             "repeats": SOLVE_REPEATS},
                   "rounds": ROUNDS},
    }
    trees = {"current": ROOT / "src"}
    if args.baseline_src:
        trees["baseline"] = args.baseline_src.resolve()
    runs: dict[str, list] = {name: [] for name in trees}
    for r in range(ROUNDS):
        for name in list(trees)[:: 1 if r % 2 == 0 else -1]:
            runs[name].append(_measure_in_child(trees[name]))
    result.update((name, _over_rounds(rounds)) for name, rounds in runs.items())
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
