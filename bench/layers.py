"""Layer benchmark: one power-flow solve, one day evaluation, one population
ranking and a batch of placement searches, timed and counted.

    python bench/layers.py --out BENCH.json [--baseline-src OTHER/src]

Measures the pevplan source in ``src/`` beside this directory and, with
``--baseline-src``, another checkout's source the same way, each in its own
process with BLAS pinned to one thread.  The trees are measured ``ROUNDS``
times, alternating which goes first, so that a drift of the host's speed
shows as spread rather than as a difference between trees: a figure that
differs between rounds is reported as ``{"median", "min", "max"}`` over
them, and one that every round repeats (a work counter) as its value.  The
inputs are fixed: the bundled bus33 case with the ``load-weekday`` profile,
fixed load scales, fixed two-lot placements, and seeded random populations.
The JSON gives, per source tree:

- ``solve_us``: µs per cold (flat-start) Newton and sweep solve on bus33 at
  ``SOLVE_SCALES`` of its normal load, the median of ``SOLVE_REPEATS``
  passes over the scales, with each solver's iterations per scale;
- ``day_ms``: wall ms per day evaluation in modes ``none`` and ``dgq+v2gq``
  (median of repeats, each on a fresh evaluator, so nothing is cached);
- ``rank_ms``: wall ms to rank a 40- and an 80-member population for
  tournament selection (front ranks and crowding distances), from the
  breakdowns, so a tree that ranks arrays pays for building them here;
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
  size (counted by wrapping ``DayEvaluator._days``; a tree without it
  computes each day alone, a batch of one);
- ``work``: per day, the base block's calls, columns and iterations, the
  dispatch's kernel columns, their iterations and the kernel steps that
  solved them (``mean_width`` is columns per step), Newton solves, and
  Brent searches and their function calls (``nfev``), so a faster figure
  can be told apart from less work.  A tree whose ``DayStats`` counts the
  lockstep's work is read from it, with the width of every block counted
  by wrapping ``dispatch._fixed_point_block`` while
  ``objective._dispatch_day`` runs, so the day's base block is no step
  (``width_histogram``: blocks per width over all the mode's placements).
  An older tree is counted by wrapping its kernels, Newton and
  ``dispatch.minimize_scalar``; it solves each dispatch column alone, one
  step of width 1;
- ``import_s``: seconds to ``import pevplan``, the median of
  ``IMPORT_REPEATS`` fresh processes;
- ``stats``: the evaluator's own work counters, where the tree has them.

A figure the measured tree cannot produce is null.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LOAD_PROFILE = "load-weekday"
PLACEMENTS = {
    "none": [(2, 19), (7, 29), (3, 17), (12, 25), (5, 33), (10, 30), (4, 8), (15, 22)],
    "dgq+v2gq": [(7, 29), (3, 17), (12, 25)],
}
REPEATS = {"none": 15, "dgq+v2gq": 3}
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
SOLVE_REPEATS = 300
ROUNDS = 5


def _populations(pevplan, size: int, count: int = 20):
    """Seeded populations of breakdowns, about 30% feasible, with ties."""
    import numpy as np

    rng = np.random.default_rng(size)
    pops = []
    for _ in range(count):
        pop = []
        for _ in range(size):
            v_dev, loss = rng.uniform(1.0, 20.0), rng.uniform(0.05, 0.2)
            ok = bool(rng.random() < FEASIBLE_SHARE)
            penalty = 0.0 if ok else float(rng.integers(1, 200)) / 100.0
            pop.append(pevplan.ObjectiveBreakdown(
                v_dev, loss, 6.0, 0.6 * v_dev + 0.1 * loss + 1.8,
                feasible=ok, violation_penalty=penalty))
        pops.append(pop)
    return pops


def _columns(pop):
    """The objective, feasibility and penalty arrays of a population of
    breakdowns, as a tree that ranks arrays reads them."""
    import numpy as np

    return (np.array([b.vector for b in pop], dtype=float).reshape(-1, 3),
            np.array([b.feasible for b in pop], dtype=bool),
            np.array([b.violation_penalty for b in pop], dtype=float))


def _ranker(nsga):
    """Selection ranking in the tree's own API: front ranks and crowding."""
    import numpy as np

    if hasattr(nsga, "constrained_fronts"):  # ranks a list of breakdowns
        return nsga._rank
    if hasattr(nsga, "_rank"):  # ranks the objective, feasibility and penalty arrays
        return lambda pop: nsga._rank(*_columns(pop))

    def rank(pop):  # before the feasible-first sort
        ranks = nsga.front_ranks(pop, nsga.constrained_dominates)
        crowd = np.zeros(len(pop))
        for front in nsga.nondominated_sort(pop, nsga.constrained_dominates):
            crowd[front] = nsga.crowding_distance([pop[i].vector for i in front])
        return ranks, crowd
    return rank


def _count_work(pevplan, bundle, mode, placements):
    """The work of a day (see ``work`` above), averaged over ``placements``."""
    from pevplan import dispatch, objective, powerflow

    ev = _evaluator(pevplan, bundle, mode)
    if hasattr(ev.stats, "dispatch_steps"):
        return _lockstep_work(dispatch, objective, ev, placements)
    counts = {"block_calls": 0, "block_columns": 0, "block_iterations": 0,
              "dispatch_columns": 0, "dispatch_iterations": 0,
              "newton_solves": 0, "brent_searches": 0, "brent_nfev": 0}
    undo = []

    def patch(owner, name, fn):
        undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, fn)

    kernel = powerflow._fixed_point

    def counted_kernel(*args, **kwargs):
        v, it, mis = kernel(*args, **kwargs)
        counts["dispatch_columns"] += 1
        counts["dispatch_iterations"] += it
        return v, it, mis

    newton = dispatch.solve

    def counted_newton(*args, **kwargs):
        counts["newton_solves"] += 1
        return newton(*args, **kwargs)

    brent = dispatch.minimize_scalar

    def counted_brent(*args, **kwargs):
        res = brent(*args, **kwargs)
        counts["brent_searches"] += 1
        counts["brent_nfev"] += int(res.nfev)
        return res

    patch(powerflow, "_fixed_point", counted_kernel)
    patch(dispatch, "minimize_scalar", counted_brent)
    patch(dispatch, "_fixed_point", counted_kernel)
    patch(dispatch, "solve", counted_newton)
    if hasattr(objective, "_fixed_point_block"):
        block = objective._fixed_point_block

        def counted_block(*args, **kwargs):
            out = block(*args, **kwargs)
            counts["block_calls"] += 1
            counts["block_columns"] += len(out[1])
            counts["block_iterations"] += int(out[1].sum())
            return out

        patch(objective, "_fixed_point_block", counted_block)
    try:
        for pair in placements:
            ev.evaluate(pair)
    finally:
        for owner, name, fn in reversed(undo):
            setattr(owner, name, fn)
    work = {k: v / len(placements) for k, v in counts.items()}
    calls = counts["dispatch_columns"]
    work.update(dispatch_steps=work["dispatch_columns"], mean_width=1.0 if calls else None,
                width_histogram={"1": calls} if calls else {})
    return work


def _lockstep_work(dispatch, objective, ev, placements):
    """The work of a tree that runs a day's dispatch in lockstep.

    A block counts only while the lockstep (``objective._dispatch_day``)
    runs: a tree may solve the day's base block through the same kernel.
    """
    widths: dict[int, int] = {}
    iterations = [0]
    dispatching = [False]
    block, day = dispatch._fixed_point_block, objective._dispatch_day

    def counted_block(factor, s_pq, v, tol):
        out = block(factor, s_pq, v, tol)
        if dispatching[0]:
            widths[s_pq.shape[1]] = widths.get(s_pq.shape[1], 0) + 1
            iterations[0] += int(out[0].sum())
        return out

    def counted_day(*args):
        dispatching[0] = True
        try:
            return day(*args)
        finally:
            dispatching[0] = False

    dispatch._fixed_point_block, objective._dispatch_day = counted_block, counted_day
    try:
        for pair in placements:
            ev.evaluate(pair)
    finally:
        dispatch._fixed_point_block, objective._dispatch_day = block, day
    st, days = ev.stats, len(placements)
    return {
        "block_calls": getattr(st, "batches", st.days) / days,
        "block_columns": st.block_columns / days,
        "block_iterations": st.block_iterations / days,
        "dispatch_columns": st.dispatch_columns / days,
        "dispatch_iterations": iterations[0] / days,
        "newton_solves": (st.newton_columns + st.newton_fallbacks) / days,
        "brent_searches": st.searches / days,
        "brent_nfev": st.trials / days,
        "dispatch_steps": st.dispatch_steps / days,
        "mean_width": st.dispatch_columns / st.dispatch_steps if st.dispatch_steps else None,
        "width_histogram": {str(w): widths[w] for w in sorted(widths)},
    }


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
            # a tree without the counter computes each day alone
            "batches": getattr(ev.stats, "batches", ev.stats.days),
            "distinct_evals": distinct}


def _count_calls(owner, name: str, run):
    """Calls of ``owner.name`` while ``run()`` runs, or None if the tree
    has no such name."""
    fn = getattr(owner, name, None)
    if fn is None:
        run()
        return None
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        run()
    finally:
        setattr(owner, name, fn)
    return calls[0]


def _v2g_searches(pevplan, bundle) -> dict:
    """The fixed-seed ``dgq+v2gq`` searches on one fresh evaluator."""
    net, devices, profiles = bundle
    ev = _evaluator(pevplan, bundle, "dgq+v2gq")
    cls = type(ev)
    days = getattr(cls, "_days", None)
    sizes: dict[int, int] = {}

    def counted(self, placements, trail=False):
        sizes[len(placements)] = sizes.get(len(placements), 0) + 1
        return days(self, placements, trail)

    if days is not None:
        cls._days = counted
    distinct = 0
    t0 = perf_counter()
    try:
        for seed in V2G_SEARCH_SEEDS:
            params = pevplan.GaParams(seed=seed, **V2G_SEARCH_PARAMS)
            distinct += pevplan.optimize_placement(
                net, devices, profiles, ev.scenario, params, evaluator=ev).evaluations
    finally:
        if days is not None:
            cls._days = days
    wall_s = perf_counter() - t0
    if days is None:
        sizes = {1: ev.stats.days}
    return {"wall_ms": wall_s * 1e3, "day_ms": ev.stats.day_s * 1e3,
            "days": ev.stats.days, "distinct_evals": distinct,
            "batch_sizes": {str(k): sizes[k] for k in sorted(sizes)}}


def _solve_us(pevplan, net) -> dict:
    """Cold Newton and sweep solves at ``SOLVE_SCALES`` (see ``solve_us``)."""
    p, q = net.load_vectors()
    injections = [pevplan.InjectionSet.from_loads(p * s, q * s) for s in SOLVE_SCALES]
    out = {}
    for name, solver in (("newton", pevplan.solve), ("sweep", pevplan.solve_sweep)):
        # the first pass also builds the network's solver arrays
        out[f"{name}_iterations"] = [solver(net, inj).iterations for inj in injections]
        samples = []
        for _ in range(SOLVE_REPEATS):
            t0 = perf_counter()
            for inj in injections:
                solver(net, inj)
            samples.append((perf_counter() - t0) / len(injections) * 1e6)
        out[f"{name}_us"] = statistics.median(samples)
    return out


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
    out: dict = {"import_s": _import_s(src), "solve_us": _solve_us(pevplan, case.network),
                 "day_ms": {}, "work": {}, "stats": {}, "rank_ms": {}}
    for mode, placements in PLACEMENTS.items():
        ev = _evaluator(pevplan, bundle, mode)
        ev.evaluate(placements[0])  # warm-up: lazy arrays, imports
        samples = []
        for _ in range(REPEATS[mode]):
            ev = _evaluator(pevplan, bundle, mode)
            t0 = perf_counter()
            for pair in placements:
                ev.evaluate(pair)
            samples.append((perf_counter() - t0) / len(placements) * 1e3)
        out["day_ms"][mode] = statistics.median(samples)
        stats = getattr(ev, "stats", None)
        if stats is None:
            out["stats"][mode] = None
        else:
            days = stats.days
            out["stats"][mode] = {
                "days": days,
                "block_iterations_per_column": stats.block_iterations
                / max(stats.block_columns, 1),
                "newton_columns": stats.newton_columns,
                "divergent_hours": stats.divergent_hours,
                "hours_dispatched_per_day": stats.hours_dispatched / days,
                # a tree whose DayStats predates reverted_hours counts cold_retries
                "reverted_hours": getattr(stats, "reverted_hours", None),
            }
        out["work"][mode] = _count_work(pevplan, bundle, mode, placements)
    rank = _ranker(nsga)
    for size in POPULATIONS:
        pops = _populations(pevplan, size)
        for pop in pops:
            rank(pop)
        t0 = perf_counter()
        for k in range(RANK_REPEATS):
            rank(pops[k % len(pops)])
        out["rank_ms"][str(size)] = (perf_counter() - t0) / RANK_REPEATS * 1e3
    # the warm-up batch also counts the rankings
    rank_calls = _count_calls(nsga, "_rank", lambda: _search_batch(pevplan, bundle))
    batches = sorted((_search_batch(pevplan, bundle) for _ in range(SEARCH_REPEATS)),
                     key=lambda b: b["wall_ms"])
    out["search"] = batches[len(batches) // 2]
    out["search"]["rank_calls"] = (None if rank_calls is None
                                   else rank_calls / len(SEARCH_SEEDS))
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
                   "import_repeats": IMPORT_REPEATS,
                   "solve": {"scales": list(SOLVE_SCALES), "repeats": SOLVE_REPEATS},
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
