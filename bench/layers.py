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
seeded random populations.

Each timed layer but the searches and the import is timed one way
(:func:`_passes`): ``PASSES`` passes over the layer's kinds, alternating
between them, each pass in CPU time (``time.process_time``, so that time a
shared host gives other processes does not count) and followed by a fixed
reference kernel (``REFERENCE_RUNS`` runs of :func:`_reference_kernel`,
which mixes a day's kinds of work as ``perfbench/run.py``'s ``Yardstick``
does).  The layer reports per kind the median over the passes of the CPU
time per operation, and in its ``_rel`` block the median of each pass's
time per operation over the reference's CPU ms right after it: the time
relative to the host's speed at that moment, so that two trees measured on
a drifting shared host can be compared by it.  The JSON gives, per source
tree:

- ``solve_us`` and ``solve_rel``: µs per cold Newton solve (one given no
  start ``v0``), sweep solve and checked solve on bus33, a pass being
  ``SOLVE_REPEATS`` runs over ``SOLVE_SCALES`` of its normal load, with
  each solver's iterations per scale.  A checked solve (``checked_us``) is
  perfbench's ``snapshot`` operation, as ``pevplan solve --check-sweep``
  does it: Newton, then the sweep, then the largest phasor gap between them;
- ``size`` and ``size_rel``: the same per feeder size in ``SIZE_BUSES``, a
  pass being ``SIZE_REPEATS`` solves of a seeded chain-like radial feeder
  of that many buses (:func:`_sized_feeder`) at the load that puts the
  sweep's lowest voltage at ``SIZE_V_MIN`` (``v_min``);
- ``day_ms`` and ``day_rel``: ms per day evaluation in modes ``none`` and
  ``dgq+v2gq``, a pass evaluating the mode's placements on a fresh
  evaluator, so nothing is cached; and ``step_us``, the day's CPU µs per
  lockstep step (``day_ms`` over the ``work`` block's ``dispatch_steps``;
  None in a mode that dispatches nothing), which shows a step getting
  cheaper while the steps stay as many;
- ``rank_ms`` and ``rank_rel``: ms to rank a 40- and an 80-member
  population for tournament selection (``nsga._rank``: front ranks and
  crowding distances) from its objective, feasibility and penalty arrays,
  a pass being ``RANK_REPEATS`` rankings;
- ``search`` and ``search_v2g``: fixed-seed searches (population 40, 2
  lots) sharing one fresh evaluator (:func:`_search_batch`), in wall time:
  8 in mode ``none`` over 60 generations, the batch of median wall time of
  ``SEARCH_REPEATS`` after one untimed warm-up batch, and 2 in mode
  ``dgq+v2gq`` over 3 generations, run once.  Each reports ``wall_ms``,
  the evaluator's ``day_ms`` (``DayStats.day_s``), the GA's own ``ga_ms``
  (wall minus days), the days computed, the batches they were computed in
  and ``batch_sizes``, the batches per size (counted by wrapping
  ``DayEvaluator._days``), the searches' summed distinct evaluations, and
  ``rank_calls``, the population rankings per search (counted by wrapping
  ``nsga._rank``);
- ``work``: per day, read from the evaluator's ``DayStats``: the base
  block's calls (batches), columns and iterations, the dispatch's kernel
  columns, their iterations and the lockstep steps that solved them
  (``mean_width`` is columns per step), Newton solves (base and dispatch
  columns sent to Newton), Brent searches and their function calls
  (``nfev``), the trials Newton failed too (``penalty_trials``, None for a
  tree without that counter), and the divergent, dispatched and reverted
  hours, so a faster
  figure can be told apart from less work; and ``width_histogram``, blocks
  per width over all the mode's placements, counted by wrapping
  ``dispatch._fixed_point_block`` while ``objective._dispatch_day`` runs,
  so the day's base block is no step;
- ``import_s``: seconds to ``import pevplan``, the median of
  ``IMPORT_REPEATS`` fresh processes.

With ``--baseline-src``, ``change`` holds each ``RELATIVE`` figure of this
tree over the baseline's from the same round, leaf by leaf, summarised over
the rounds like every other figure: the raw CPU times of one process can
land in either of two speeds on a shared host, and a ratio taken within a
round divides that out twice over.
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
POPULATIONS = (40, 80)
FEASIBLE_SHARE = 0.3
SEARCH_SEEDS = tuple(range(8))
SEARCH_PARAMS = {"population": 40, "generations": 60, "n_lots": 2}
SEARCH_REPEATS = 5
V2G_SEARCH_SEEDS = (0, 1)
V2G_SEARCH_PARAMS = {"population": 40, "generations": 3, "n_lots": 2}
IMPORT_REPEATS = 5
SOLVE_SCALES = (0.3, 0.55, 0.8, 1.0)
SIZE_BUSES = (100, 300)
SIZE_V_MIN = 0.92
# the timed passes (see above)
PASSES = 10
SOLVE_REPEATS = 30
SIZE_REPEATS = 3
RANK_REPEATS = 20
REFERENCE_RUNS = 40
ROUNDS = 5
# the figures the change block compares between trees
RELATIVE = ("solve_rel", "size_rel", "day_rel", "rank_rel")


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
        "divergent_hours": st.divergent_hours / days,
        "hours_dispatched": st.hours_dispatched / days,
        "reverted_hours": st.reverted_hours / days,
        # trees before the counter have none to read
        "penalty_trials": (st.penalty_trials / days if hasattr(st, "penalty_trials")
                           else None),
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


def _passes(reference, runs: dict, scale: float) -> tuple[dict, dict]:
    """``PASSES`` passes of each of ``runs`` (name: ``(run, ops)``, where
    ``run()`` does ``ops`` operations), the names alternating, each timed in
    CPU time and followed by ``reference``: per name, the median time per
    operation in seconds times ``scale``, and the median of each pass's
    time per operation over the reference's CPU ms."""
    times = {name: [] for name in runs}
    relative = {name: [] for name in runs}
    for _ in range(PASSES):
        for name, (run, ops) in runs.items():
            t0 = process_time()
            run()
            times[name].append((process_time() - t0) / ops * scale)
            relative[name].append(times[name][-1] / reference())
    return ({name: statistics.median(t) for name, t in times.items()},
            {name: statistics.median(r) for name, r in relative.items()})


def _search_batch(pevplan, bundle, mode: str, seeds, params: dict) -> dict:
    """One batch of fixed-seed searches in ``mode`` on a fresh evaluator,
    with its days counted by batch size and its rankings (see above)."""
    from pevplan import nsga

    net, devices, profiles = bundle
    ev = _evaluator(pevplan, bundle, mode)
    cls = pevplan.DayEvaluator
    days, rank = cls._days, nsga._rank
    sizes, ranks = [], [0]

    def counted_days(self, placements):
        sizes.append(len(placements))
        return days(self, placements)

    def counted_rank(*args):
        ranks[0] += 1
        return rank(*args)

    distinct = 0
    with _patched(cls, "_days", counted_days), _patched(nsga, "_rank", counted_rank):
        t0 = perf_counter()
        for seed in seeds:
            distinct += pevplan.optimize_placement(
                net, devices, profiles, ev.scenario, pevplan.GaParams(seed=seed, **params),
                evaluator=ev).evaluations
        wall_s = perf_counter() - t0
    st = ev.stats
    return {"wall_ms": wall_s * 1e3, "day_ms": st.day_s * 1e3,
            "ga_ms": (wall_s - st.day_s) * 1e3, "days": st.days, "batches": st.batches,
            "batch_sizes": {str(k): sizes.count(k) for k in sorted(set(sizes))},
            "distinct_evals": distinct, "rank_calls": ranks[0] / len(seeds)}


def _solver_layer(pevplan, reference, net, injections: list, repeats: int) -> tuple[dict, dict]:
    """Cold Newton, sweep and checked solves of ``net`` at each of
    ``injections``, a pass being ``repeats`` runs over them: their
    iterations and µs per solve, and their ``_rel`` (see above)."""
    import numpy as np

    def checked(net, inj):
        sol, ref = pevplan.solve(net, inj), pevplan.solve_sweep(net, inj)
        return float(np.max(np.abs(sol.v_complex - ref.v_complex)))

    solvers = {"newton": pevplan.solve, "sweep": pevplan.solve_sweep, "checked": checked}
    # the first solves also build the network's solver arrays
    out = {f"{name}_iterations": [solvers[name](net, inj).iterations for inj in injections]
           for name in ("newton", "sweep")}

    def run(solver):
        def one_pass():
            for _ in range(repeats):
                for inj in injections:
                    solver(net, inj)
        return one_pass, repeats * len(injections)

    times, relative = _passes(reference, {name: run(s) for name, s in solvers.items()}, 1e6)
    out.update((f"{name}_us", t) for name, t in times.items())
    return out, relative


def _sized_feeder(pevplan, n: int):
    """A feeder of ``n`` buses, seeded by ``n``, and its injections at
    ``SIZE_V_MIN``: ``(net, inj, v_min)``.

    Bus k hangs off one of the three buses before it, so the tree is a
    chain with short laterals; the branch and load values are drawn around
    1e-3 pu.  The load is scaled by bisection on the sweep's lowest
    voltage, not Newton's, so that a change to Newton leaves the inputs
    alone.
    """
    import random

    rng = random.Random(n)
    Bus, Branch = pevplan.Bus, pevplan.Branch
    buses, branches = [Bus(1, kind="slack")], []
    for k in range(2, n + 1):
        p = rng.uniform(0.5e-3, 1.5e-3)
        buses.append(Bus(k, normal_load_p=p, normal_load_q=p * rng.uniform(0.3, 0.8)))
        r = rng.uniform(0.5e-3, 1.5e-3)
        branches.append(Branch(rng.randint(max(1, k - 3), k - 1), k, r,
                               r * rng.uniform(0.6, 1.2)))
    net = pevplan.Network(tuple(buses), tuple(branches))
    p, q = net.load_vectors()

    def v_min(scale: float) -> float:
        inj = pevplan.InjectionSet.from_loads(p * scale, q * scale)
        try:
            return pevplan.solve_sweep(net, inj).v_min
        except pevplan.PowerFlowError:
            return 0.0

    lo, hi = 0.0, 1.0
    while v_min(hi) > SIZE_V_MIN:
        lo, hi = hi, 2 * hi
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if v_min(mid) > SIZE_V_MIN else (lo, mid)
    return net, pevplan.InjectionSet.from_loads(p * lo, q * lo), v_min(lo)


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
    net = case.network
    bundle = (net, pevplan.bind_devices(case, profiles), profiles)
    reference = _reference_kernel()
    reference()  # warm-up
    p, q = net.load_vectors()
    injections = [pevplan.InjectionSet.from_loads(p * s, q * s) for s in SOLVE_SCALES]
    out: dict = {"import_s": _import_s(src)}
    out["solve_us"], out["solve_rel"] = _solver_layer(
        pevplan, reference, net, injections, SOLVE_REPEATS)
    out["size"], out["size_rel"] = {}, {}
    for n in SIZE_BUSES:
        feeder, inj, v_min = _sized_feeder(pevplan, n)
        fig, out["size_rel"][str(n)] = _solver_layer(
            pevplan, reference, feeder, [inj], SIZE_REPEATS)
        out["size"][str(n)] = {"v_min": v_min, **fig}
    # the work's days also warm the day layer up: lazy arrays, imports
    out["work"] = {mode: _count_work(pevplan, bundle, mode, placements)
                   for mode, placements in PLACEMENTS.items()}

    def days(mode, placements):
        def one_pass():
            ev = _evaluator(pevplan, bundle, mode)
            for pair in placements:
                ev.evaluate(pair)
        return one_pass, len(placements)

    out["day_ms"], out["day_rel"] = _passes(
        reference, {mode: days(mode, pl) for mode, pl in PLACEMENTS.items()}, 1e3)
    out["step_us"] = {mode: ms * 1e3 / steps if (steps := out["work"][mode]["dispatch_steps"])
                      else None for mode, ms in out["day_ms"].items()}

    def rankings(pops):
        for pop in pops:  # warm-up
            nsga._rank(*pop)

        def one_pass():
            for k in range(RANK_REPEATS):
                nsga._rank(*pops[k % len(pops)])
        return one_pass, RANK_REPEATS

    out["rank_ms"], out["rank_rel"] = _passes(
        reference, {str(size): rankings(_populations(size)) for size in POPULATIONS}, 1e3)
    search = (pevplan, bundle, "none", SEARCH_SEEDS, SEARCH_PARAMS)
    _search_batch(*search)  # warm-up
    batches = sorted((_search_batch(*search) for _ in range(SEARCH_REPEATS)),
                     key=lambda b: b["wall_ms"])
    out["search"] = batches[len(batches) // 2]
    out["search_v2g"] = _search_batch(pevplan, bundle, "dgq+v2gq",
                                      V2G_SEARCH_SEEDS, V2G_SEARCH_PARAMS)
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


def _ratio(current, baseline):
    """``current`` over ``baseline``, leaf by leaf through nested dicts."""
    if isinstance(current, dict):
        return {k: _ratio(current[k], baseline[k]) for k in current}
    return current / baseline


def _change(current: list[dict], baseline: list[dict]) -> dict:
    """The ``change`` block: each ``RELATIVE`` figure of ``current`` over
    the ``baseline``'s from the same round, summarised over the rounds."""
    return _over_rounds([_ratio({block: cur[block] for block in RELATIVE}, base)
                         for cur, base in zip(current, baseline)])


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
                   "populations": list(POPULATIONS), "feasible_share": FEASIBLE_SHARE,
                   "search": {"mode": "none", "seeds": list(SEARCH_SEEDS),
                              **SEARCH_PARAMS, "repeats": SEARCH_REPEATS},
                   "search_v2g": {"mode": "dgq+v2gq", "seeds": list(V2G_SEARCH_SEEDS),
                                  **V2G_SEARCH_PARAMS, "repeats": 1},
                   "import_repeats": IMPORT_REPEATS,
                   "solve": {"scales": list(SOLVE_SCALES), "repeats": SOLVE_REPEATS},
                   "size": {"buses": list(SIZE_BUSES), "v_min": SIZE_V_MIN,
                            "repeats": SIZE_REPEATS},
                   "passes": PASSES, "rank_repeats": RANK_REPEATS,
                   "reference_runs": REFERENCE_RUNS,
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
    if args.baseline_src:
        result["change"] = _change(runs["current"], runs["baseline"])
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
