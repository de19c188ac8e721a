"""The three benchmark workloads and their oracles.

Each workload makes its inputs from the seed alone, runs one operation at a
time through pevplan's public API, and checks every output:

- ``day-v2g``: distinct two-lot placements, each evaluated once on one
  ``DayEvaluator`` in ``dgq+v2gq`` mode, so the placement cache never hits.
  Checked against the golden table to 1e-6 absolute, ``feasible`` exactly.
- ``search-none``: ``optimize_placement`` runs in mode ``none`` (population
  40, 60 generations, 2 lots, all 32 candidates) in batches of 8 sharing
  one fresh evaluator.  The returned best and every archive entry are
  checked against the golden table; reaching the enumerated optimum is
  counted, not required.
- ``snapshot``: cold checked solves at uniformly scaled normal load, as
  ``pevplan solve --check-sweep`` does: Newton, then the sweep, then the
  criterion-1 gates (voltage gap <= 1e-6 pu, Newton mismatch <= 1e-8).

``setup`` receives ``call(span_name, fn)``; the traced run passes a wrapper
that records the benchmark's own calls into pevplan as spans.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from common import LOAD_PROFILE, load_bundle, optimum, pair_key

GOLDEN_ATOL = 1e-6
C1_GAP_PU = 1e-6
C1_MISMATCH = 1e-8
BREAKDOWN_FIELDS = ("v_dev", "loss", "cost", "scalar")


def compare_breakdown(key: str, bd, row: dict) -> str | None:
    """Mismatch message of one breakdown against its golden row, or None."""
    if row is None:
        return f"{key}: no golden entry"
    for field in BREAKDOWN_FIELDS:
        got = getattr(bd, field)
        if not abs(got - row[field]) <= GOLDEN_ATOL:
            return f"{key}: {field} {got!r} != golden {row[field]!r}"
    if bd.feasible != row["feasible"]:
        return f"{key}: feasible {bd.feasible} != golden {row['feasible']}"
    return None


def _load(pevplan, call):
    return call("caseio.load", load_bundle)(pevplan)


class DayV2g:
    name = "day-v2g"
    mode = "dgq+v2gq"
    trace_ops = 4

    def __init__(self, golden: dict) -> None:
        self.table = golden["modes"][self.mode]
        self.buses = sorted({int(b) for key in self.table for b in key.split(",")})
        self.batch = len(self.buses) // 2

    def setup(self, pevplan, call):
        net, devices, profiles = _load(pevplan, call)
        scenario = pevplan.Scenario(mode=self.mode, load_profile_id=LOAD_PROFILE)
        return pevplan.DayEvaluator(net, devices, profiles, scenario)

    def inputs(self, seed: int):
        """Every placement once, in batches that each place a lot on every bus.

        The batches are the rounds of a round-robin schedule over the
        seeded-shuffled buses (a perfect matching per round), visited in a
        seeded order.  Day cost depends strongly on the lot buses, so whole
        batches keep the cost mix of a run the same from seed to seed.
        """
        rng = np.random.default_rng(seed)
        buses = [int(b) for b in rng.permutation(self.buses)]
        n = len(buses)
        rest = buses[1:]
        for r in rng.permutation(n - 1):
            ring = [buses[0]] + rest[r:] + rest[:r]
            batch = [tuple(sorted((ring[i], ring[n - 1 - i]))) for i in range(n // 2)]
            for k in rng.permutation(n // 2):
                yield batch[k]

    def run(self, evaluator, pair):
        return evaluator.evaluate(pair).breakdown

    def check(self, pair, bd) -> str | None:
        key = pair_key(pair)
        return compare_breakdown(key, bd, self.table.get(key))


class SearchNone:
    name = "search-none"
    mode = "none"
    batch = 8  # searches sharing one fresh evaluator
    trace_ops = 8

    def __init__(self, golden: dict) -> None:
        self.table = golden["modes"][self.mode]
        _, self.best = optimum(self.table)
        self.optimal = 0

    def setup(self, pevplan, call):
        net, devices, profiles = _load(pevplan, call)
        scenario = pevplan.Scenario(mode=self.mode, load_profile_id=LOAD_PROFILE)
        st = SimpleNamespace(pevplan=pevplan, net=net, devices=devices,
                             profiles=profiles, scenario=scenario,
                             search=call("nsga.search", pevplan.optimize_placement))
        st.evaluator = self._evaluator(st)
        return st

    @staticmethod
    def _evaluator(st):
        return st.pevplan.DayEvaluator(st.net, st.devices, st.profiles, st.scenario)

    def inputs(self, seed: int):
        """``(GA seed, starts a batch)``; GA seeds distinct within a run.

        Each batch of searches starts from an empty placement cache, so
        every batch does the same kind of work however long the run is.
        """
        rng = np.random.default_rng(seed)
        seen: set[int] = set()
        while True:
            ga_seed = int(rng.integers(2**31))
            if ga_seed not in seen:
                yield ga_seed, len(seen) % self.batch == 0
                seen.add(ga_seed)

    def run(self, st, op):
        ga_seed, new_batch = op
        if new_batch and st.evaluator.cache_size:
            st.evaluator = self._evaluator(st)
        params = st.pevplan.GaParams(population=40, generations=60, seed=ga_seed,
                                     n_lots=2)
        return st.search(st.net, st.devices, st.profiles, st.scenario, params,
                         evaluator=st.evaluator)

    def check(self, op, res) -> str | None:
        key = pair_key(res.best_genome.lot_buses)
        bad = compare_breakdown(key, res.best_breakdown, self.table.get(key))
        for entry in res.archive.entries:
            if bad:
                break
            k = pair_key(entry.genome.lot_buses)
            bad = compare_breakdown(k, entry, self.table.get(k))
        if bad:
            return f"GA seed {op[0]}: {bad}"
        bd = res.best_breakdown
        self.optimal += (bd.feasible == self.best["feasible"]
                         and abs(bd.scalar - self.best["scalar"]) <= GOLDEN_ATOL)
        return None


class Snapshot:
    name = "snapshot"
    batch = 1
    trace_ops = 2500

    def __init__(self, golden: dict) -> None:
        self.max_gap_pu = 0.0

    def setup(self, pevplan, call):
        net, _, _ = _load(pevplan, call)
        p_load, q_load = net.load_vectors()
        return SimpleNamespace(
            pevplan=pevplan, net=net, p_load=p_load, q_load=q_load,
            solve=call("powerflow.solve", pevplan.solve),
            sweep=call("sweep.solve", pevplan.solve_sweep),
        )

    def inputs(self, seed: int):
        """Load scales drawn uniformly from [0.3, 1.0]."""
        rng = np.random.default_rng(seed)
        while True:
            yield float(rng.uniform(0.3, 1.0))

    def run(self, st, scale: float):
        inj = st.pevplan.InjectionSet.from_loads(st.p_load * scale, st.q_load * scale)
        sol = st.solve(st.net, inj)
        ref = st.sweep(st.net, inj)
        return sol, ref

    def check(self, scale, out) -> str | None:
        sol, ref = out
        gap = float(np.max(np.abs(sol.v_complex - ref.v_complex)))
        self.max_gap_pu = max(self.max_gap_pu, gap)
        if not sol.converged or not ref.converged:
            return f"scale {scale}: solver reported no convergence"
        if not gap <= C1_GAP_PU:
            return f"scale {scale}: Newton-sweep gap {gap:.3e} pu > {C1_GAP_PU}"
        if not sol.max_mismatch <= C1_MISMATCH:
            return f"scale {scale}: mismatch {sol.max_mismatch:.3e} > {C1_MISMATCH}"
        return None


WORKLOADS = {w.name: w for w in (DayV2g, SearchNone, Snapshot)}
