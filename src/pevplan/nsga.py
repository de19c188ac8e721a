"""Elitist multi-objective search over parking-lot placements.

Standard NSGA-II machinery — fast nondominated sorting, crowding distance,
binary tournaments, and mu+lambda truncation — specialized to genomes that
are fixed-size sets of lot buses.  Ranking uses constraint-domination: a
feasible solution beats any infeasible one, and infeasible solutions compare
by total violation.  That makes the infeasible members a total order, so the
sort peels Pareto fronts from the feasible members only and appends the
infeasible ones in groups of equal violation.  Alongside the Pareto archive
the search reports the single genome with the best weighted scalar, tracked
as a running minimum over every evaluation so it can never regress between
generations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .devices import Device, HourlyProfile, PevLot
from .dispatch import Scenario
from .network import Network
from .objective import DayEvaluator, DayResult, ObjectiveBreakdown


class InfeasibleConfigError(ValueError):
    """The search is unsatisfiable as configured (e.g. more lots than buses)."""


def dominates(u: Sequence[float], v: Sequence[float]) -> bool:
    """Pareto dominance for minimization: u no worse everywhere, better once."""
    at_least_one = False
    for a, b in zip(u, v):
        if a > b:
            return False
        if a < b:
            at_least_one = True
    return at_least_one


def constrained_dominates(a: ObjectiveBreakdown, b: ObjectiveBreakdown) -> bool:
    """Feasible beats infeasible; infeasible compare by violation magnitude."""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if not a.feasible and not b.feasible:
        return a.violation_penalty < b.violation_penalty
    return dominates(a.vector, b.vector)


def nondominated_sort(vectors: Sequence[Sequence[float]]) -> list[list[int]]:
    """Pareto fronts of objective vectors (minimization) as lists of indices.

    The dominance matrix is built in one array operation and the fronts are
    peeled from it, each in index order, as Deb's fast nondominated sort
    returns them.
    """
    arr = np.asarray(vectors, dtype=float)
    n = len(arr)
    if n == 0:
        return []
    pairs_le = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    pairs_lt = (arr[:, None, :] < arr[None, :, :]).any(axis=2)
    dominated = pairs_le & pairs_lt  # [i, j]: i dominates j
    count = dominated.sum(axis=0)
    left = np.ones(n, dtype=bool)
    fronts: list[list[int]] = []
    while left.any():
        front = np.flatnonzero(left & (count == 0))
        fronts.append(front.tolist())
        left[front] = False
        count -= dominated[front].sum(axis=0)
    return fronts


def constrained_fronts(breakdowns: Sequence[ObjectiveBreakdown]) -> list[list[int]]:
    """The fronts of Deb's sort under :func:`constrained_dominates`.

    Every feasible member dominates every infeasible one, so the Pareto
    fronts of the feasible members come first.  Infeasible members compare
    by penalty alone, a total order: they follow in groups of equal penalty,
    lowest first.  Each front lists its indices in ascending order.
    """
    feasible = [i for i, b in enumerate(breakdowns) if b.feasible]
    fronts = [
        [feasible[k] for k in front]
        for front in nondominated_sort([breakdowns[i].vector for i in feasible])
    ]
    infeasible = sorted(
        (b.violation_penalty, i) for i, b in enumerate(breakdowns) if not b.feasible
    )
    for _, group in groupby(infeasible, key=lambda pair: pair[0]):
        fronts.append([i for _, i in group])
    return fronts


def _rank(breakdowns: Sequence[ObjectiveBreakdown]) -> tuple[np.ndarray, np.ndarray]:
    """Front rank (0 = best) and crowding distance within its front, per member."""
    ranks = np.empty(len(breakdowns), dtype=int)
    crowd = np.full(len(breakdowns), math.inf)
    for rank, front in enumerate(constrained_fronts(breakdowns)):
        ranks[front] = rank
        if len(front) > 2:  # a smaller front has only boundary members
            crowd[front] = crowding_distance([breakdowns[i].vector for i in front])
    return ranks, crowd


def crowding_distance(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distances for one front; boundary members get infinity."""
    arr = np.asarray(vectors, dtype=float)
    m = len(arr)
    if m == 0:
        return np.empty(0)
    dist = np.zeros(m)
    if m <= 2:
        dist[:] = math.inf
        return dist
    for col in arr.T:
        order = np.argsort(col, kind="stable")
        dist[order[0]] = dist[order[-1]] = math.inf
        span = col[order[-1]] - col[order[0]]
        if span > 0:
            dist[order[1:-1]] += (col[order[2:]] - col[order[:-2]]) / span
    return dist


@dataclass(frozen=True)
class PlacementGenome:
    """A fixed-size set of distinct lot buses, stored sorted."""

    lot_buses: tuple[int, ...]

    def __post_init__(self) -> None:
        buses = tuple(sorted(int(b) for b in self.lot_buses))
        if len(set(buses)) != len(buses):
            raise ValueError(f"duplicate lot buses in genome: {buses}")
        object.__setattr__(self, "lot_buses", buses)

    def __len__(self) -> int:
        return len(self.lot_buses)


@dataclass(frozen=True)
class GaParams:
    """Search knobs; defaults sized for the bundled 33-bus problem."""

    population: int = 40
    generations: int = 60
    mutation_rate: float = 0.1
    seed: int = 0
    n_lots: int | None = None
    candidates: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.population < 4 or self.population % 2:
            raise ValueError("population must be even and at least 4")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.candidates is not None:
            object.__setattr__(self, "candidates", tuple(int(c) for c in self.candidates))


@dataclass(frozen=True)
class ArchiveEntry:
    genome: PlacementGenome
    v_dev: float
    loss: float
    cost: float
    scalar: float
    feasible: bool
    crowding: float


@dataclass(frozen=True)
class ParetoArchive:
    """All-time nondominated placements, sorted by scalar objective."""

    entries: tuple[ArchiveEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class OptimizeResult:
    archive: ParetoArchive
    best_genome: PlacementGenome
    best_breakdown: ObjectiveBreakdown
    history: tuple[float, ...]  # best scalar seen, per generation (index 0 = initial pop)
    evaluations: int  # distinct placements evaluated
    params: GaParams


def _resolve_candidates(net: Network, params: GaParams, n_lots: int) -> tuple[int, ...]:
    if params.candidates is None:
        candidates = tuple(b for b in net.bus_ids() if b != net.slack_id)
    else:
        candidates = tuple(sorted(set(params.candidates)))
        for c in candidates:
            if c not in net.bus_ids():
                raise ValueError(f"candidate bus {c} not in network")
            if c == net.slack_id:
                raise ValueError("slack bus cannot host a parking lot")
    if len(candidates) < n_lots:
        raise InfeasibleConfigError(
            f"{len(candidates)} candidate buses cannot host {n_lots} lots"
        )
    return candidates


def _fleet_with_n_lots(devices: Sequence[Device], n_lots: int) -> list[Device]:
    """Device list with exactly ``n_lots`` lots: surplus rows dropped from the
    end, missing ones cloned from the last lot template."""
    out: list[Device] = []
    kept = 0
    template = None
    for d in devices:
        if isinstance(d, PevLot):
            template = d
            if kept >= n_lots:
                continue
            kept += 1
        out.append(d)
    if kept < n_lots:
        if template is None:
            raise InfeasibleConfigError(
                "case defines no parking-lot template to replicate"
            )
        out.extend(template for _ in range(n_lots - kept))
    return out


def optimize_placement(
    net: Network,
    devices: Sequence[Device],
    profiles: dict[str, HourlyProfile] | None,
    scenario: Scenario,
    params: GaParams | None = None,
    evaluator: DayEvaluator | None = None,
) -> OptimizeResult:
    """Search lot placements; deterministic for a given seed and params.

    ``evaluator`` may be shared across calls to reuse its placement cache
    (the search itself never mutates it beyond adding evaluations).
    """
    params = params or GaParams()
    n_lots = params.n_lots
    if n_lots is None:
        n_lots = sum(isinstance(d, PevLot) for d in devices)
    if n_lots <= 0:
        raise InfeasibleConfigError("no lots to place")
    candidates = _resolve_candidates(net, params, n_lots)
    cand_arr = np.asarray(candidates, dtype=int)
    rng = np.random.default_rng(params.seed)
    if evaluator is None:
        evaluator = DayEvaluator(
            net, _fleet_with_n_lots(devices, n_lots), profiles, scenario
        )
    elif evaluator.lot_count != n_lots:
        raise ValueError(
            f"shared evaluator carries {evaluator.lot_count} lots "
            f"but the search places {n_lots}"
        )

    def sample() -> PlacementGenome:
        picked = rng.choice(cand_arr, size=n_lots, replace=False)
        return PlacementGenome(tuple(int(b) for b in picked))

    def crossover(a: PlacementGenome, b: PlacementGenome) -> PlacementGenome:
        union = np.asarray(sorted(set(a.lot_buses) | set(b.lot_buses)), dtype=int)
        picked = rng.choice(union, size=n_lots, replace=False)
        return PlacementGenome(tuple(int(x) for x in picked))

    def mutate(g: PlacementGenome) -> PlacementGenome:
        if rng.random() >= params.mutation_rate:
            return g
        pool = [c for c in candidates if c not in g.lot_buses]
        if not pool:
            return g
        slot = int(rng.integers(len(g.lot_buses)))
        replacement = pool[int(rng.integers(len(pool)))]
        buses = list(g.lot_buses)
        buses[slot] = replacement
        return PlacementGenome(tuple(buses))

    seen: dict[tuple[int, ...], ObjectiveBreakdown] = {}

    def evaluate(g: PlacementGenome) -> DayResult:
        day = evaluator.evaluate(g.lot_buses)
        seen[day.lot_buses] = day.breakdown
        return day

    population = [sample() for _ in range(params.population)]
    results = [evaluate(g) for g in population]

    best_scalar = math.inf
    best_key: tuple[bool, float] = (True, math.inf)  # (infeasible?, scalar)
    best_genome = population[0]
    best_breakdown = results[0].breakdown

    def update_best(genome: PlacementGenome, day: DayResult) -> None:
        nonlocal best_scalar, best_key, best_genome, best_breakdown
        bd = day.breakdown
        best_scalar = min(best_scalar, bd.scalar)
        key = (not bd.feasible, bd.scalar)
        if key < best_key:
            best_key = key
            best_genome = genome
            best_breakdown = bd

    for g, r in zip(population, results):
        update_best(g, r)
    history = [best_scalar]

    for _ in range(params.generations):
        ranks, crowd = _rank([r.breakdown for r in results])

        def tournament() -> PlacementGenome:
            i, j = (int(x) for x in rng.integers(0, len(population), size=2))
            if ranks[i] != ranks[j]:
                return population[i] if ranks[i] < ranks[j] else population[j]
            if crowd[i] != crowd[j]:
                return population[i] if crowd[i] > crowd[j] else population[j]
            return population[i]

        offspring = []
        while len(offspring) < params.population:
            child = mutate(crossover(tournament(), tournament()))
            offspring.append(child)
        child_results = [evaluate(g) for g in offspring]
        for g, r in zip(offspring, child_results):
            update_best(g, r)

        merged = population + offspring
        merged_results = results + child_results
        merged_breakdowns = [r.breakdown for r in merged_results]
        fronts = constrained_fronts(merged_breakdowns)
        next_pop: list[int] = []
        for front in fronts:
            if len(next_pop) + len(front) <= params.population:
                next_pop.extend(front)
                continue
            need = params.population - len(next_pop)
            if need > 0:
                cd = crowding_distance([merged_breakdowns[i].vector for i in front])
                order = np.argsort(-cd, kind="stable")
                next_pop.extend(front[int(k)] for k in order[:need])
            break
        population = [merged[i] for i in next_pop]
        results = [merged_results[i] for i in next_pop]
        history.append(best_scalar)

    archive = _build_archive(seen)
    return OptimizeResult(
        archive=archive,
        best_genome=best_genome,
        best_breakdown=best_breakdown,
        history=tuple(history),
        evaluations=len(seen),
        params=params,
    )


def _build_archive(seen: dict[tuple[int, ...], ObjectiveBreakdown]) -> ParetoArchive:
    """Nondominated set over every placement this search scored."""
    items = sorted(seen.items())
    breakdowns = [bd for _, bd in items]
    front0 = constrained_fronts(breakdowns)[0]
    vectors = [breakdowns[i].vector for i in front0]
    crowd = crowding_distance(vectors)
    entries = []
    for pos, i in enumerate(front0):
        key, bd = items[i]
        entries.append(
            ArchiveEntry(
                genome=PlacementGenome(key),
                v_dev=bd.v_dev,
                loss=bd.loss,
                cost=bd.cost,
                scalar=bd.scalar,
                feasible=bd.feasible,
                crowding=float(crowd[pos]),
            )
        )
    entries.sort(key=lambda e: (e.scalar, e.genome.lot_buses))
    return ParetoArchive(tuple(entries))
