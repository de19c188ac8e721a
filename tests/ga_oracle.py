"""The two-ranking NSGA-II generation: the search loop's oracle.

:func:`optimize_placement` runs the placement search as it was written
before one generation ranked once.  Each generation ranks the population for
its tournaments and then ranks the merged population again for survival;
every ranking is built from the members' breakdowns (:func:`_columns`), and
crowding always sorts (:func:`crowding_distance`).  It shares the package's
operators, which draw the random stream, and its nondominated sort.
``pevplan.nsga.optimize_placement`` must return what this function returns
for the same inputs: the same archive (crowding included), best genome and
breakdown, history and evaluations.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from pevplan.nsga import (
    ArchiveEntry,
    GaParams,
    OptimizeResult,
    ParetoArchive,
    PlacementGenome,
    _crossover,
    _mutate,
    _resolve_candidates,
    _sample,
    _survivors,
    _tournament,
    nondominated_sort,
)
from pevplan.objective import ObjectiveBreakdown

_Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _columns(breakdowns: Sequence[ObjectiveBreakdown]) -> _Columns:
    """What ranking reads of each member: its objective vector (one row
    each), its feasibility and its violation penalty."""
    return (
        np.array([b.vector for b in breakdowns], dtype=float).reshape(-1, 3),
        np.array([b.feasible for b in breakdowns], dtype=bool),
        np.array([b.violation_penalty for b in breakdowns], dtype=float),
    )


def crowding_distance(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distances for one front, each column sorted; boundary
    members get infinity."""
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


def _rank(obj: np.ndarray, feasible: np.ndarray,
          penalty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance per member under constraint
    domination: the feasible members' Pareto fronts first, then one front
    per distinct penalty, lowest first."""
    ranks = np.empty(len(obj), dtype=int)
    crowd = np.full(len(obj), math.inf)
    good = np.flatnonzero(feasible)
    fronts = nondominated_sort(obj[good])
    for rank, front in enumerate(fronts):
        ranks[good[front]] = rank
    bad = np.flatnonzero(~feasible)
    ranks[bad] = len(fronts) + np.unique(penalty[bad], return_inverse=True)[1]
    for rank in np.flatnonzero(np.bincount(ranks) > 2):
        front = np.flatnonzero(ranks == rank)
        crowd[front] = crowding_distance(obj[front])
    return ranks, crowd


def optimize_placement(net, devices, scenario, params: GaParams,
                       evaluator) -> OptimizeResult:
    """The search with two rankings a generation, on ``evaluator``, which
    must carry ``params.n_lots`` lots."""
    n_lots = params.n_lots
    candidates = np.asarray(_resolve_candidates(net, params, n_lots), dtype=int)
    rng = np.random.default_rng(params.seed)

    seen: dict[tuple[int, ...], ObjectiveBreakdown] = {}
    best_key: tuple[bool, float] = (True, math.inf)
    best_lots: tuple[int, ...] = ()
    best_breakdown: ObjectiveBreakdown | None = None

    def score(rows: np.ndarray) -> _Columns:
        nonlocal best_key, best_lots, best_breakdown
        placements = list(map(tuple, candidates[rows].tolist()))
        evaluator.evaluate_many([lots for lots in placements if lots not in seen])
        breakdowns = []
        for lots in placements:
            bd = seen.get(lots)
            if bd is None:
                bd = seen[lots] = evaluator.evaluate(lots).breakdown
                key = (not bd.feasible, bd.scalar)
                if key < best_key or best_breakdown is None:
                    best_key, best_lots, best_breakdown = key, lots, bd
            breakdowns.append(bd)
        return _columns(breakdowns)

    size = params.population
    population = _sample(rng, len(candidates), size, n_lots)
    columns = score(population)
    history = [best_breakdown.scalar]

    for _ in range(params.generations):
        parents = _tournament(rng, *_rank(*columns), size)
        children = _crossover(rng, population[parents[:, 0]], population[parents[:, 1]])
        children = _mutate(rng, children, params.mutation_rate, len(candidates))
        merged = [np.concatenate(pair) for pair in zip(columns, score(children))]
        keep = _survivors(*_rank(*merged), size)
        population = np.concatenate((population, children))[keep]
        columns = tuple(col[keep] for col in merged)
        history.append(best_breakdown.scalar)

    return OptimizeResult(
        archive=_build_archive(seen),
        best_genome=PlacementGenome(best_lots),
        best_breakdown=best_breakdown,
        history=tuple(history),
        evaluations=len(seen),
        params=params,
    )


def _build_archive(seen: dict[tuple[int, ...], ObjectiveBreakdown]) -> ParetoArchive:
    items = sorted(seen.items())
    ranks, crowd = _rank(*_columns([bd for _, bd in items]))
    entries = []
    for i in np.flatnonzero(ranks == 0).tolist():
        key, bd = items[i]
        entries.append(ArchiveEntry(
            genome=PlacementGenome(key), v_dev=bd.v_dev, loss=bd.loss, cost=bd.cost,
            scalar=bd.scalar, feasible=bd.feasible, crowding=float(crowd[i]),
        ))
    entries.sort(key=lambda e: (e.scalar, e.genome.lot_buses))
    return ParetoArchive(tuple(entries))
