"""Elitist multi-objective search over parking-lot placements.

Standard NSGA-II machinery — fast nondominated sorting, crowding distance,
binary tournaments, and mu+lambda truncation — specialized to genomes that
are fixed-size sets of lot buses.  Ranking uses constraint-domination: a
feasible solution beats any infeasible one, and infeasible solutions compare
by total violation.  That makes the infeasible members a total order, so the
sort peels Pareto fronts from the feasible members only and appends the
infeasible ones in groups of equal violation.  Alongside the Pareto archive
the search reports the single genome that is best feasible-first (any
feasible placement before any infeasible one, then the lower weighted
scalar) over every evaluation, so it never regresses between generations.

Inside the loop the population is an int array of sorted candidate-index
rows, and each operator draws its randomness for the whole generation in a
few array calls.  A placement is evaluated once per search, and a
generation's new placements are evaluated together, as one
``DayEvaluator.evaluate_many`` call; each scored placement keeps a row of
objective, feasibility and penalty arrays, which a generation gathers.  A
generation ranks once, its merged population: the survivors are whole fronts
and part of one more, so they keep their ranks for the next tournaments, and
only the part-kept front is crowded again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .devices import Device, HourlyProfile, PevLot
from .dispatch import Scenario
from .network import Network
from .objective import DayEvaluator, ObjectiveBreakdown


class InfeasibleConfigError(ValueError):
    """The search is unsatisfiable as configured (e.g. more lots than buses)."""


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


def _rank(obj: np.ndarray, feasible: np.ndarray,
          penalty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front rank (0 = best) and crowding distance within its front, per
    member, for Deb's sort under constraint-domination (see the module
    docstring).

    Every feasible member dominates every infeasible one, so the Pareto
    fronts of the feasible members come first.  Infeasible members compare
    by penalty alone, a total order: each distinct penalty makes one front,
    lowest first.
    """
    ranks = np.empty(len(obj), dtype=int)
    crowd = np.full(len(obj), math.inf)
    good = np.flatnonzero(feasible)
    fronts = nondominated_sort(obj[good])
    for rank, front in enumerate(fronts):
        ranks[good[front]] = rank
    bad = np.flatnonzero(~feasible)
    ranks[bad] = len(fronts) + np.unique(penalty[bad], return_inverse=True)[1]
    # a front of one or two members has only boundary members
    for rank in np.flatnonzero(np.bincount(ranks) > 2):
        front = np.flatnonzero(ranks == rank)
        crowd[front] = crowding_distance(obj[front])
    return ranks, crowd


def crowding_distance(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distances for one front; boundary members get infinity."""
    arr = np.asarray(vectors, dtype=float)
    m = len(arr)
    if m == 0:
        return np.empty(0)
    dist = np.zeros(m)
    # equal vectors: every stable sort leaves them in order, so only the ends count
    if m <= 2 or (arr == arr[0]).all():
        dist[[0, -1]] = math.inf
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
        buses = tuple(sorted(map(operator.index, self.lot_buses)))
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
        # counts and the seed are integers: a float would fail deep in the search
        for name in ("population", "generations", "seed", "n_lots"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, operator.index(value))
        if self.population < 4 or self.population % 2:
            raise ValueError("population must be even and at least 4")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.candidates is not None:
            object.__setattr__(self, "candidates", tuple(map(operator.index, self.candidates)))


@dataclass(frozen=True)
class ArchiveEntry:
    genome: PlacementGenome
    v_dev: float
    loss: float
    cost: float
    scalar: float
    feasible: bool


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
    history: tuple[float, ...]  # best_breakdown's scalar after each generation (0 = initial)
    evaluations: int  # distinct placements evaluated


def _resolve_candidates(net: Network, params: GaParams, n_lots: int) -> tuple[int, ...]:
    """The candidate buses, sorted, so a row of sorted candidate indices is
    also a sorted placement."""
    if params.candidates is None:
        candidates = tuple(sorted(b for b in net.bus_ids() if b != net.slack_id))
    else:
        candidates = tuple(sorted(set(params.candidates)))
        for c in candidates:
            if c not in net:
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


# The operators work on populations of candidate indices: an int array with
# one sorted row of ``n_lots`` distinct indices per member.  Each draws its
# randomness for the whole population in a few array calls.


def _sample(rng: np.random.Generator, n_cand: int, size: int, n_lots: int) -> np.ndarray:
    """``size`` uniform ``n_lots``-subsets of ``range(n_cand)``: the indices
    of each row's lowest random keys."""
    keys = rng.random((size, n_cand))
    return np.sort(np.argsort(keys, axis=1)[:, :n_lots], axis=1)


def _tournament(rng: np.random.Generator, ranks: np.ndarray, crowd: np.ndarray,
                size: int) -> np.ndarray:
    """Parent indices, shape ``(size, 2)``, each the winner of a binary
    tournament: the lower rank wins, then the larger crowding distance, then
    the first contestant drawn."""
    drawn = rng.integers(0, len(ranks), size=(size, 2, 2))
    i, j = drawn[..., 0], drawn[..., 1]
    j_wins = (ranks[j] < ranks[i]) | ((ranks[j] == ranks[i]) & (crowd[j] > crowd[i]))
    return np.where(j_wins, j, i)


def _crossover(rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, a uniform ``n_lots``-subset of the union of ``a``'s and
    ``b``'s genes.

    Every gene gets a random key, a ``b`` gene already in ``a`` gets
    ``inf``, and the child takes the genes of the lowest keys; ``a`` alone
    holds ``n_lots`` distinct genes, so no ``inf`` is ever taken.
    """
    n_lots = a.shape[1]
    genes = np.concatenate((a, b), axis=1)
    keys = rng.random(genes.shape)
    keys[:, n_lots:][(b[:, :, None] == a[:, None, :]).any(axis=2)] = np.inf
    pick = np.argsort(keys, axis=1)[:, :n_lots]
    return np.sort(np.take_along_axis(genes, pick, axis=1), axis=1)


def _mutate(rng: np.random.Generator, rows: np.ndarray, rate: float,
            n_cand: int) -> np.ndarray:
    """With probability ``rate`` per row, one uniformly drawn slot takes a
    uniformly drawn candidate the row does not hold."""
    size, n_lots = rows.shape
    if n_cand == n_lots:  # no candidate outside the row
        return rows
    hit = rng.random(size) < rate
    slot = rng.integers(0, n_lots, size=size)
    new = rng.integers(0, n_cand - n_lots, size=size)  # rank among the non-members
    for k in range(n_lots):  # the row is sorted: skip each member at or below
        new += rows[:, k] <= new
    out = rows.copy()
    out[hit, slot[hit]] = new[hit]
    return np.sort(out, axis=1)


def _survivors(ranks: np.ndarray, crowd: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` members mu+lambda truncation keeps, in index order: whole
    fronts, best first, then the members of the front that overflows with the
    largest crowding distances (the lower index on a tie)."""
    return np.sort(np.lexsort((-crowd, ranks))[:size])


def _kept_ranking(ranks: np.ndarray, crowd: np.ndarray, obj: np.ndarray,
                  keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What :func:`_rank` gives the survivors ``keep`` of a ranked population
    with objective rows ``obj``.  They are whole fronts and part of one more,
    so each keeps its rank and a whole front its distances; only the last
    front is crowded again, on the survivors' own rows."""
    ranks, crowd, obj = ranks[keep], crowd[keep], obj[keep]
    last = np.flatnonzero(ranks == ranks.max())
    crowd[last] = crowding_distance(obj[last])
    return ranks, crowd


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
    (the search itself never mutates it beyond adding evaluations); it must
    carry the search's network, scenario and lot count.
    """
    params = params or GaParams()
    n_lots = params.n_lots
    if n_lots is None:
        n_lots = sum(isinstance(d, PevLot) for d in devices)
    if n_lots <= 0:
        raise InfeasibleConfigError("no lots to place")
    candidates = np.asarray(_resolve_candidates(net, params, n_lots), dtype=int)
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
    elif evaluator.scenario != scenario or evaluator.net != net:
        raise ValueError("shared evaluator was built for another scenario or network")

    size = params.population
    # each placement the search scored has a row: its breakdown and what
    # ranking reads of it (objective vector, feasibility, violation penalty)
    index: dict[tuple[int, ...], int] = {}
    found: list[ObjectiveBreakdown] = []
    rows = min(size * (params.generations + 1), math.comb(len(candidates), n_lots))
    obj, feasible, penalty = np.empty((rows, 3)), np.empty(rows, dtype=bool), np.empty(rows)
    best_key: tuple[bool, float] = (True, math.inf)  # (infeasible?, scalar)
    best_lots: tuple[int, ...] = ()
    best_breakdown: ObjectiveBreakdown | None = None

    def score(members: np.ndarray) -> np.ndarray:
        """The members' rows; the placements new to the search are evaluated
        as one batch and bid, in the order first seen, for the feasible-first
        best."""
        nonlocal best_key, best_lots, best_breakdown
        placements = list(map(tuple, candidates[members].tolist()))
        new = [lots for lots in dict.fromkeys(placements) if lots not in index]
        for lots, result in zip(new, evaluator.evaluate_many(new)):
            bd = result.breakdown
            row = index[lots] = len(found)
            found.append(bd)
            obj[row], feasible[row], penalty[row] = bd.vector, bd.feasible, bd.violation_penalty
            key = (not bd.feasible, bd.scalar)
            if key < best_key or best_breakdown is None:
                best_key, best_lots, best_breakdown = key, lots, bd
        return np.array([index[lots] for lots in placements])

    population = _sample(rng, len(candidates), size, n_lots)
    at = score(population)
    ranks, crowd = _rank(obj[at], feasible[at], penalty[at])
    history = [best_breakdown.scalar]

    for _ in range(params.generations):
        parents = _tournament(rng, ranks, crowd, size)
        children = _crossover(rng, population[parents[:, 0]], population[parents[:, 1]])
        children = _mutate(rng, children, params.mutation_rate, len(candidates))
        merged = np.concatenate((at, score(children)))
        ranks, crowd = _rank(obj[merged], feasible[merged], penalty[merged])
        keep = _survivors(ranks, crowd, size)
        ranks, crowd = _kept_ranking(ranks, crowd, obj[merged], keep)
        population = np.concatenate((population, children))[keep]
        at = merged[keep]
        history.append(best_breakdown.scalar)

    placements = sorted(index)  # the archive ranks them in placement order
    at = np.array([index[lots] for lots in placements])
    return OptimizeResult(
        archive=_build_archive(placements, [found[row] for row in at],
                               _rank(obj[at], feasible[at], penalty[at])[0]),
        best_genome=PlacementGenome(best_lots),
        best_breakdown=best_breakdown,
        history=tuple(history),
        evaluations=len(found),
    )


def _build_archive(placements: Sequence[tuple[int, ...]],
                   breakdowns: Sequence[ObjectiveBreakdown],
                   ranks: np.ndarray) -> ParetoArchive:
    """Nondominated set over every placement this search scored, given with
    their breakdowns and their :func:`_rank` ranks."""
    entries = []
    for i in np.flatnonzero(ranks == 0).tolist():
        bd = breakdowns[i]
        entries.append(ArchiveEntry(
            genome=PlacementGenome(placements[i]), v_dev=bd.v_dev, loss=bd.loss,
            cost=bd.cost, scalar=bd.scalar, feasible=bd.feasible))
    entries.sort(key=lambda e: (e.scalar, e.genome.lot_buses))
    return ParetoArchive(tuple(entries))
