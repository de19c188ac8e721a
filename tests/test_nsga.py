from __future__ import annotations

import math

import numpy as np
import pytest

from pevplan.caseio import load_builtin
from pevplan.devices import HOURS, PevLot
from pevplan.dispatch import Scenario
from pevplan.nsga import (
    GaParams,
    InfeasibleConfigError,
    PlacementGenome,
    constrained_dominates,
    constrained_fronts,
    crowding_distance,
    dominates,
    nondominated_sort,
    optimize_placement,
)
from pevplan.nsga import _rank
from pevplan.objective import DayEvaluator, ObjectiveBreakdown

from conftest import small_feeder


def brute_force_fronts(items, dom=dominates):
    """Reference sort: peel nondominated layers by exhaustive comparison."""
    remaining = list(range(len(items)))
    fronts = []
    while remaining:
        front = sorted(
            i
            for i in remaining
            if not any(dom(items[j], items[i]) for j in remaining if j != i)
        )
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def feasible(v_dev, loss, cost=1.0):
    scalar = 0.6 * v_dev + 0.1 * loss + 0.3 * cost
    return ObjectiveBreakdown(v_dev, loss, cost, scalar, feasible=True)


def infeasible(violation):
    return ObjectiveBreakdown(9.0, 9.0, 9.0, 99.0, feasible=False,
                              violation_penalty=violation)


# -- dominance ---------------------------------------------------------------


def test_dominates_basics():
    assert dominates((1.0, 2.0), (2.0, 2.0))
    assert not dominates((2.0, 2.0), (1.0, 2.0))
    assert not dominates((1.0, 2.0), (1.0, 2.0))  # equal: neither dominates
    assert not dominates((1.0, 3.0), (2.0, 2.0))  # trade-off: incomparable


def test_constrained_dominance_ordering():
    good = feasible(1.0, 1.0)
    better = feasible(0.5, 1.0)
    bad = infeasible(2.0)
    worse = infeasible(5.0)
    assert constrained_dominates(good, bad)
    assert not constrained_dominates(bad, good)
    assert constrained_dominates(bad, worse)
    assert constrained_dominates(better, good)
    assert not constrained_dominates(good, better)


# -- sorting and crowding ----------------------------------------------------


def test_sort_hand_case():
    pts = [(1.0, 2.0, 0.0), (2.0, 1.0, 0.0), (3.0, 3.0, 0.0)]
    assert nondominated_sort(pts) == [[0, 1], [2]]


def test_sort_duplicates_share_a_front():
    pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
    assert nondominated_sort(pts) == [[0, 1], [2]]


def test_sort_matches_brute_force_on_random_populations():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        dims = int(rng.integers(2, 4))
        # integer grid values create plenty of ties and duplicates
        pts = [tuple(float(x) for x in rng.integers(0, 5, size=dims)) for _ in range(n)]
        assert nondominated_sort(pts) == brute_force_fronts(pts)


def test_sort_with_constraint_domination():
    items = [feasible(1.0, 1.0), infeasible(3.0), infeasible(1.0), feasible(2.0, 0.5)]
    fronts = constrained_fronts(items)
    assert fronts[0] == [0, 3]          # all feasible first
    assert fronts[1:] == [[2], [1]]     # then by violation


def test_feasible_first_sort_matches_constrained_peeling():
    # integer grids tie vectors and penalties; every mix of feasibility
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        share = rng.uniform(0.0, 1.0)
        items = []
        for _ in range(n):
            v_dev, loss, cost = (float(x) for x in rng.integers(0, 4, size=3))
            ok = bool(rng.random() < share)
            items.append(ObjectiveBreakdown(
                v_dev, loss, cost, v_dev + loss + cost, feasible=ok,
                violation_penalty=0.0 if ok else float(rng.integers(1, 4)),
            ))
        fronts = brute_force_fronts(items, constrained_dominates)
        assert constrained_fronts(items) == fronts
        ranks, crowd = _rank(items)
        for rank, front in enumerate(fronts):
            assert list(ranks[front]) == [rank] * len(front)
            expect = crowding_distance([items[i].vector for i in front])
            np.testing.assert_array_equal(crowd[front], expect)


def test_crowding_boundaries_are_infinite():
    d = crowding_distance([(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)])
    assert d[0] == math.inf and d[2] == math.inf
    # interior point: (4-1)/3 per column = 2.0 total
    assert d[1] == pytest.approx(2.0)


def test_crowding_small_fronts_all_infinite():
    assert list(crowding_distance([(1.0, 2.0)])) == [math.inf]
    assert list(crowding_distance([(1.0, 2.0), (3.0, 4.0)])) == [math.inf, math.inf]
    assert crowding_distance([]).size == 0


def test_crowding_degenerate_column_ignored():
    # zero span in a column must not divide by zero
    d = crowding_distance([(1.0, 7.0), (2.0, 7.0), (3.0, 7.0)])
    assert d[1] == pytest.approx(1.0)


# -- genomes and parameters --------------------------------------------------


def test_genome_is_sorted_set():
    g = PlacementGenome((30, 5))
    assert g.lot_buses == (5, 30)
    assert len(g) == 2
    with pytest.raises(ValueError, match="duplicate lot buses"):
        PlacementGenome((7, 7))


def test_ga_params_validation():
    with pytest.raises(ValueError, match="population"):
        GaParams(population=3)
    with pytest.raises(ValueError, match="population"):
        GaParams(population=7)
    with pytest.raises(ValueError, match="generations"):
        GaParams(generations=-1)
    with pytest.raises(ValueError, match="mutation_rate"):
        GaParams(mutation_rate=1.5)
    # stored verbatim; deduplication happens when the search resolves them
    assert GaParams(candidates=[9, 3]).candidates == (9, 3)


# -- the search itself -------------------------------------------------------


def commuter(level):
    """The bundled ``lot-commuter`` charging profile scaled by ``level``."""
    _, profiles = load_builtin()
    return profiles["lot-commuter"].scaled(level)


def lot_fleet(level=0.02):
    profile = commuter(level)
    return [PevLot(6, level, profile, n_pev=10, cost_per_pev=0.1)]


def tiny_setup():
    net = small_feeder(6)
    return net, lot_fleet(), Scenario(mode="none")


def test_search_is_deterministic():
    net, devices, sc = tiny_setup()
    params = GaParams(population=4, generations=5, seed=3, n_lots=1)
    a = optimize_placement(net, devices, None, sc, params)
    b = optimize_placement(net, devices, None, sc, params)
    assert a.best_genome == b.best_genome
    assert a.history == b.history
    assert a.archive == b.archive
    assert a.evaluations == b.evaluations


def test_history_is_monotone_and_sized():
    net, devices, sc = tiny_setup()
    params = GaParams(population=4, generations=7, seed=1, n_lots=1)
    res = optimize_placement(net, devices, None, sc, params)
    assert len(res.history) == params.generations + 1
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))
    assert res.history[-1] == res.best_breakdown.scalar


def test_reported_best_is_min_over_evaluated():
    # scalarization consistency: the best scalar equals the minimum over
    # every placement the run actually scored, whatever the seed
    net, devices, sc = tiny_setup()
    for seed in (0, 1, 2):
        evaluator = DayEvaluator(net, devices, None, sc)
        params = GaParams(population=4, generations=5, seed=seed, n_lots=1)
        res = optimize_placement(net, devices, None, sc, params, evaluator=evaluator)
        scored = [
            evaluator.evaluate(key).breakdown.scalar
            for key in list(evaluator._cache)
        ]
        assert res.best_breakdown.scalar == min(scored)
        assert res.evaluations == len(scored) <= 5


def test_exhaustive_coverage_on_tiny_problem():
    # 5 candidate buses, 1 lot: with a high mutation rate the run visits
    # every placement, so the reported best is the true optimum
    net, devices, sc = tiny_setup()
    params = GaParams(population=4, generations=12, mutation_rate=0.6, seed=0, n_lots=1)
    evaluator = DayEvaluator(net, devices, None, sc)
    res = optimize_placement(net, devices, None, sc, params, evaluator=evaluator)
    truth = min(
        evaluator.evaluate((b,)).breakdown.scalar for b in net.bus_ids() if b != 1
    )
    assert res.best_breakdown.scalar == pytest.approx(truth, abs=1e-15)
    assert res.evaluations == 5


def test_archive_is_mutually_nondominated():
    net = small_feeder(8)
    profile = commuter(0.015)
    devices = [
        PevLot(5, 0.015, profile, n_pev=10, cost_per_pev=0.1),
        PevLot(7, 0.015, profile, n_pev=10, cost_per_pev=0.1),
    ]
    sc = Scenario(mode="none")
    res = optimize_placement(
        net, devices, None, sc, GaParams(population=6, generations=8, seed=2, n_lots=2)
    )
    entries = res.archive.entries
    assert entries
    for i, a in enumerate(entries):
        for j, b in enumerate(entries):
            if i == j:
                continue
            assert not constrained_dominates(
                feasible(a.v_dev, a.loss, a.cost), feasible(b.v_dev, b.loss, b.cost)
            )
    # archive is sorted by scalar and, when the best is feasible, contains it
    scalars = [e.scalar for e in entries]
    assert scalars == sorted(scalars)
    if res.best_breakdown.feasible:
        assert scalars[0] == pytest.approx(res.best_breakdown.scalar, abs=1e-15)


def test_single_candidate_pool_collapses_to_one_genome():
    net, devices, sc = tiny_setup()
    params = GaParams(population=4, generations=3, seed=0, n_lots=1, candidates=(4,))
    res = optimize_placement(net, devices, None, sc, params)
    assert res.best_genome.lot_buses == (4,)
    assert res.evaluations == 1
    assert len(res.archive) == 1


def test_configuration_errors():
    net, devices, sc = tiny_setup()
    with pytest.raises(InfeasibleConfigError, match="cannot host"):
        optimize_placement(
            net, devices, None, sc, GaParams(n_lots=3, candidates=(2, 3))
        )
    with pytest.raises(InfeasibleConfigError, match="no lots"):
        optimize_placement(net, [], None, sc, GaParams())
    with pytest.raises(ValueError, match="not in network"):
        optimize_placement(net, devices, None, sc, GaParams(candidates=(2, 77)))
    with pytest.raises(ValueError, match="slack"):
        optimize_placement(net, devices, None, sc, GaParams(candidates=(1, 2)))


def test_zero_lots_is_no_lots_to_place():
    # an explicit 0 is not replaced by the case's lot count
    net, devices, sc = tiny_setup()
    with pytest.raises(InfeasibleConfigError, match="no lots"):
        optimize_placement(net, devices, None, sc, GaParams(population=4, n_lots=0))


def test_shared_evaluator_reuses_cache_without_leaking():
    net, devices, sc = tiny_setup()
    evaluator = DayEvaluator(net, devices, None, sc)
    evaluator.evaluate((2,))  # outside result, cached before the search
    params = GaParams(population=4, generations=4, seed=5, n_lots=1, candidates=(3, 4, 5))
    res = optimize_placement(net, devices, None, sc, params, evaluator=evaluator)
    # the archive only reflects placements this run evaluated
    for entry in res.archive.entries:
        assert entry.genome.lot_buses[0] in (3, 4, 5)
    assert res.evaluations <= 3
    assert evaluator.cache_size >= res.evaluations + 1


def test_lot_count_override_resizes_fleet():
    # asking for more or fewer lots than the case defines clones/truncates
    # the lot template so any n_lots is searchable
    net = small_feeder(8)
    devices = lot_fleet()  # a single lot template
    sc = Scenario(mode="none")
    res2 = optimize_placement(
        net, devices, None, sc,
        GaParams(population=4, generations=2, seed=0, n_lots=2),
    )
    assert len(res2.best_genome) == 2
    # two cloned lots double the placement cost of one
    res1 = optimize_placement(
        net, devices, None, sc, GaParams(population=4, generations=2, seed=0, n_lots=1)
    )
    assert res2.best_breakdown.cost == pytest.approx(2 * res1.best_breakdown.cost)


def test_shared_evaluator_must_match_lot_count():
    net, devices, sc = tiny_setup()
    evaluator = DayEvaluator(net, devices, None, sc)
    with pytest.raises(ValueError, match="carries 1 lots"):
        optimize_placement(
            net, devices, None, sc,
            GaParams(population=4, generations=1, n_lots=2),
            evaluator=evaluator,
        )


def test_zero_generations_still_reports_initial_best():
    net, devices, sc = tiny_setup()
    res = optimize_placement(
        net, devices, None, sc, GaParams(population=4, generations=0, seed=9, n_lots=1)
    )
    assert len(res.history) == 1
    assert res.history[0] == res.best_breakdown.scalar
    assert res.evaluations >= 1
