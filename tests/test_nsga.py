from __future__ import annotations

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pevplan.caseio import load_builtin
from pevplan.devices import HOURS, HourlyProfile, PevLot, PvUnit
from pevplan.dispatch import Scenario
from pevplan.network import Network
from pevplan.nsga import (
    GaParams,
    InfeasibleConfigError,
    PlacementGenome,
    crowding_distance,
    nondominated_sort,
    optimize_placement,
)
from pevplan.nsga import (
    _crossover,
    _kept_ranking,
    _mutate,
    _rank,
    _sample,
    _survivors,
    _tournament,
)
from pevplan.objective import DayEvaluator, ObjectiveBreakdown, place_lots

import ga_oracle
from conftest import radial_feeders, small_feeder
from ga_oracle import _columns


def dominates(u, v) -> bool:
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


def constrained_fronts(items):
    """The fronts :func:`_rank` sorts breakdowns into, best first."""
    ranks, _ = _rank(*_columns(items))
    return [np.flatnonzero(ranks == r).tolist() for r in range(len(set(ranks.tolist())))]


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


def random_breakdowns(rng, n):
    """Breakdowns on integer grids, which tie vectors and penalties, with a
    random share of them feasible."""
    share = rng.uniform(0.0, 1.0)
    items = []
    for _ in range(n):
        v_dev, loss, cost = (float(x) for x in rng.integers(0, 4, size=3))
        ok = bool(rng.random() < share)
        items.append(ObjectiveBreakdown(
            v_dev, loss, cost, v_dev + loss + cost, feasible=ok,
            violation_penalty=0.0 if ok else float(rng.integers(1, 4)),
        ))
    return items


def test_feasible_first_sort_matches_constrained_peeling():
    rng = np.random.default_rng(3)
    for _ in range(200):
        items = random_breakdowns(rng, int(rng.integers(1, 41)))
        fronts = brute_force_fronts(items, constrained_dominates)
        assert constrained_fronts(items) == fronts
        ranks, crowd = _rank(*_columns(items))
        for rank, front in enumerate(fronts):
            assert list(ranks[front]) == [rank] * len(front)
            expect = crowding_distance([items[i].vector for i in front])
            np.testing.assert_array_equal(crowd[front], expect)


def test_survivors_keep_whole_fronts_then_the_most_crowded_apart():
    # reference mu+lambda truncation, front by front, on the peeled fronts
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        size = int(rng.integers(1, n + 1))
        items = random_breakdowns(rng, n)
        expect = []
        for front in brute_force_fronts(items, constrained_dominates):
            need = size - len(expect)
            if len(front) <= need:
                expect += front
                continue
            cd = crowding_distance([items[i].vector for i in front])
            expect += [front[k] for k in np.argsort(-cd, kind="stable")[:need]]
            break
        kept = _survivors(*_rank(*_columns(items)), size)
        assert kept.tolist() == sorted(expect)


@st.composite
def merged_populations(draw):
    """``(obj, feasible, penalty, size)``: a population as ranking reads it
    and a survivor count.  The vectors lie on a small grid, so they tie and
    repeat; the cost column may be constant, as a placement's cost is; the
    penalties tie too, and every member may be feasible, so that a Pareto
    front is cut in the middle."""
    n = draw(st.integers(1, 40))
    top = draw(st.sampled_from([1, 3, 9]))
    obj = np.array(draw(st.lists(st.lists(st.integers(0, top), min_size=3, max_size=3),
                                 min_size=n, max_size=n)), dtype=float)
    obj *= draw(st.sampled_from([1.0, 0.1]))
    if draw(st.booleans()):
        obj[:, 2] = 0.6
    if draw(st.booleans()):
        feasible = np.ones(n, dtype=bool)
    else:
        feasible = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    penalty = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    penalty[feasible] = 0.0
    return obj, feasible, penalty, draw(st.integers(1, n))


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# a feasible front of five, cut to three by crowding, whose kept members are
# not the merged population's first three
@example((np.array([[0, 10, 1], [1, 6, 1], [2, 5, 1], [6, 1, 1], [10, 0, 1], [9, 9, 1]],
                   dtype=float), np.ones(6, dtype=bool), np.zeros(6), 3))
@settings(max_examples=300, deadline=None)
@given(merged_populations())
def test_survivors_keep_the_ranking_they_get_alone(pop):
    obj, feasible, penalty, size = pop
    ranks, crowd = _rank(obj, feasible, penalty)
    keep = _survivors(ranks, crowd, size)
    assert_same_arrays(_kept_ranking(ranks, crowd, obj, keep),
                       _rank(obj[keep], feasible[keep], penalty[keep]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.5])] * 3), max_size=12),
       st.booleans())
def test_crowding_equals_the_sort_on_fronts_with_ties(vectors, equal):
    if equal:  # a front of equal vectors takes the path with no sort
        vectors = vectors[:1] * len(vectors)
    assert_same_arrays([crowding_distance(vectors)], [ga_oracle.crowding_distance(vectors)])


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


def test_ga_params_refuse_non_integer_counts():
    # a float count or seed would fail only later, inside numpy, range or comb
    for field, value in (("population", 40.0), ("generations", 2.5), ("n_lots", 2.0),
                         ("seed", 1.5)):
        with pytest.raises(TypeError):
            GaParams(**{field: value})
    assert GaParams(population=np.int64(6), n_lots=np.int64(2)) == GaParams(population=6,
                                                                             n_lots=2)


@pytest.mark.parametrize("build", [
    lambda net, devices, profiles: DayEvaluator(
        net, devices, profiles, Scenario(mode="none")).evaluate((7.9, 29)),
    lambda net, devices, profiles: place_lots(devices, (7.9, 29), net),
    lambda net, devices, profiles: PlacementGenome((7.9, 29)),
    lambda net, devices, profiles: GaParams(candidates=(7.5, 29)),
], ids=["evaluate", "place_lots", "genome", "candidates"])
def test_a_non_integer_bus_id_is_refused(bus33, devices33, profiles33, build):
    # a bus id is an integer: truncating 7.9 would name bus 7
    with pytest.raises(TypeError):
        build(bus33.network, devices33, profiles33)


# -- array operators ---------------------------------------------------------


@st.composite
def populations(draw, count=1):
    """``n_cand`` and ``count`` populations of one shape: rows of sorted,
    distinct candidate indices."""
    n_cand = draw(st.integers(1, 40))
    n_lots = draw(st.integers(1, min(n_cand, 6)))
    size = draw(st.integers(1, 12))
    return (n_cand,) + tuple(
        np.array([sorted(draw(st.permutations(range(n_cand)))[:n_lots])
                  for _ in range(size)], dtype=int)
        for _ in range(count)
    )


def assert_placements(rows, n_cand, n_lots):
    """Every row sorted, of distinct indices, all within the candidates."""
    assert rows.shape[1] == n_lots
    assert (np.diff(rows, axis=1) > 0).all()
    assert ((rows >= 0) & (rows < n_cand)).all()


@settings(max_examples=60, deadline=None)
@given(populations(), st.integers(0, 2**32 - 1))
def test_sample_draws_placements(pop, seed):
    n_cand, rows = pop
    drawn = _sample(np.random.default_rng(seed), n_cand, len(rows), rows.shape[1])
    assert drawn.shape == rows.shape
    assert_placements(drawn, n_cand, rows.shape[1])


@settings(max_examples=60, deadline=None)
@given(populations(count=2), st.integers(0, 2**32 - 1))
def test_crossover_children_come_from_their_parents(pops, seed):
    n_cand, a, b = pops
    children = _crossover(np.random.default_rng(seed), a, b)
    assert_placements(children, n_cand, a.shape[1])
    for child, ra, rb in zip(children, a, b):
        assert set(child) <= set(ra) | set(rb)


@settings(max_examples=60, deadline=None)
@given(populations(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_mutation_swaps_one_slot_for_a_non_member(pop, rate, seed):
    n_cand, rows = pop
    mutated = _mutate(np.random.default_rng(seed), rows, rate, n_cand)
    assert_placements(mutated, n_cand, rows.shape[1])
    for new, old in zip(mutated, rows):
        gone, came = set(old) - set(new), set(new) - set(old)
        assert len(gone) == len(came) <= 1  # one slot, to a non-member
    if n_cand > rows.shape[1]:  # at rate 1 every row has a non-member to take
        always = _mutate(np.random.default_rng(seed), rows, 1.0, n_cand)
        assert all(len(set(new) - set(old)) == 1 for new, old in zip(always, rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_tournament_winner_beats_its_rival(size, members, seed):
    rng = np.random.default_rng(seed)
    ranks = rng.integers(0, 3, size=members)
    crowd = rng.choice([0.5, 1.0, math.inf], size=members)
    won = _tournament(np.random.default_rng(seed + 1), ranks, crowd, size)
    drawn = np.random.default_rng(seed + 1).integers(0, members, size=(size, 2, 2))
    for winner, (i, j) in zip(won.ravel(), drawn.reshape(-1, 2)):
        assert winner in (i, j)
        rival = j if winner == i else i
        assert (ranks[winner], -crowd[winner]) <= (ranks[rival], -crowd[rival])
        if (ranks[i], crowd[i]) == (ranks[j], crowd[j]):
            assert winner == i  # a tie goes to the first contestant


def test_crossover_draws_uniformly_from_the_union():
    # {0, 1} x {1, 2}: the union {0, 1, 2} holds three pairs, each 1/3
    n = 30_000
    a = np.tile([0, 1], (n, 1))
    b = np.tile([1, 2], (n, 1))
    children = _crossover(np.random.default_rng(0), a, b)
    pairs, counts = np.unique(children, axis=0, return_counts=True)
    assert pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    np.testing.assert_allclose(counts / n, 1 / 3, atol=0.015)


def test_mutation_draws_uniformly_from_the_non_members():
    # row {1, 3} of five candidates: each slot half the time, and each of
    # the non-members 0, 2 and 4 a third of the time
    n = 30_000
    rows = np.tile([1, 3], (n, 1))
    mutated = _mutate(np.random.default_rng(0), rows, 1.0, 5)
    kept = np.where(np.isin(mutated, [1, 3]), mutated, -1).max(axis=1)
    came = np.where(np.isin(mutated, [1, 3]), -1, mutated).max(axis=1)
    np.testing.assert_allclose(np.mean(kept == 1), 0.5, atol=0.015)
    for bus in (0, 2, 4):
        np.testing.assert_allclose(np.mean(came == bus), 1 / 3, atol=0.015)


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


class TableEvaluator:
    """Stands in for a DayEvaluator: one-lot breakdowns from a table."""

    lot_count = 1

    def __init__(self, table, net, scenario):
        self.table = table
        self.net, self.scenario = net, scenario
        self.asked = set()

    def evaluate(self, lots):
        self.asked.add(lots[0])
        return SimpleNamespace(lot_buses=tuple(lots), breakdown=self.table[lots[0]])

    def evaluate_many(self, placements):
        return [self.evaluate(lots) for lots in placements]


def test_history_follows_the_feasible_first_best():
    # buses 2 and 3 violate limits yet score lower than any feasible bus:
    # history reports the best the search returns, never a lower
    # infeasible scalar, and once a feasible member exists it cannot rise
    net = small_feeder(8)
    table = {
        2: ObjectiveBreakdown(9.0, 9.0, 9.0, 0.5, feasible=False, violation_penalty=1.0),
        3: ObjectiveBreakdown(9.0, 9.0, 9.0, 0.7, feasible=False, violation_penalty=2.0),
    }
    for bus, scalar in zip(range(4, 9), (5.0, 4.0, 3.0, 2.0, 1.0)):
        table[bus] = ObjectiveBreakdown(scalar, 0.0, 0.0, scalar, feasible=True)
    for seed in range(5):
        evaluator = TableEvaluator(table, net, Scenario(mode="none"))
        params = GaParams(population=4, generations=10, mutation_rate=0.5, seed=seed, n_lots=1)
        res = optimize_placement(net, [], None, evaluator.scenario, params, evaluator=evaluator)
        assert {2, 3} & evaluator.asked  # a lower infeasible scalar was seen
        assert res.best_breakdown.feasible
        assert res.history[-1] == res.best_breakdown.scalar
        first = next(k for k, h in enumerate(res.history) if h >= 1.0)
        assert all(b <= a for a, b in zip(res.history[first:], res.history[first + 1:]))


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


def feasible_first(bd: ObjectiveBreakdown) -> tuple[bool, float]:
    return (not bd.feasible, bd.scalar)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_feeder_searches_match_enumeration(data):
    # 5–9 buses (4–8 candidates), one PV and 2 lots with hourly profiles,
    # and an hourly load shape, in mode none.  The archive is the brute-force
    # front 0 (this file's own constraint domination) over the placements
    # the search scored, and its best is the feasible-first best of those;
    # a search that scored every placement returns the enumerated best
    net = data.draw(radial_feeders(5, 9), label="feeder")
    # a voltage floor near 1 pu leaves some placements infeasible
    v_min = data.draw(st.floats(0.98, 0.9999), label="v_min")
    net = Network(tuple(replace(b, v_min=v_min) for b in net.buses), net.branches)
    buses = sorted(b.id for b in net.buses if b.kind != "slack")

    def hourly(peak: float):
        return data.draw(st.lists(st.floats(0.0, peak), min_size=HOURS, max_size=HOURS))

    devices = [PvUnit(data.draw(st.sampled_from(buses), label="pv bus"), 0.02, hourly(0.02))]
    size = data.draw(st.floats(0.03, 0.3), label="lot size")
    devices += [PevLot(bus, size, hourly(size)) for bus in buses[:2]]
    profiles = {"load-weekday": HourlyProfile("load-weekday", data.draw(
        st.lists(st.floats(0.2, 3.0), min_size=HOURS, max_size=HOURS), label="load shape"))}
    sc = Scenario(mode="none", load_profile_id="load-weekday")
    params = GaParams(population=2 * data.draw(st.integers(2, 5), label="half population"),
                      generations=data.draw(st.integers(0, 40), label="generations"),
                      mutation_rate=data.draw(st.floats(0.2, 1.0), label="mutation"),
                      seed=data.draw(st.integers(0, 2**32 - 1), label="seed"), n_lots=2)
    ev = DayEvaluator(net, devices, profiles, sc)
    res = optimize_placement(net, devices, profiles, sc, params, evaluator=ev)

    scored = dict(ev._cache)  # a fresh evaluator holds the search's days alone
    assert res.evaluations == len(scored)
    front = {lots: bd for lots, bd in scored.items()
             if not any(constrained_dominates(other, bd) for other in scored.values())}
    entries = res.archive.entries
    assert {e.genome.lot_buses: (e.v_dev, e.loss, e.cost, e.scalar, e.feasible)
            for e in entries} == {lots: (bd.v_dev, bd.loss, bd.cost, bd.scalar, bd.feasible)
                                  for lots, bd in front.items()}
    assert len(entries) == len(front)
    assert [e.scalar for e in entries] == sorted(e.scalar for e in entries)
    best = res.best_genome.lot_buses
    assert scored[best] == res.best_breakdown
    assert feasible_first(res.best_breakdown) == min(map(feasible_first, scored.values()))

    every = list(itertools.combinations(buses, 2))
    if len(scored) == len(every):
        truth = {day.lot_buses: day.breakdown
                 for day in DayEvaluator(net, devices, profiles, sc).evaluate_many(every)}
        assert truth == scored
        assert truth[best] == res.best_breakdown
        assert feasible_first(truth[best]) == min(map(feasible_first, truth.values()))
    event(f"scored every placement: {len(scored) == len(every)}")
    event(f"feasibility of the scored: {sorted({bd.feasible for bd in scored.values()})}")


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
    pv_only = [PvUnit(3, 0.05, (0.0,) * HOURS)]
    with pytest.raises(InfeasibleConfigError, match="no parking-lot template"):
        optimize_placement(net, pv_only, None, sc, GaParams(n_lots=1))


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


def test_shared_evaluator_must_match_scenario():
    # a mode-none search on a dgq evaluator would rank dgq days
    net, devices, sc = tiny_setup()
    evaluator = DayEvaluator(net, devices, None, Scenario(mode="dgq"))
    with pytest.raises(ValueError, match="another scenario or network"):
        optimize_placement(net, devices, None, sc,
                           GaParams(population=4, generations=1, n_lots=1),
                           evaluator=evaluator)


def test_shared_evaluator_must_match_network():
    net, devices, sc = tiny_setup()
    evaluator = DayEvaluator(small_feeder(7), devices, None, sc)
    with pytest.raises(ValueError, match="another scenario or network"):
        optimize_placement(net, devices, None, sc,
                           GaParams(population=4, generations=1, n_lots=1),
                           evaluator=evaluator)


@pytest.mark.parametrize("mode, seeds, generations, population", [
    pytest.param("none", (0, 1, 2, 3, 4, 5), 60, 40, id="none"),
    # a short search whose fronts cut in the middle hold distinct vectors;
    # mode none's hold equal ones, so they cannot tell the members apart
    pytest.param("dgq+v2gq", (0,), 4, 12, id="dgq+v2gq"),
])
def test_search_equals_the_two_ranking_oracle(bus33, devices33, profiles33,
                                              mode, seeds, generations, population):
    # each run on its own evaluator, so each computes its own days
    net = bus33.network
    sc = Scenario(mode=mode, load_profile_id="load-weekday")
    ours, theirs = (DayEvaluator(net, devices33, profiles33, sc) for _ in range(2))
    for seed in seeds:
        params = GaParams(population=population, generations=generations, seed=seed,
                          n_lots=2)
        want = ga_oracle.optimize_placement(net, devices33, sc, params, theirs)
        got = optimize_placement(net, devices33, profiles33, sc, params, evaluator=ours)
        assert got == want  # archive, best genome and breakdown, history, evaluations


def test_a_search_ranks_once_a_generation(monkeypatch):
    # the initial population, each generation's merged one, and the archive
    from pevplan import nsga

    calls = []

    def counted(*args):
        calls.append(args)
        return _rank(*args)

    monkeypatch.setattr(nsga, "_rank", counted)
    net, devices, sc = tiny_setup()
    optimize_placement(net, devices, None, sc,
                       GaParams(population=4, generations=7, seed=0, n_lots=1))
    assert len(calls) == 7 + 2


def test_zero_generations_still_reports_initial_best():
    net, devices, sc = tiny_setup()
    res = optimize_placement(
        net, devices, None, sc, GaParams(population=4, generations=0, seed=9, n_lots=1)
    )
    assert len(res.history) == 1
    assert res.history[0] == res.best_breakdown.scalar
    assert res.evaluations >= 1
