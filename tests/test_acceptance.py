"""Release acceptance suite.

Each test guards one end-to-end behaviour the package promises: solver
cross-checks, closed-form oracles, converter capability geometry, scenario
ordering, optimizer soundness against exhaustive/random references, objective
arithmetic, selection internals, and the full-scale placement run.  Every test
records a PASS/FAIL verdict that conftest echoes after the run.

The expensive placement run (population 40, 60 generations, two lots) is
computed once in a module fixture and shared by the tests that need it.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import record_acceptance

from pevplan import GaParams, Scenario, bind_devices, load_builtin, optimize_placement
from pevplan.caseio import builtin_path, load_case
from pevplan.devices import PevLot, PvUnit, capability_violation, q_capability
from pevplan.dispatch import MODES
from pevplan.nsga import nondominated_sort
from pevplan.objective import DayEvaluator, combine
from pevplan.powerflow import InjectionSet, solve
from pevplan.sweep import solve_sweep
from pevplan.twobus import (
    FlowDirection,
    TwoBusState,
    classify_direction,
    transfer_power_general,
    transfer_power_reactive_line,
)

# Eight spread-out non-slack buses used for the small exhaustive search.
CANDIDATE_8 = (3, 6, 9, 13, 17, 22, 27, 31)
RANDOM_BASELINE_SEEDS = (123, 456)
RANDOM_BASELINE_DRAWS = 200
# Every two-lot placement's day, enumerated once (read only here).
GOLDEN_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def _finish(name: str, detail: str, failures: list[str]) -> None:
    record_acceptance(name, not failures, detail)
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def bundle():
    case, profiles = load_builtin()
    return SimpleNamespace(
        case=case, profiles=profiles, devices=bind_devices(case, profiles)
    )


@pytest.fixture(scope="module")
def siv_scenario():
    return Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")


def _random_placement_best(net, evaluator, seed: int) -> float:
    """Best scalar over RANDOM_BASELINE_DRAWS uniformly drawn two-lot sites,
    all drawn first and then scored in one ``evaluate_many`` call."""
    rng = np.random.default_rng(seed)
    pool = [b.id for b in net.buses if b.kind != "slack"]
    picks = [tuple(int(b) for b in rng.choice(pool, size=2, replace=False))
             for _ in range(RANDOM_BASELINE_DRAWS)]
    return min(day.breakdown.scalar for day in evaluator.evaluate_many(picks))


@pytest.fixture(scope="module")
def full_search(bundle, siv_scenario):
    """The full-scale two-lot placement run plus random baselines.

    Shared by the optimizer-soundness, selection-internals, and full-run
    tests so the expensive search happens exactly once.
    """
    net = bundle.case.network
    evaluator = DayEvaluator(net, bundle.devices, bundle.profiles, siv_scenario)
    params = GaParams(population=40, generations=60, seed=0, n_lots=2)
    t0 = time.perf_counter()
    result = optimize_placement(
        net, bundle.devices, bundle.profiles, siv_scenario, params, evaluator=evaluator
    )
    t_ga = time.perf_counter() - t0
    baselines = {}
    t0 = time.perf_counter()
    for seed in RANDOM_BASELINE_SEEDS:
        baselines[seed] = _random_placement_best(net, evaluator, seed)
    t_baseline = time.perf_counter() - t0
    return SimpleNamespace(
        result=result,
        baselines=baselines,
        t_ga=t_ga,
        t_total=t_ga + t_baseline,
        weights=siv_scenario.weights,
    )


def test_c1_newton_matches_radial_sweep(bundle):
    net = bundle.case.network
    p_load, q_load = net.load_vectors()
    inj = InjectionSet.from_loads(p_load, q_load)

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sol = solve(net, inj)
        times.append(time.perf_counter() - t0)
    ref = solve_sweep(net, inj)

    v_nr = sol.v_mag * np.exp(1j * sol.v_ang)
    v_ref = ref.v_mag * np.exp(1j * ref.v_ang)
    gap = float(np.max(np.abs(v_nr - v_ref)))
    solve_ms = min(times) * 1e3

    failures = []
    if not sol.converged:
        failures.append("Newton solve did not converge on the bundled feeder")
    if gap > 1e-6:
        failures.append(f"voltage gap vs sweep oracle {gap:.3e} pu > 1e-6")
    if sol.max_mismatch > 1e-8:
        failures.append(f"mismatch residual {sol.max_mismatch:.3e} pu > 1e-8")
    if min(times) >= 0.1:
        failures.append(f"solve took {solve_ms:.1f} ms >= 100 ms")
    _finish(
        "criterion 1: power-flow cross-check",
        f"max|dV|={gap:.2e} pu, residual={sol.max_mismatch:.2e} pu, "
        f"solve={solve_ms:.1f} ms",
        failures,
    )


def test_c2_two_bus_closed_form_and_directions():
    case = load_case(builtin_path("twobus.grid"))
    net = case.network
    p_load, q_load = net.load_vectors()
    sol = solve(net, InjectionSet.from_loads(p_load, q_load))
    br = net.branches[0]

    fwd = TwoBusState.from_impedance(
        sol.v_mag[0], sol.v_mag[1], sol.v_ang[0], sol.v_ang[1], br.resistance, br.reactance
    )
    rev = TwoBusState.from_impedance(
        sol.v_mag[1], sol.v_mag[0], sol.v_ang[1], sol.v_ang[0], br.resistance, br.reactance
    )
    p12, _ = transfer_power_general(fwd)
    p21, q21 = transfer_power_general(rev)

    failures = []
    if not sol.converged:
        failures.append("two-bus case did not converge")
    # Power leaving the load bus toward the source must mirror the load.
    if abs(p21 + p_load[1]) > 1e-7:
        failures.append(f"closed-form P at load bus off by {abs(p21 + p_load[1]):.2e}")
    if abs(q21 + q_load[1]) > 1e-7:
        failures.append(f"closed-form Q at load bus off by {abs(q21 + q_load[1]):.2e}")
    if abs((p12 + p21) - sol.total_losses) > 1e-8:
        failures.append("sending/receiving powers do not close on line losses")

    # Direction rules on a lossless line: angle order decides active flow,
    # magnitude order decides reactive flow (small-angle regime).
    rng = np.random.default_rng(2024)
    checked = 0
    mismatches = 0
    worst_form_gap = 0.0
    while checked < 100:
        v1, v2 = rng.uniform(0.95, 1.05, size=2)
        d1, d2 = rng.uniform(-0.05, 0.05, size=2)
        if abs(v1 - v2) < 0.01 or abs(d1 - d2) < 0.001:
            continue
        checked += 1
        state = TwoBusState(v1=v1, v2=v2, delta1=d1, delta2=d2, z_mag=0.08, gamma=math.pi / 2)
        p_line, q_line = transfer_power_reactive_line(state)
        p_gen, q_gen = transfer_power_general(state)
        worst_form_gap = max(worst_form_gap, abs(p_line - p_gen), abs(q_line - q_gen))
        active, reactive = classify_direction(state)
        expect_p = FlowDirection.FORWARD if p_line > 0 else FlowDirection.REVERSE
        expect_q = FlowDirection.FORWARD if q_line > 0 else FlowDirection.REVERSE
        if active is not expect_p or reactive is not expect_q:
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/100 direction classifications disagree with flow signs")
    if worst_form_gap > 1e-12:
        failures.append(f"general/lossless formulas disagree by {worst_form_gap:.2e}")
    _finish(
        "criterion 2: two-bus closed form",
        f"|dP|={abs(p21 + p_load[1]):.2e}, |dQ|={abs(q21 + q_load[1]):.2e}, "
        f"direction sweep 100/100",
        failures,
    )


def test_c3_capability_region_sampling():
    flat = tuple([0.0] * 24)
    rng = np.random.default_rng(42)
    failures = []
    worst_slack = 0.0
    degenerate = 0
    overshoot_misses = 0
    for _ in range(1000):
        s_rated = rng.uniform(0.2, 2.0)
        p_now = rng.uniform(0.0, 1.0) * s_rated
        v_bus = rng.uniform(0.95, 1.05)
        x_c = rng.uniform(0.01, 0.1)
        vc = rng.uniform(1.05, 1.3)
        dev = PvUnit(bus=2, s_rated=s_rated, p_profile=flat, x_coupling=x_c, vc_max=vc)
        cap = q_capability(dev, p_now, v_bus)
        if not cap.feasible:
            continue
        for q in np.linspace(cap.q_min, cap.q_max, 7):
            worst_slack = max(worst_slack, capability_violation(dev, p_now, q, v_bus))
        if cap.q_max > 1e-4:
            if not capability_violation(dev, p_now, 1.001 * cap.q_max, v_bus) > 0.0:
                overshoot_misses += 1
        else:
            degenerate += 1
    if worst_slack > 1e-9:
        failures.append(f"in-interval slack {worst_slack:.2e} > 1e-9")
    if overshoot_misses:
        failures.append(f"{overshoot_misses} samples accepted q_max*1.001")
    if degenerate > 50:
        failures.append(f"{degenerate} degenerate intervals; sampling box too tight")
    _finish(
        "criterion 3: converter capability region",
        f"1000 samples, worst slack={worst_slack:.2e}, degenerate={degenerate}",
        failures,
    )


def test_c4_scenario_ordering(bundle):
    net = bundle.case.network
    days = {}
    t0 = time.perf_counter()
    for mode in MODES:
        scenario = Scenario(mode=mode, load_profile_id="load-weekday")
        evaluator = DayEvaluator(net, bundle.devices, bundle.profiles, scenario)
        days[mode] = evaluator.hours()
    elapsed = time.perf_counter() - t0

    failures = []
    for hour in range(24):
        s_none = days["none"].score[hour]
        s_dgq = days["dgq"].score[hour]
        s_both = days["dgq+v2gq"].score[hour]
        if s_both > s_dgq + 1e-12:
            failures.append(f"hour {hour}: dgq+v2gq score {s_both:.9f} > dgq {s_dgq:.9f}")
        if s_dgq > s_none + 1e-12:
            failures.append(f"hour {hour}: dgq score {s_dgq:.9f} > none {s_none:.9f}")

    vmin = {
        mode: float(np.abs(days[mode].v[days[mode].live]).min())
        for mode in MODES
    }
    if vmin["none"] > vmin["dgq"] + 1e-12:
        failures.append(f"min voltage: none {vmin['none']:.6f} > dgq {vmin['dgq']:.6f}")
    if vmin["dgq"] > vmin["dgq+v2gq"] + 1e-12:
        failures.append(
            f"min voltage: dgq {vmin['dgq']:.6f} > dgq+v2gq {vmin['dgq+v2gq']:.6f}"
        )
    if elapsed >= 30.0:
        failures.append(f"three scenarios took {elapsed:.1f} s >= 30 s")
    _finish(
        "criterion 4: scenario ordering",
        f"scores ordered all 24 h; min V {vmin['none']:.5f}/"
        f"{vmin['dgq']:.5f}/{vmin['dgq+v2gq']:.5f} pu; {elapsed:.1f} s",
        failures,
    )


def test_c5_optimizer_soundness(bundle, siv_scenario, full_search):
    net = bundle.case.network
    failures = []

    # Small enough to enumerate: one lot over eight candidate buses.  The
    # search must land exactly on the enumerated optimum for every seed.
    lots = [d for d in bundle.devices if isinstance(d, PevLot)]
    one_lot = [d for d in bundle.devices if not isinstance(d, PevLot)] + [lots[0]]
    small_eval = DayEvaluator(net, one_lot, bundle.profiles, siv_scenario)
    truth = min(
        small_eval.evaluate((bus,)).breakdown.scalar for bus in CANDIDATE_8
    )
    missed = []
    for seed in range(10):
        params = GaParams(
            population=8,
            generations=12,
            mutation_rate=0.3,
            seed=seed,
            n_lots=1,
            candidates=CANDIDATE_8,
        )
        res = optimize_placement(
            net, one_lot, bundle.profiles, siv_scenario, params, evaluator=small_eval
        )
        if res.best_breakdown.scalar != truth:
            missed.append(seed)
    if missed:
        failures.append(f"seeds {missed} missed the enumerated optimum {truth:.6f}")

    # Full-size run must beat (or tie) the best of 200 random placements.
    ga_scalar = full_search.result.best_breakdown.scalar
    for seed, baseline in full_search.baselines.items():
        if ga_scalar > baseline:
            failures.append(
                f"search scalar {ga_scalar:.6f} worse than random baseline "
                f"{baseline:.6f} (seed {seed})"
            )
    if full_search.t_total >= 600.0:
        failures.append(f"full comparison took {full_search.t_total:.0f} s >= 600 s")
    _finish(
        "criterion 5: optimizer soundness",
        f"10/10 seeds match enumeration ({truth:.5f}); full run "
        f"{ga_scalar:.5f} <= random {min(full_search.baselines.values()):.5f}; "
        f"{full_search.t_total:.0f} s",
        failures,
    )


def test_c6_objective_arithmetic(full_search):
    failures = []
    if Scenario().weights != (0.6, 0.1, 0.3):
        failures.append(f"default weights {Scenario().weights} != (0.6, 0.1, 0.3)")

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        v_dev, loss, cost = rng.uniform(0.0, 10.0, size=3)
        weights = tuple(rng.uniform(0.0, 2.0, size=3))
        expected = weights[0] * v_dev + weights[1] * loss + weights[2] * cost
        worst = max(worst, abs(combine(v_dev, loss, cost, weights) - expected))
    if worst > 1e-12:
        failures.append(f"randomized recomposition off by {worst:.2e}")

    # Real evaluations must decompose the same way, archive rows included.
    weights = full_search.weights
    best = full_search.result.best_breakdown
    gap = abs(best.scalar - combine(best.v_dev, best.loss, best.cost, weights))
    archive_entries = full_search.result.archive.entries
    worst_archive = max(
        (
            abs(e.scalar - combine(e.v_dev, e.loss, e.cost, weights))
            for e in archive_entries
        ),
        default=0.0,
    )
    if gap > 1e-12:
        failures.append(f"best breakdown recomposition off by {gap:.2e}")
    if worst_archive > 1e-12:
        failures.append(f"archive recomposition off by {worst_archive:.2e}")
    _finish(
        "criterion 6: objective arithmetic",
        f"500 random triples and {len(archive_entries)} archive rows "
        f"recompose within 1e-12",
        failures,
    )


def _dominates_min(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _peel_fronts(objs):
    """Quadratic reference front peeling, independent of the library sort."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(_dominates_min(objs[j], objs[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        kept = set(front)
        remaining = [i for i in remaining if i not in kept]
    return fronts


def test_c7_selection_internals(full_search):
    rng = np.random.default_rng(11)
    failures = []
    mismatched = 0
    for k in range(500):
        n = int(rng.integers(1, 65))
        if k % 2:
            objs = [tuple(float(v) for v in row) for row in rng.integers(0, 5, size=(n, 3))]
        else:
            objs = [tuple(float(v) for v in row) for row in rng.random((n, 3))]
        got = [sorted(front) for front in nondominated_sort(objs)]
        if got != _peel_fronts(objs):
            mismatched += 1
    if mismatched:
        failures.append(f"{mismatched}/500 populations sorted differently than oracle")

    history = full_search.result.history
    drops = [
        (i, history[i], history[i + 1])
        for i in range(len(history) - 1)
        if history[i + 1] > history[i] + 1e-12
    ]
    if drops:
        failures.append(f"best-so-far scalar increased at generations {drops[:3]}")
    if abs(history[-1] - full_search.result.best_breakdown.scalar) > 1e-12:
        failures.append("history tail disagrees with reported best")
    _finish(
        "criterion 7: selection internals",
        f"500 populations match reference sort; best-so-far non-increasing over "
        f"{len(history) - 1} generations",
        failures,
    )


def test_c8_full_scale_run(bundle, full_search):
    net = bundle.case.network
    res = full_search.result
    buses = res.best_genome.lot_buses
    failures = []
    if len(buses) != 2 or len(set(buses)) != 2:
        failures.append(f"expected two distinct sites, got {buses}")
    if net.slack_id in buses:
        failures.append("a lot landed on the slack bus")
    if any(b not in net.bus_ids() for b in buses):
        failures.append(f"sites {buses} are not all in the network")
    if not res.best_breakdown.feasible:
        failures.append("best placement violates operating limits")
    if res.best_breakdown.scalar > min(full_search.baselines.values()):
        failures.append("full run does not dominate the random baseline")
    # The winning sites depend on the bundled load/PV shapes, so their
    # identity is deliberately not pinned here - only structural properties.
    _finish(
        "criterion 8: full-scale placement run",
        f"sites {buses[0]} and {buses[1]}, scalar "
        f"{res.best_breakdown.scalar:.5f}, {res.evaluations} evaluations, "
        f"{full_search.t_ga:.0f} s",
        failures,
    )


def test_c8_full_run_finds_the_enumerated_optimum(full_search, siv_scenario):
    # the enumeration of all 496 two-lot days ranks feasible first, then by
    # scalar, the order the search's best follows
    optimum = json.loads(GOLDEN_TABLE.read_text())["optima"][siv_scenario.mode]
    res = full_search.result
    best = res.best_breakdown
    failures = []
    if res.best_genome.lot_buses != tuple(optimum["lot_buses"]):
        failures.append(f"sites {res.best_genome.lot_buses} != enumerated "
                        f"{tuple(optimum['lot_buses'])}")
    if best.feasible != optimum["feasible"]:
        failures.append(f"feasible {best.feasible} != enumerated {optimum['feasible']}")
    if not abs(best.scalar - optimum["scalar"]) <= 1e-6:
        failures.append(f"scalar {best.scalar:.6f} != enumerated {optimum['scalar']:.6f}")
    _finish(
        "criterion 8: enumerated optimum",
        f"sites {res.best_genome.lot_buses} at {best.scalar:.6f}; enumerated "
        f"{tuple(optimum['lot_buses'])} at {optimum['scalar']:.6f}",
        failures,
    )
