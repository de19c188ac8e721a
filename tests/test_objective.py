from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pevplan import dispatch, objective
from pevplan.devices import (
    HOURS,
    HourlyProfile,
    PevLot,
    PvUnit,
    capability_violation,
    q_capability,
)
from pevplan.dispatch import MODES, Scenario, dispatch_q
from pevplan.nsga import GaParams, optimize_placement
from pevplan.powerflow import PowerFlowError, _finish, _solver_arrays, check_limits, solve
from pevplan.sweep import solve_sweep
from pevplan.objective import (
    DayEvaluator,
    ObjectiveBreakdown,
    combine,
    place_lots,
)

from conftest import assert_row_is_hour, assert_same_hour, hour_injections, radial_feeders


@pytest.fixture(scope="module")
def day_eval(bus33, devices33, profiles33):
    sc = Scenario(mode="dgq", load_profile_id="load-weekday")
    return DayEvaluator(bus33.network, devices33, profiles33, sc)


def test_combine_hand_case():
    # 0.6*0.5 + 0.1*0.2 + 0.3*2.0 = 0.92 with the default weights
    assert combine(0.5, 0.2, 2.0, (0.6, 0.1, 0.3)) == pytest.approx(0.92, abs=1e-15)


def test_breakdown_vector():
    b = ObjectiveBreakdown(1.0, 2.0, 3.0, scalar=1.0, feasible=True)
    assert b.vector == (1.0, 2.0, 3.0)


# -- lot placement -----------------------------------------------------------


def test_place_lots_moves_in_ascending_order(bus33, devices33):
    placed = place_lots(devices33, (30, 5), bus33.network)
    lots = [d for d in placed if isinstance(d, PevLot)]
    assert [d.bus for d in lots] == [5, 30]
    # PVs keep their buses, original list untouched
    assert [d.bus for d in placed if not isinstance(d, PevLot)] == [
        d.bus for d in devices33 if not isinstance(d, PevLot)
    ]
    assert sorted(d.bus for d in devices33 if isinstance(d, PevLot)) == [19, 32]


def test_place_lots_rejects_bad_requests(bus33, devices33):
    net = bus33.network
    with pytest.raises(ValueError, match="duplicate lot buses"):
        place_lots(devices33, (7, 7), net)
    with pytest.raises(ValueError, match="slack"):
        place_lots(devices33, (1, 7), net)
    with pytest.raises(ValueError, match="not in network"):
        place_lots(devices33, (7, 99), net)
    with pytest.raises(ValueError, match="2 lots but 1"):
        place_lots(devices33, (7,), net)


# -- day evaluation ----------------------------------------------------------


def test_scalar_recomputes_from_parts(day_eval):
    day = day_eval.evaluate()
    b = day.breakdown
    again = combine(b.v_dev, b.loss, b.cost, day_eval.scenario.weights)
    assert abs(again - b.scalar) <= 1e-12
    assert b.scalar > 0


def test_terms_recompute_from_hourly_trail(day_eval):
    # the day's terms and each hour's score, from full solutions at the
    # hours' final voltages
    day = day_eval.hours()
    assert day.live.all() and day.v.shape == (HOURS, day_eval.net.n_bus)
    sols = [_finish(day_eval.net, day.v[h], int(day.iterations[h]), float(day.mismatch[h]),
                    True) for h in range(HOURS)]
    v_dev = sum(float(np.sum(np.abs(1.0 - sol.v_mag))) for sol in sols)
    assert day.breakdown.v_dev == pytest.approx(v_dev, abs=1e-12)
    # one branch-current formula, summed in the same order: exact
    assert day.breakdown.loss == np.sum([sol.total_losses for sol in sols])
    a, b, _ = day_eval.scenario.weights
    for score, sol in zip(day.score.tolist(), sols):
        assert score == pytest.approx(a * float(np.sum(np.abs(1.0 - sol.v_mag)))
                                      + b * sol.total_losses, abs=1e-12)
    assert (day.score <= day.base_score).all()
    assert day_eval.evaluate().breakdown is day.breakdown  # hours() filled the cache


def test_cost_term_is_placement_independent(day_eval, devices33):
    base = day_eval.evaluate()
    moved = day_eval.evaluate((5, 22))
    lots = [d for d in devices33 if isinstance(d, PevLot)]
    expect = sum(d.n_pev * d.cost_per_pev for d in lots)
    assert base.breakdown.cost == pytest.approx(expect)
    assert moved.breakdown.cost == pytest.approx(expect)
    # but the grid-facing terms do change with the placement
    assert moved.breakdown.v_dev != pytest.approx(base.breakdown.v_dev, abs=1e-9)


def test_evaluator_memoizes(bus33, devices33, profiles33):
    sc = Scenario(mode="dgq", load_profile_id="load-weekday")
    ev = DayEvaluator(bus33.network, devices33, profiles33, sc)
    a = ev.evaluate((5, 22))
    b = ev.evaluate((22, 5))  # order is canonicalized
    # the cache holds the breakdown: a hit returns that very object
    assert a.breakdown is b.breakdown
    assert a.lot_buses == b.lot_buses == (5, 22)
    assert ev.stats.days == 1
    assert ev.cache_size == 1


def test_default_placement_does_not_depend_on_the_order_of_the_lots(bus33, devices33,
                                                                    profiles33):
    # a commuter lot at bus 19 and a lot of a fifth its charge at bus 7,
    # listed either way round: the default placement keeps each on its own
    # bus (listed as [19, 7], the lots' templates used to swap buses)
    pvs = [d for d in devices33 if not isinstance(d, PevLot)]
    commuter = next(d for d in devices33 if isinstance(d, PevLot) and d.bus == 19)
    small = PevLot(7, commuter.s_rated, tuple(0.2 * p for p in commuter.charge_profile))
    sc = Scenario(mode="none", load_profile_id="load-weekday")
    evs = [DayEvaluator(bus33.network, fleet, profiles33, sc)
           for fleet in (pvs + [commuter, small], pvs + [small, commuter])]
    for ev in evs:
        assert ev.devices == pvs + [small, commuter]
    assert evs[0].evaluate().breakdown == evs[1].evaluate().breakdown


def test_missing_load_profile_is_an_error(bus33, devices33, profiles33):
    sc = Scenario(mode="none", load_profile_id="no-such-shape")
    with pytest.raises(ValueError, match="no-such-shape"):
        DayEvaluator(bus33.network, devices33, profiles33, sc)


def test_constant_load_when_no_profile_named(bus33, devices33):
    sc = Scenario(mode="none")
    ev = DayEvaluator(bus33.network, devices33, None, sc)
    day = ev.hours()
    # every hour sees the same load, so only device profiles vary the state
    assert day.live.all()
    assert day.breakdown.scalar > 0


def test_infeasibility_reported_without_distorting_objective(
    bus33, devices33, profiles33
):
    # undispatched evening peak dips below the band: infeasible, but the
    # objective terms still carry their physical values
    sc = Scenario(mode="none", load_profile_id="load-weekday")
    b = DayEvaluator(bus33.network, devices33, profiles33, sc).evaluate().breakdown
    assert not b.feasible
    assert b.violation_penalty > 0
    assert b.scalar == pytest.approx(
        combine(b.v_dev, b.loss, b.cost, sc.weights), abs=1e-12
    )


def test_divergent_hour_is_penalised_and_the_rest_still_count(bus33, devices33,
                                                               profiles33):
    # twenty times the load at one hour: the block column and Newton both fail
    net = bus33.network
    bad = 5
    shape = list(profiles33["load-weekday"].values)
    shape[bad] = 20.0
    sc = Scenario(mode="none", load_profile_id="spiky")
    ev = DayEvaluator(net, devices33, {"spiky": HourlyProfile("spiky", shape)}, sc)
    day = ev.evaluate()
    stats = ev.stats
    assert (stats.newton_columns, stats.divergent_hours) == (1, 1)
    assert np.flatnonzero(ev.hours().live).tolist() == [h for h in range(HOURS) if h != bad]

    # the other 23 hours, each solved by Newton and checked on its own
    v_dev = loss = penalty = 0.0
    for hour in range(HOURS):
        if hour == bad:
            continue
        sol = solve(net, hour_injections(net, devices33, hour, load_scale=shape[hour]),
                    tol=1e-12)
        v_dev += float(np.abs(1.0 - sol.v_mag).sum())
        loss += sol.total_losses
        report = check_limits(net, sol)
        penalty += sum(abs(vv.v - vv.bound) for vv in report.voltage_violations)
        penalty += sum(tv.i - tv.i_cap for tv in report.thermal_violations)
        for dev in devices33:
            excess = capability_violation(dev, dev.p_at(hour), 0.0,
                                          float(sol.v_mag[net.index_of(dev.bus)]))
            penalty += excess if excess > 1e-9 else 0.0
    # the day's solves stop at a mismatch of 1e-10, which moves a day's sums
    # by about 1e-8; one hour more or less moves them by 1e-1
    bd = day.breakdown
    assert not bd.feasible
    assert bd.v_dev == pytest.approx(v_dev, abs=1e-7)
    assert bd.loss == pytest.approx(loss, abs=1e-7)
    assert bd.violation_penalty == pytest.approx(1e3 + penalty, abs=1e-7)


def test_failed_block_column_goes_alone_to_newton(bus33, devices33, profiles33,
                                                   monkeypatch):
    net = bus33.network
    forced = 19
    sc = Scenario(mode="dgq", load_profile_id="load-weekday")
    honest = DayEvaluator(net, devices33, profiles33, sc).evaluate().breakdown
    block = dispatch._fixed_point_block
    newton = dispatch._newton
    calls = []

    def one_column_fails(factor, s_pq, v, tol):
        # the base block starts every column flat; the dispatch's do not
        base = (v == 1.0).all()
        iterations, mismatch, converged = block(factor, s_pq, v, tol)
        if base:
            converged[forced] = False
        return iterations, mismatch, converged

    def counted(net_, inj, tol, v0):
        calls.append((inj, v0.copy()))
        return newton(net_, inj, tol, v0)

    monkeypatch.setattr(dispatch, "_fixed_point_block", one_column_fails)
    monkeypatch.setattr(dispatch, "_newton", counted)
    ev = DayEvaluator(net, devices33, profiles33, sc)
    bd = ev.evaluate().breakdown
    # one Newton solve, from a flat start, of that hour's injections alone
    # (Newton reads no slack entry)
    assert len(calls) == 1
    inj, v0 = calls[0]
    np.testing.assert_array_equal(v0, np.ones(net.n_bus))
    scale = profiles33["load-weekday"].values[forced]
    expect = hour_injections(net, devices33, forced, load_scale=scale)
    pq = _solver_arrays(net).fixed_point[0]
    np.testing.assert_array_equal(inj.p[pq], expect.p[pq])
    np.testing.assert_array_equal(inj.q[pq], expect.q[pq])
    stats = ev.stats
    assert (stats.newton_columns, stats.divergent_hours) == (1, 0)
    assert stats.newton_fallbacks == 0
    assert stats.block_columns == HOURS
    assert bd.feasible == honest.feasible
    for field in ("v_dev", "loss", "scalar", "violation_penalty"):
        assert getattr(bd, field) == pytest.approx(getattr(honest, field), abs=1e-9)


def test_newton_column_trail_carries_newtons_solve(bus33, devices33, profiles33,
                                                   monkeypatch):
    # an undispatched hour's trail entry is built from the day's voltage,
    # iteration and mismatch columns, into which Newton writes its own
    forced = 19
    block = dispatch._fixed_point_block
    newton = dispatch._newton
    solved = []

    def one_column_fails(factor, s_pq, v, tol):
        iterations, mismatch, converged = block(factor, s_pq, v, tol)
        converged[forced] = False
        return iterations, mismatch, converged

    def recorded(*args):
        solved.append(newton(*args))
        return solved[-1]

    monkeypatch.setattr(dispatch, "_fixed_point_block", one_column_fails)
    monkeypatch.setattr(dispatch, "_newton", recorded)
    sc = Scenario(mode="none", load_profile_id="load-weekday")
    day = DayEvaluator(bus33.network, devices33, profiles33, sc).hours()
    (sol,) = solved
    assert sol.converged and day.live[forced]
    np.testing.assert_array_equal(day.v[forced], sol.v_complex)
    assert (day.iterations[forced], day.mismatch[forced]) == (sol.iterations,
                                                              sol.max_mismatch)
    score = float(dispatch._scores(sc, _solver_arrays(bus33.network).branches, sol.v_complex))
    assert day.score[forced] == day.base_score[forced] == score


def fail_the_recheck_at(hour_to_fail, monkeypatch):
    """Make the capability recheck of hour ``hour_to_fail`` solve (it enters
    with a stale state) and fail that solve: its column fails the kernel and
    then Newton.  Returns the recheck requests ``(s_pq, start)`` of that hour
    and the starts of the Newton solves made to fail, as two lists.  Only a
    pending request fails: a trial at the setpoint the search started from
    is the same column as the recheck that follows it."""
    recheck, block = dispatch._recheck_capability, dispatch._fixed_point_block
    newton = dispatch._newton
    requests, failed, pending = [], [], []

    def stale_at_hour(hr, participants, q, state, score, infeasible, stale):
        hour = hr.hour
        steps = recheck(hr, participants, q, state, score, infeasible,
                        stale or hour == hour_to_fail)
        reply = None
        while True:
            try:
                request = steps.send(reply)
            except StopIteration as done:
                return done.value
            if hour == hour_to_fail:
                requests.append(tuple(a.copy() for a in request))
                pending.append(requests[-1])
            reply = yield request
            pending.clear()

    def is_request(s_pq, start):
        return any(np.array_equal(s_pq, s) and np.array_equal(start, v) for s, v in pending)

    def recheck_fails(factor, s_pq, v, tol):
        starts = v.copy()
        iterations, mismatch, converged = block(factor, s_pq, v, tol)
        for j in range(s_pq.shape[1]):
            converged[j] &= not is_request(s_pq[:, j], starts[:, j])
        return iterations, mismatch, converged

    def newton_fails(net_, inj, tol, v0):
        pq = _solver_arrays(net_).fixed_point[0]
        if is_request(inj.p[pq] + 1j * inj.q[pq], v0):
            failed.append(v0.copy())
            raise PowerFlowError("forced recheck failure")
        return newton(net_, inj, tol, v0)

    monkeypatch.setattr(dispatch, "_recheck_capability", stale_at_hour)
    monkeypatch.setattr(dispatch, "_fixed_point_block", recheck_fails)
    monkeypatch.setattr(dispatch, "_newton", newton_fails)
    return requests, failed


def test_failed_dispatch_reverts_the_hour_to_its_base_column(bus33, devices33,
                                                             profiles33, monkeypatch):
    # a failed recheck solve is not retried and its hour is not dropped: the
    # hour keeps its converged base column with every Q at 0, and is
    # counted.  Hour 19's recheck solve fails inside the lockstep, on the
    # kernel and then on Newton, so that hour alone reverts.
    net, bad = bus33.network, 19
    none_day = DayEvaluator(net, devices33, profiles33,
                            Scenario(mode="none", load_profile_id="load-weekday")).hours()
    requests, failed = fail_the_recheck_at(bad, monkeypatch)
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    ev = DayEvaluator(net, devices33, profiles33, sc)
    day = ev.evaluate()
    # the hour's one recheck solve failed, from the recheck's own start
    ((_, start),) = requests
    np.testing.assert_array_equal(failed, [start])
    stats = ev.stats
    assert (stats.reverted_hours, stats.divergent_hours) == (1, 0)
    assert stats.hours_dispatched == HOURS and stats.newton_fallbacks == 1
    assert day.breakdown.violation_penalty < objective._DIVERGENT_HOUR_PENALTY

    hours = ev.hours()
    assert hours.live.all()
    assert len(failed) == 2  # hours() computed the day again
    assert hours.reverted[bad] and set(hours.q[:, bad].tolist()) == {0.0}
    assert hours.score[bad] == hours.base_score[bad] == none_day.score[bad]
    np.testing.assert_array_equal(hours.v[bad], none_day.v[bad])
    assert (hours.iterations[bad], hours.mismatch[bad]) == (none_day.iterations[bad],
                                                            none_day.mismatch[bad])
    assert np.flatnonzero(hours.reverted).tolist() == [bad]


def test_dispatch_q_reverts_on_a_failed_recheck_as_the_lockstep_does(
        bus33, devices33, profiles33, monkeypatch):
    # the same forced failure of hour 19's recheck solve: dispatch_q does
    # not raise but answers the hour with its base state, every Q at 0, as
    # the lockstep answered it, field for field
    net, bad = bus33.network, 19
    none_day = DayEvaluator(net, devices33, profiles33,
                            Scenario(mode="none", load_profile_id="load-weekday")).hours()
    _, failed = fail_the_recheck_at(bad, monkeypatch)
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    runs, lockstep = [], objective._dispatch_day

    def recorded(*args):
        runs.append((args[2], lockstep(*args)))
        return runs[-1][1]

    monkeypatch.setattr(objective, "_dispatch_day", recorded)
    DayEvaluator(net, devices33, profiles33, sc).evaluate()
    ((hours, results),) = runs
    placed, hour = hours[bad]
    assert hour == bad and results[bad].reverted
    alone = dispatch_q(net, placed, bad, sc,
                       load_scale=profiles33["load-weekday"].values[bad])
    assert len(failed) == 2  # the lockstep's recheck, then dispatch_q's
    assert alone.reverted and set(alone.q_settings.values()) == {0.0}
    np.testing.assert_array_equal(alone.solution.v_complex, none_day.v[bad])
    assert (alone.solution.iterations, alone.solution.max_mismatch) == (
        none_day.iterations[bad], none_day.mismatch[bad])
    assert alone.score == alone.base_score == none_day.score[bad]
    assert_same_hour(results[bad], alone, bad)


# -- the day's work counters -------------------------------------------------


def test_day_counters_repeat_exactly(bus33, devices33, profiles33):
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")

    keys = ((7, 29), (3, 17))

    def counters():
        ev = DayEvaluator(bus33.network, devices33, profiles33, sc)
        for key in keys:
            ev.evaluate(key)
        return replace(ev.stats, day_s=0.0)

    first = counters()
    assert first == counters()
    assert first.days == 2 and first.hours_dispatched == 2 * HOURS
    # every dispatch column is a trial or a recheck solve (an hour starts
    # from its solved base column), and an hour makes at most
    # _RECHECK_SOLVES recheck solves
    assert first.dispatch_columns == first.trials + first.recheck_solves
    assert first.recheck_solves <= first.hours_dispatched * dispatch._RECHECK_SOLVES
    ev = DayEvaluator(bus33.network, devices33, profiles33, sc)
    assert first.reverted_hours == sum(int(ev.hours(key).reverted.sum()) for key in keys)
    assert first.searches < first.trials and first.newton_fallbacks == 0
    assert first.dispatch_steps < first.dispatch_columns


def test_dispatch_iterations_are_the_kernels_on_the_lockstep_blocks(bus33, devices33,
                                                                   profiles33, monkeypatch):
    # DayStats.dispatch_iterations sums the kernel's iterations over the
    # blocks the lockstep hands it (not the day's base block), as a wrapper
    # of the kernel counts them, and repeats exactly on a fresh evaluator
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    block, day = dispatch._fixed_point_block, objective._dispatch_day
    wrapped, dispatching = [0], [False]

    def counted_block(factor, s_pq, v, tol):
        out = block(factor, s_pq, v, tol)
        wrapped[0] += int(out[0].sum()) if dispatching[0] else 0
        return out

    def counted_day(*args):
        dispatching[0] = True
        try:
            return day(*args)
        finally:
            dispatching[0] = False

    monkeypatch.setattr(dispatch, "_fixed_point_block", counted_block)
    monkeypatch.setattr(objective, "_dispatch_day", counted_day)
    counts = []
    for _ in range(2):
        wrapped[0] = 0
        ev = DayEvaluator(bus33.network, devices33, profiles33, sc)
        ev.evaluate((7, 29))
        counts.append((ev.stats.dispatch_iterations, wrapped[0]))
    assert counts[0] == counts[1] and counts[0][0] == counts[0][1]
    assert ev.stats.dispatch_iterations > ev.stats.dispatch_columns > 0


def test_day_searches_equal_those_of_its_hours_run_serially(bus33, devices33, profiles33,
                                                             monkeypatch):
    # the lockstep runs each hour's searches as dispatch_q runs them alone
    # from a flat start, counted by wrapping the serial Brent
    net, key = bus33.network, (3, 17)
    shape = profiles33["load-weekday"].values
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    ev = DayEvaluator(net, devices33, profiles33, sc)
    ev.evaluate(key)
    nfev = []
    brent = dispatch.minimize_scalar

    def counted(*args):
        res = brent(*args)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(dispatch, "minimize_scalar", counted)
    placed = place_lots(devices33, key, net)
    for hour in range(HOURS):
        dispatch_q(net, placed, hour, sc, load_scale=shape[hour])
    assert (ev.stats.searches, ev.stats.trials) == (len(nfev), sum(nfev))


def test_day_searches_of_the_traced_benchmark_placements(bus33, devices33, profiles33):
    # the first four day-v2g placements of benchmark seed 1; its traced run
    # counted 1,974 Brent searches and 13,292 nfev on them by wrapping
    # dispatch.minimize_scalar when each hour was dispatched serially
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    ev = DayEvaluator(bus33.network, devices33, profiles33, sc)
    for key in ((7, 30), (17, 19), (25, 26), (24, 28)):
        ev.evaluate(key)
    assert (ev.stats.searches, ev.stats.trials) == (1974, 13292)
    # the day's other work, recorded at 027b56f: a faster step must do
    # the same work in the same steps
    st = ev.stats
    assert (st.block_iterations, st.dispatch_steps, st.dispatch_columns,
            st.dispatch_iterations, st.newton_fallbacks, st.penalty_trials) == (
        599, 1146, 13292, 54281, 0, 0)


# float.hex of v_dev, loss and scalar, feasible, and float.hex of the
# violation penalty, recorded at 027b56f.  A change that moves these
# numbers on purpose records them again and says so.
GOLDEN_DAYS = {
    "none": {
        (7, 29): ("0x1.12a95d1dc5c6cp+4", "0x1.c27f8e5c00be0p-4", "0x1.838bbc736621ep+3",
                  False, "0x1.116216dda443ep-2"),
        (3, 17): ("0x1.13b5aa3aab002p+4", "0x1.b8b83d652a3e1p-4", "0x1.84cbbdec47d56p+3",
                  False, "0x1.945ad5e9aff8cp-2"),
        (12, 25): ("0x1.0f1db7facea22p+4", "0x1.baa95af1c8800p-4", "0x1.7f48fea58eb76p+3",
                   False, "0x1.f9046147a6880p-3"),
    },
    "dgq": {
        (7, 29): ("0x1.dcc34f391f506p+2", "0x1.8144660a3f83ep-4", "0x1.91dc17b17d499p+2",
                  True, "0x0.0p+0"),
        (3, 17): ("0x1.d592ddd80ea0ep+2", "0x1.77bc94ae2414ep-4", "0x1.8d8803bd1b3bcp+2",
                  True, "0x0.0p+0"),
        (12, 25): ("0x1.cab6482733734p+2", "0x1.7ace9b0b2675fp-4", "0x1.8704e45589baep+2",
                   True, "0x0.0p+0"),
    },
    "dgq+v2gq": {
        (7, 29): ("0x1.a1adf10173a22p+1", "0x1.2bce08f176878p-3", "0x1.e2e1a70f2e1eep+1",
                  True, "0x0.0p+0"),
        (3, 17): ("0x1.2c2f6448fca40p+2", "0x1.1f92e1d0ab86cp-3", "0x1.2835b1ad3e854p+2",
                  True, "0x0.0p+0"),
        (12, 25): ("0x1.fa816e69b608dp+1", "0x1.1220dda7ffc5fp-3", "0x1.0c0221d109cf4p+2",
                   True, "0x0.0p+0"),
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_DAYS))
def test_golden_days_are_bit_identical(bus33, devices33, profiles33, mode):
    ev = DayEvaluator(bus33.network, devices33, profiles33,
                      Scenario(mode=mode, load_profile_id="load-weekday"))
    for key, want in GOLDEN_DAYS[mode].items():
        bd = ev.evaluate(key).breakdown
        got = (bd.v_dev.hex(), bd.loss.hex(), bd.scalar.hex(), bd.feasible,
               bd.violation_penalty.hex())
        assert got == want, (mode, key)


@pytest.mark.parametrize("mode", ["none", "dgq+v2gq"])
def test_evaluation_order_does_not_matter(bus33, devices33, profiles33, mode):
    sc = Scenario(mode=mode, load_profile_id="load-weekday")

    def in_order(*keys):
        ev = DayEvaluator(bus33.network, devices33, profiles33, sc)
        return {key: ev.evaluate(key).breakdown for key in keys}

    # bit-identical: ObjectiveBreakdown compares its floats exactly
    assert in_order((7, 29), (3, 17)) == in_order((3, 17), (7, 29))


# -- a day does not depend on its batch ---------------------------------------


def placements_of(buses, n_lots: int, max_size: int):
    """Lists of placements of ``n_lots`` lots on ``buses``, repeats allowed."""
    return st.lists(st.permutations(buses).map(lambda p: tuple(sorted(p[:n_lots]))),
                    min_size=1, max_size=max_size)


def batch_independent(net, devices, profiles, placements, seed: int) -> None:
    """In every mode, a batch's breakdowns equal fresh one-at-a-time ones,
    and a search on an evaluator that already holds them returns what a
    search on a fresh evaluator returns."""
    n_lots = sum(isinstance(d, PevLot) for d in devices)
    params = GaParams(population=4, generations=2, seed=seed, n_lots=n_lots)
    for mode in MODES:
        sc = Scenario(mode=mode, load_profile_id="load-weekday")
        shared = DayEvaluator(net, devices, profiles, sc)
        batch = [day.breakdown for day in shared.evaluate_many(placements)]
        alone = [DayEvaluator(net, devices, profiles, sc).evaluate(key).breakdown
                 for key in placements]
        assert batch == alone, mode  # exact: ObjectiveBreakdown compares floats
        assert shared.stats.batches == -(-len(set(placements)) // objective._BATCH)
        fresh = optimize_placement(net, devices, profiles, sc, params)
        assert optimize_placement(net, devices, profiles, sc, params,
                                  evaluator=shared) == fresh, mode


@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_bus33_days_do_not_depend_on_their_batch(bus33, devices33, profiles33, data):
    net = bus33.network
    buses = [b for b in net.bus_ids() if b != net.slack_id]
    placements = data.draw(placements_of(buses, 2, 10), label="placements")
    batch_independent(net, devices33, profiles33, placements,
                      data.draw(st.integers(0, 2**31 - 1), label="seed"))


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_feeder_days_do_not_depend_on_their_batch(data):
    # 5–15 buses, a PV unit and 1–3 lots with hourly profiles, and an
    # hourly load shape
    net = data.draw(radial_feeders(5, 15), label="feeder")
    buses = [b.id for b in net.buses if b.kind != "slack"]
    n_lots = data.draw(st.integers(1, min(3, len(buses))), label="lots")

    def hourly(peak: float):
        return data.draw(st.lists(st.floats(0.0, peak), min_size=HOURS, max_size=HOURS))

    devices = [PvUnit(data.draw(st.sampled_from(buses), label="pv bus"), 0.02, hourly(0.02))]
    devices += [PevLot(bus, 0.03, hourly(0.03)) for bus in buses[:n_lots]]
    profiles = {"load-weekday": HourlyProfile(
        "load-weekday", data.draw(st.lists(st.floats(0.2, 1.5), min_size=HOURS,
                                           max_size=HOURS), label="load shape"))}
    placements = data.draw(placements_of(buses, n_lots, 12), label="placements")
    batch_independent(net, devices, profiles, placements,
                      data.draw(st.integers(0, 2**31 - 1), label="seed"))


# -- a day's hours on generated feeders ---------------------------------------


def converter_excess(dev, p: float, q: float, v: float) -> float:
    """The converter's squared overshoot of its rating circle p² + q² ≤ S²
    and its dc-link circle (q + V²/X)² + p² ≤ (Vc·V/X)², 0 inside both."""
    center, radius = v * v / dev.x_coupling, dev.vc_max * v / dev.x_coupling
    return max(p * p + q * q - dev.s_rated**2, (q + center) ** 2 + p * p - radius**2, 0.0)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_feeder_hours_solve_their_network(data):
    # 5–15 buses, a PV unit and 1–3 lots with hourly profiles, and an
    # hourly load shape, perhaps with one hour that diverges, in every mode.
    # Each live hour's voltages solve the network at that hour's setpoints
    # (Newton from a flat start and the sweep agree with them), the
    # breakdown recomputes from those solutions, check_limits and the
    # converters' circles (checked against q_capability), and every row is
    # its hour as the day computed it: a dispatched hour the lockstep's
    # result, any other hour its base-block column with every Q at 0
    net = data.draw(radial_feeders(5, 15), label="feeder")
    buses = [b.id for b in net.buses if b.kind != "slack"]
    n_lots = data.draw(st.integers(1, min(3, len(buses))), label="lots")

    def hourly(peak: float):
        return data.draw(st.lists(st.floats(0.0, peak), min_size=HOURS, max_size=HOURS))

    size = data.draw(st.floats(0.03, 0.3), label="lot size")
    # a dc-link limit near 1 pu leaves Q = 0 outside some hours' intervals
    vc = data.draw(st.floats(0.95, 1.1), label="vc_max")
    devices = [PvUnit(data.draw(st.sampled_from(buses), label="pv bus"), 0.02, hourly(0.02),
                      vc_max=vc)]
    devices += [PevLot(bus, size, hourly(size), vc_max=vc) for bus in buses[:n_lots]]
    shape = data.draw(st.lists(st.floats(0.2, 3.0), min_size=HOURS, max_size=HOURS),
                      label="load shape")
    # perhaps one hour whose load no solver can carry
    shape[data.draw(st.integers(0, HOURS - 1), label="spike hour")] *= data.draw(
        st.sampled_from((1.0, 1e3)), label="spike")
    profiles = {"load-weekday": HourlyProfile("load-weekday", shape)}
    key = data.draw(st.permutations(buses).map(lambda p: tuple(sorted(p[:n_lots]))),
                    label="placement")
    lockstep, base_block = objective._dispatch_day, objective._solve_block
    for mode in MODES:
        sc = Scenario(mode=mode, load_profile_id="load-weekday")
        a, b, _ = sc.weights
        runs, blocks = [], []

        def recorded(net_, scenario, hours, s_pq, base, stats):
            results = lockstep(net_, scenario, hours, s_pq, base, stats)
            runs.append(dict(zip((hour for _, hour in hours), results)))
            return results

        def recorded_block(net_, s_pq, v, tol):
            solved = base_block(net_, s_pq, v, tol)
            blocks.append((v.copy(), solved.iterations.copy(), solved.mismatch.copy()))
            return solved

        ev = DayEvaluator(net, devices, profiles, sc)
        with mock.patch.object(objective, "_dispatch_day", recorded), \
                mock.patch.object(objective, "_solve_block", recorded_block):
            day = ev.hours(key)
        placed = place_lots(ev.devices, key, net)
        live = np.flatnonzero(day.live).tolist()
        results = runs[0] if runs else {}
        assert ev.stats.hours_dispatched == (len(live) if mode != "none" else 0), mode
        assert sorted(results) == (live if mode != "none" else []), mode

        ((base_v, base_iterations, base_mismatch),) = blocks
        v_dev = loss = penalty = 0.0
        feasible = len(live) == HOURS
        for hour in live:
            where = (mode, hour)
            result = results.get(hour)
            if result is None:  # not dispatched (mode none)
                np.testing.assert_array_equal(day.v[hour], base_v[:, hour], err_msg=str(where))
                assert (day.iterations[hour], day.mismatch[hour]) == (
                    base_iterations[hour], base_mismatch[hour]), where
                assert not day.q[:, hour].any(), where
                assert day.score[hour] == day.base_score[hour], where
                assert day.reverted[hour] == (mode != "none"), where
            else:
                assert_row_is_hour(day, hour, placed, result, where)

            setpoints = dict(zip((dev.label for dev in placed), day.q[:, hour].tolist()))
            inj = hour_injections(net, placed, hour, setpoints, load_scale=shape[hour])
            sol = solve(net, inj, tol=1e-10)
            for other in (sol, solve_sweep(net, inj, tol=1e-11)):
                assert np.abs(other.v_complex - day.v[hour]).max() <= 1e-8, where
            v_mag = sol.v_mag
            v_dev += float(np.abs(sc.v_ref - v_mag).sum())
            loss += sol.total_losses
            assert day.score[hour] == pytest.approx(
                a * float(np.abs(sc.v_ref - v_mag).sum()) + b * sol.total_losses,
                abs=1e-8), where
            report = check_limits(net, sol)
            feasible &= report.ok
            penalty += sum(abs(vv.v - vv.bound) for vv in report.voltage_violations)
            penalty += sum(tv.i - tv.i_cap for tv in report.thermal_violations)
            for dev in placed:
                p, q = dev.p_at(hour), setpoints[dev.label]
                v_bus = float(v_mag[net.index_of(dev.bus)])
                excess = converter_excess(dev, p, q, v_bus)
                cap = q_capability(dev, p, v_bus)
                if cap.contains(q):
                    assert excess <= 1e-12, where
                elif not cap.contains(q, tol=1e-6):
                    assert excess > 0.0, where
                feasible &= excess <= 1e-9
                penalty += excess if excess > 1e-9 else 0.0
        penalty += objective._DIVERGENT_HOUR_PENALTY * (HOURS - len(live))
        # the day's solves stop at a mismatch of 1e-10, which moves a day's
        # sums by about 1e-8
        bd = day.breakdown
        assert bd.v_dev == pytest.approx(v_dev, abs=1e-7), mode
        assert bd.loss == pytest.approx(loss, abs=1e-7), mode
        assert bd.violation_penalty == pytest.approx(penalty, abs=1e-7), mode
        assert bd.feasible == feasible, mode
        assert ev.evaluate(key).breakdown is bd


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_feeder_day_counters_add_up(data):
    # 5–15 buses, a PV unit and 1–3 lots, perhaps one hour that diverges;
    # in both dispatch modes, over a few placements on one evaluator, every
    # live hour is dispatched, the lockstep solves each Brent trial and
    # each recheck and nothing else, a Brent search asks for 1 to maxiter
    # points, and the reverted hours are those the days' hours report
    net = data.draw(radial_feeders(5, 15), label="feeder")
    buses = [b.id for b in net.buses if b.kind != "slack"]
    n_lots = data.draw(st.integers(1, min(3, len(buses))), label="lots")

    def hourly(peak: float):
        return data.draw(st.lists(st.floats(0.0, peak), min_size=HOURS, max_size=HOURS))

    size = data.draw(st.floats(0.03, 0.3), label="lot size")
    devices = [PvUnit(data.draw(st.sampled_from(buses), label="pv bus"), 0.02, hourly(0.02))]
    devices += [PevLot(bus, size, hourly(size)) for bus in buses[:n_lots]]
    shape = data.draw(st.lists(st.floats(0.2, 3.0), min_size=HOURS, max_size=HOURS),
                      label="load shape")
    shape[data.draw(st.integers(0, HOURS - 1), label="spike hour")] *= data.draw(
        st.sampled_from((1.0, 1e3)), label="spike")
    profiles = {"load-weekday": HourlyProfile("load-weekday", shape)}
    placements = data.draw(placements_of(buses, n_lots, 3), label="placements")
    for mode in ("dgq", "dgq+v2gq"):
        ev = DayEvaluator(net, devices, profiles,
                          Scenario(mode=mode, load_profile_id="load-weekday"))
        days = [ev.hours(key) for key in placements]
        stats = ev.stats
        assert stats.days == len(placements), mode
        assert stats.hours_dispatched == sum(int(day.live.sum()) for day in days), mode
        assert stats.dispatch_columns == stats.trials + stats.recheck_solves, mode
        assert stats.recheck_solves <= stats.hours_dispatched * dispatch._RECHECK_SOLVES, mode
        maxiter = dispatch._SEARCH_MAXITER
        assert stats.searches <= stats.trials <= stats.searches * maxiter, mode
        assert stats.reverted_hours == sum(int(day.reverted.sum()) for day in days), mode
        assert stats.reverted_hours <= stats.hours_dispatched, mode
