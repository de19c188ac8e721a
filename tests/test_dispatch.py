from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pevplan import dispatch, objective, powerflow
from pevplan.devices import HOURS, HourlyProfile, PevLot, PvUnit, q_capability
from pevplan.dispatch import (
    CAPABILITY_RECHECK_TOL,
    MODES,
    Scenario,
    canonical_mode,
    dispatch_q,
)
from pevplan.network import Branch, Bus, Network
from pevplan.objective import DayEvaluator, place_lots
from pevplan.powerflow import (
    _FIXED_POINT_MARGIN,
    InjectionSet,
    NonConvergence,
    SingularJacobian,
    _solver_arrays,
    solve,
)

from conftest import (
    assert_row_is_hour,
    assert_same_hour,
    hour_injections,
    radial_feeders,
    search_column,
    small_feeder,
)

PEAK_HOUR = 19


def flat_profile(level: float) -> tuple[float, ...]:
    return tuple(level for _ in range(HOURS))


def hour_of(net, devices, hour, sc, load_scale=1.0):
    """The dispatch's ``_Hour`` of ``hour``, on its zero-setpoint column."""
    s_base = dispatch._base_injections(net, [devices], [hour], [load_scale])[:, 0]
    return dispatch._Hour(net, devices, hour, sc, s_base)


def score_of(hr, v):
    """The dispatch score of one state of ``hr``."""
    return float(dispatch._scores(hr.scenario, hr.branches, v))


def own_score(sc, sol):
    """The dispatch score of a full solution, from its own ``v_mag`` and
    ``total_losses``: the oracle of ``dispatch._scores``."""
    a, b, _ = sc.weights
    return a * float(np.abs(sc.v_ref - sol.v_mag).sum()) + b * sol.total_losses


def support_devices():
    # one PV and one lot sized for the bundled feeder
    return [
        PvUnit(16, 0.05, flat_profile(0.02)),
        PevLot(30, 0.06, flat_profile(0.03), n_pev=60, cost_per_pev=0.05),
    ]


# -- configuration objects ---------------------------------------------------


def test_canonical_mode_accepts_aliases():
    assert canonical_mode("DGQ") == "dgq"
    assert canonical_mode("dgq-v2gq") == "dgq+v2gq"
    assert canonical_mode(" none ") == "none"
    with pytest.raises(ValueError, match="unknown scenario mode"):
        canonical_mode("all")


def test_scenario_validation():
    assert Scenario(mode="dgq-v2gq").mode == "dgq+v2gq"
    with pytest.raises(ValueError, match="three nonnegative"):
        Scenario(weights=(0.5, -0.1, 0.6))
    with pytest.raises(ValueError, match="three nonnegative"):
        Scenario(weights=(1.0, 1.0))
    with pytest.raises(ValueError, match="v_ref"):
        Scenario(v_ref=2.0)


def test_scenario_participation():
    devs = support_devices()
    assert Scenario(mode="none").participating(devs) == []
    dgq = Scenario(mode="dgq").participating(devs)
    assert [d.label for d in dgq] == ["pv@16"]
    both = Scenario(mode="dgq+v2gq").participating(devs)
    assert [d.label for d in both] == ["pv@16", "lot@30"]
    assert MODES == ("none", "dgq", "dgq+v2gq")


def test_hour_injections_signs(feeder4):
    devs = [
        PvUnit(2, 0.05, flat_profile(0.02)),
        PevLot(3, 0.06, flat_profile(0.03)),
    ]
    pq = _solver_arrays(feeder4).fixed_point[0]
    pos = {bus: int(np.flatnonzero(pq == feeder4.index_of(bus))[0]) for bus in (2, 3)}
    s = dispatch._base_injections(feeder4, [devs], [0], [1.0])[:, 0]
    p_load, q_load = (x[pq] for x in feeder4.load_vectors())
    # PV generation raises the net injection, lot charging lowers it
    assert s.real[pos[2]] == pytest.approx(-p_load[pos[2]] + 0.02)
    assert s.real[pos[3]] == pytest.approx(-p_load[pos[3]] - 0.03)
    np.testing.assert_allclose(s.imag, -q_load)

    hr = hour_of(feeder4, devs, 0, Scenario(), load_scale=0.5)
    s2 = hr.column({"pv@2": -0.01, "lot@3": 0.0})
    assert s2.real[pos[2]] == pytest.approx(-p_load[pos[2]] * 0.5 + 0.02)
    assert s2.imag[pos[2]] == pytest.approx(-q_load[pos[2]] * 0.5 + 0.01)

    # a setpoint for a device that is not there changes nothing
    s3 = hr.column({"pv@2": 0.0, "lot@3": 0.0, "lot@99": 1.0})
    np.testing.assert_array_equal(s3, hr.s_base)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_assembled_columns_and_scores_equal_their_oracles(data):
    # 1–3 devices, a PV and a lot sharing a bus (which may be the slack),
    # at random hours, load scales and setpoints: each hour's column with
    # its setpoints written in equals the bus-by-bus oracle bit for bit, and
    # each state's score, alone or as a row, the score of its full solution
    net = data.draw(radial_feeders(3, 20), label="feeder")
    buses = net.bus_ids()
    shared = data.draw(st.sampled_from(buses), label="shared bus")

    def hourly(peak):
        return data.draw(st.lists(st.floats(0.0, peak), min_size=HOURS, max_size=HOURS))

    devices = [PvUnit(shared, 0.02, hourly(0.02)), PevLot(shared, 0.03, hourly(0.03)),
               PvUnit(data.draw(st.sampled_from([b for b in buses if b != shared]),
                                label="third bus"), 0.02, hourly(0.02))]
    devices = devices[:data.draw(st.integers(1, 3), label="devices")]
    n = data.draw(st.integers(1, 4), label="hours")
    hours = data.draw(st.lists(st.integers(0, HOURS - 1), min_size=n, max_size=n))
    scales = data.draw(st.lists(st.floats(0.2, 1.5), min_size=n, max_size=n))
    weights = (data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0)), 0.3)
    sc = Scenario(weights=weights, v_ref=data.draw(st.floats(0.95, 1.05)))
    pq = _solver_arrays(net).fixed_point[0]
    s_pq = dispatch._base_injections(net, [devices], hours, scales)
    states, expected = [], []
    for i, (hour, scale) in enumerate(zip(hours, scales)):
        q = {dev.label: data.draw(st.floats(-0.02, 0.02), label=dev.label) for dev in devices}
        hr = dispatch._Hour(net, devices, hour, sc, s_pq[:, i])
        column = hr.column(q)
        inj = hour_injections(net, devices, hour, q, scale)
        np.testing.assert_array_equal(column.real, inj.p[pq])
        np.testing.assert_array_equal(column.imag, inj.q[pq])
        sol = solve(net, inj)
        expected.append(own_score(sc, sol))
        assert score_of(hr, sol.v_complex) == expected[-1]
        states.append(sol.v_complex)
    rows = dispatch._scores(sc, _solver_arrays(net).branches, np.array(states))
    assert rows.tolist() == expected


def test_scores_arithmetic(feeder4):
    sol = solve(feeder4, InjectionSet.from_loads(*feeder4.load_vectors()))
    sc = Scenario(weights=(2.0, 5.0, 0.3))
    expect = 2.0 * np.sum(np.abs(1.0 - sol.v_mag)) + 5.0 * sol.total_losses
    score = dispatch._scores(sc, _solver_arrays(feeder4).branches, sol.v_complex)
    assert float(score) == pytest.approx(expect, abs=1e-15)


# -- dispatch behaviour ------------------------------------------------------


def test_mode_none_keeps_everything_at_zero(bus33, profiles33, devices33):
    sc = Scenario(mode="none")
    res = dispatch_q(bus33.network, devices33, PEAK_HOUR, sc)
    assert all(v == 0.0 for v in res.q_settings.values())
    # the solution is the base state: it scores the base score
    branches = _solver_arrays(bus33.network).branches
    assert float(dispatch._scores(sc, branches, res.solution.v_complex)) == res.base_score
    assert res.score == res.base_score


def test_dispatch_never_hurts(bus33, devices33):
    for mode in ("dgq", "dgq+v2gq"):
        res = dispatch_q(bus33.network, devices33, PEAK_HOUR, Scenario(mode=mode))
        assert res.score <= res.base_score


def test_dispatch_helps_at_peak(bus33, devices33):
    # the bundled feeder sags at the evening peak, so PV vars must help
    res = dispatch_q(bus33.network, devices33, PEAK_HOUR, Scenario(mode="dgq"))
    base = dispatch_q(bus33.network, devices33, PEAK_HOUR, Scenario(mode="none"))
    assert res.score < res.base_score - 1e-4
    assert res.solution.v_min > base.solution.v_min


def test_staged_modes_are_ordered_per_hour(bus33, devices33):
    net = bus33.network
    scores = {
        mode: dispatch_q(net, devices33, PEAK_HOUR, Scenario(mode=mode)).score
        for mode in MODES
    }
    assert scores["dgq+v2gq"] <= scores["dgq"] + 1e-12
    assert scores["dgq"] <= scores["none"] + 1e-12


def test_undervoltage_draws_var_injection(bus33, devices33):
    # V < v_ref everywhere, so accepted setpoints generate vars (negative,
    # load-sign convention)
    res = dispatch_q(bus33.network, devices33, PEAK_HOUR, Scenario(mode="dgq+v2gq"))
    accepted = [v for v in res.q_settings.values() if v != 0.0]
    assert accepted, "expected at least one active setpoint at the peak"
    assert all(v < 0 for v in accepted)


def test_dispatch_respects_capability_at_final_voltages(bus33, devices33):
    net = bus33.network
    res = dispatch_q(net, devices33, PEAK_HOUR, Scenario(mode="dgq+v2gq"))
    for dev in devices33:
        q = res.q_settings[dev.label]
        v_bus = float(res.solution.v_mag[net.index_of(dev.bus)])
        cap = q_capability(dev, dev.p_at(PEAK_HOUR), v_bus)
        assert cap.contains(q, tol=1e-9)


def test_dispatch_is_deterministic(bus33, devices33):
    sc = Scenario(mode="dgq+v2gq")
    a = dispatch_q(bus33.network, devices33, PEAK_HOUR, sc)
    b = dispatch_q(bus33.network, devices33, PEAK_HOUR, sc)
    assert a.q_settings == b.q_settings
    assert a.score == b.score


def test_fully_loaded_converter_cannot_move():
    net = small_feeder(4)
    devs = [PvUnit(3, 0.02, flat_profile(0.02))]  # P = S all day
    res = dispatch_q(net, devs, 0, Scenario(mode="dgq"))
    assert res.q_settings["pv@3"] == 0.0


def test_infeasible_converter_is_parked_and_reported():
    net = small_feeder(4)
    # coupling reactance so large the dc-link circle excludes every Q
    weird = PvUnit(3, 0.01, flat_profile(0.009), x_coupling=150.0)
    sane = PvUnit(2, 0.05, flat_profile(0.01))
    res = dispatch_q(net, [weird, sane], 0, Scenario(mode="dgq"))
    assert "pv@3" in res.infeasible_devices
    assert res.q_settings["pv@3"] == 0.0
    assert res.score <= res.base_score


def test_dispatch_propagates_base_divergence(feeder4):
    devs = [PvUnit(2, 0.05, flat_profile(0.0))]
    with pytest.raises(NonConvergence):
        dispatch_q(feeder4, devs, 0, Scenario(mode="dgq"), load_scale=1e7)


def failing(block):
    """``block`` reporting every column unconverged, left where it stopped."""
    def failed(*args):
        iterations, mismatch, converged = block(*args)
        return iterations, mismatch, np.zeros_like(converged)
    return failed


def test_fixed_point_failure_falls_back_to_newton(bus33, devices33, monkeypatch):
    net = bus33.network
    sc = Scenario(mode="dgq+v2gq")
    honest = dispatch_q(net, devices33, PEAK_HOUR, sc)
    inj = hour_injections(net, devices33, PEAK_HOUR)
    # the fallback runs from the hour's own start, here the flat profile
    ref = solve(net, inj, tol=sc.pf_tol * _FIXED_POINT_MARGIN, v0=np.ones(net.n_bus))
    calls, nfev, rechecks = [], [], []
    kernel = failing(dispatch._fixed_point_block)
    newton = dispatch.solve
    brent = dispatch.minimize_scalar
    recheck = dispatch._recheck_capability

    def broken(*args):
        calls.append("kernel")
        return kernel(*args)

    def counted(*args, **kwargs):
        calls.append("newton")
        return newton(*args, **kwargs)

    def searched(*args, **kwargs):
        res = brent(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    def rechecked(*args, **kwargs):
        # the recheck yields its solves, which run while it is suspended
        before = len(calls)
        out = yield from recheck(*args, **kwargs)
        rechecks.append((len(calls) - before) // 2)
        return out

    monkeypatch.setattr(dispatch, "_fixed_point_block", broken)
    monkeypatch.setattr(dispatch, "solve", counted)
    monkeypatch.setattr(dispatch, "minimize_scalar", searched)
    monkeypatch.setattr(dispatch, "_recheck_capability", rechecked)
    res = dispatch_q(net, devices33, PEAK_HOUR, sc)
    # every solve of the hour, base, trial point or recheck, failed on the
    # kernel once and reached Newton once, through the module's ``solve``,
    # from the solve's own start
    solves = sum(nfev) + 1 + sum(rechecks)
    assert nfev and len(rechecks) == 1
    assert calls == ["kernel", "newton"] * solves
    # the hour's base state, run alone under the same failing kernel
    base = dispatch_q(net, devices33, PEAK_HOUR, replace(sc, mode="none"))
    assert base.base_score == res.base_score
    np.testing.assert_array_equal(base.solution.v_complex, ref.v_complex)
    assert base.solution.iterations == ref.iterations
    assert res.q_settings.keys() == honest.q_settings.keys()
    for label, q in honest.q_settings.items():
        assert res.q_settings[label] == pytest.approx(q, abs=1e-7)
    assert res.score == pytest.approx(honest.score, abs=1e-9)
    assert res.base_score == pytest.approx(honest.base_score, abs=1e-9)
    assert res.score < res.base_score - 1e-4


def test_trial_kernel_failure_falls_back_to_newton(bus33, devices33, monkeypatch):
    # the kernel fails only while a search runs: each trial point reaches
    # Newton once, the base and recheck solves keep the kernel
    net = bus33.network
    sc = Scenario(mode="dgq+v2gq")
    honest = dispatch_q(net, devices33, PEAK_HOUR, sc)
    calls, nfev = [], []
    searching = [False]
    kernel = dispatch._fixed_point_block
    newton = dispatch.solve
    brent = dispatch.minimize_scalar

    def flaky(*args):
        if not searching[0]:
            calls.append("outside")
            return kernel(*args)
        calls.append("kernel")
        return failing(kernel)(*args)

    def counted(*args, **kwargs):
        calls.append("newton")
        return newton(*args, **kwargs)

    def searched(*args, **kwargs):
        searching[0] = True
        try:
            res = brent(*args, **kwargs)
        finally:
            searching[0] = False
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(dispatch, "_fixed_point_block", flaky)
    monkeypatch.setattr(dispatch, "solve", counted)
    monkeypatch.setattr(dispatch, "minimize_scalar", searched)
    res = dispatch_q(net, devices33, PEAK_HOUR, sc)
    trials = [c for c in calls if c != "outside"]
    assert nfev and len(trials) == 2 * sum(nfev)
    assert trials == ["kernel", "newton"] * sum(nfev)
    assert calls.count("outside") >= 1  # the base solve ran the kernel
    assert res.q_settings.keys() == honest.q_settings.keys()
    for label, q in honest.q_settings.items():
        assert res.q_settings[label] == pytest.approx(q, abs=1e-7)
    assert res.score == pytest.approx(honest.score, abs=1e-9)
    assert res.base_score == pytest.approx(honest.base_score, abs=1e-9)
    assert res.score < res.base_score - 1e-4


def test_trial_absorbs_any_solver_failure(bus33, devices33, monkeypatch):
    # after the base solve the kernel fails and Newton raises
    # SingularJacobian: every trial scores the penalty, nothing moves, and
    # the hour completes at its base score
    net = bus33.network
    sc = Scenario(mode="dgq+v2gq")
    kernel = dispatch._fixed_point_block
    brent = dispatch.minimize_scalar
    kernel_calls, scored = [], []

    def fails_after_base(*args):
        kernel_calls.append(1)
        if len(kernel_calls) == 1:
            return kernel(*args)
        return failing(kernel)(*args)

    def singular(*args, **kwargs):
        raise SingularJacobian(1, 1e18)

    def recorded(fn, *args, **kwargs):
        def score(qv):
            scored.append(fn(qv))
            return scored[-1]
        return brent(score, *args, **kwargs)

    monkeypatch.setattr(dispatch, "_fixed_point_block", fails_after_base)
    monkeypatch.setattr(dispatch, "solve", singular)
    monkeypatch.setattr(dispatch, "minimize_scalar", recorded)
    res = dispatch_q(net, devices33, PEAK_HOUR, sc)
    assert scored and set(scored) == {dispatch._TRIAL_PENALTY}
    assert res.score == res.base_score
    assert not res.reverted
    assert all(q == 0.0 for q in res.q_settings.values())


def test_penalty_trials_count_the_trials_newton_fails_too(bus33, devices33, profiles33,
                                                          monkeypatch):
    # in the lockstep the kernel fails every column and Newton raises
    # SingularJacobian: every trial is answered with None, scores the
    # penalty and is counted, and the day still completes; an honest day
    # counts none
    net, key = bus33.network, (7, 29)
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    honest = DayEvaluator(net, devices33, profiles33, sc)
    honest.evaluate(key)
    assert honest.stats.penalty_trials == 0 < honest.stats.trials
    kernel, day = dispatch._fixed_point_block, objective._dispatch_day

    def singular(*args, **kwargs):
        raise SingularJacobian(1, 1e18)

    def failing_day(*args):
        with monkeypatch.context() as m:
            m.setattr(dispatch, "_fixed_point_block", failing(kernel))
            m.setattr(dispatch, "solve", singular)
            return day(*args)

    monkeypatch.setattr(objective, "_dispatch_day", failing_day)
    ev = DayEvaluator(net, devices33, profiles33, sc)
    hours = ev.hours(key)
    st = ev.stats
    assert st.penalty_trials == st.trials > 0
    assert st.newton_fallbacks == st.dispatch_columns
    # no move is accepted, so every hour ends at its base score
    np.testing.assert_array_equal(hours.score, hours.base_score)
    assert not hours.q.any()


def test_hour_solves_each_point_once(bus33, devices33, monkeypatch):
    # the base, every trial point and every recheck run the kernel once, as
    # a block of one column; an accepted move takes its trial's state, and
    # a full solution is built for the final state only
    kernel, finished, nfev, rechecks = [], [], [], []
    brent = dispatch.minimize_scalar
    recheck = dispatch._recheck_capability

    def counting(log, fn):
        def wrapped(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapped

    def searched(*args, **kwargs):
        res = brent(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    def rechecked(*args, **kwargs):
        # the recheck yields its solves, which run while it is suspended
        before = len(kernel)
        out = yield from recheck(*args, **kwargs)
        rechecks.append(len(kernel) - before)
        return out

    # counted in both modules, so that a full solve through powerflow counts too
    for module in (dispatch, powerflow):
        monkeypatch.setattr(module, "_fixed_point_block",
                            counting(kernel, module._fixed_point_block))
        monkeypatch.setattr(module, "_finish", counting(finished, module._finish))
    monkeypatch.setattr(dispatch, "minimize_scalar", searched)
    monkeypatch.setattr(dispatch, "_recheck_capability", rechecked)
    res = dispatch_q(bus33.network, devices33, PEAK_HOUR, Scenario(mode="dgq+v2gq"))
    assert res.score < res.base_score and not res.reverted
    assert len(kernel) == sum(nfev) + 1 + sum(rechecks)
    assert len(finished) == 1


def test_a_lockstep_day_builds_one_solution_an_hour_and_no_flows(bus33, devices33,
                                                                 profiles33, monkeypatch):
    # a dispatched hour builds the full solution of its final state alone,
    # and a day reads neither its sending-end flows nor its loss, so neither
    # is computed
    finished, runs, lockstep, finish = [], [], objective._dispatch_day, dispatch._finish

    def counted(*args, **kwargs):
        finished.append(1)
        return finish(*args, **kwargs)

    def recorded(*args):
        runs.append((args[2], lockstep(*args)))
        return runs[-1][1]

    monkeypatch.setattr(dispatch, "_finish", counted)
    monkeypatch.setattr(objective, "_dispatch_day", recorded)
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    DayEvaluator(bus33.network, devices33, profiles33, sc).evaluate()
    ((hours, results),) = runs
    assert len(finished) == len(results) == len(hours) > 0
    for res in results:
        assert not {"branch_flow_from", "total_losses"} & res.solution.__dict__.keys()


def spy_zero_fits(monkeypatch) -> list[bool]:
    """Record each verdict of ``dispatch._zero_fits``, the revert rule's
    test that Q = 0 lies in every interval at the base voltages."""
    verdicts, zero_fits = [], dispatch._zero_fits

    def spied(*args):
        verdicts.append(zero_fits(*args))
        return verdicts[-1]

    monkeypatch.setattr(dispatch, "_zero_fits", spied)
    return verdicts


def test_an_hour_that_settles_worse_reverts_where_zero_fits(monkeypatch):
    # bus 4's undispatched |V| is 0.998798, just below this PV's vc_max, so
    # Q = 0 lies in its interval at the base voltages; the recheck settles
    # on a state that scores worse, and the hour returns to its base
    net, pv, sc = small_feeder(4), PvUnit(4, 0.05, flat_profile(0.0), vc_max=0.9989), \
        Scenario(mode="dgq")
    base = dispatch_q(net, [pv], 0, replace(sc, mode="none"))
    verdicts = spy_zero_fits(monkeypatch)
    res = dispatch_q(net, [pv], 0, sc)
    assert verdicts == [True]  # asked only of a settled recheck that scored worse
    assert res.reverted and res.q_settings == {pv.label: 0.0}
    assert res.score == res.base_score == base.score
    np.testing.assert_array_equal(res.solution.v_complex, base.solution.v_complex)
    # the lockstep reverts every hour of the day the same way
    verdicts.clear()
    day = DayEvaluator(net, [pv], None, sc).hours(())
    assert verdicts == [True] * HOURS and day.reverted.all() and not day.q.any()
    np.testing.assert_array_equal(day.score, day.base_score)


def test_a_worse_settled_state_stands_where_zero_breaks_an_interval(monkeypatch):
    # vc_max below bus 4's undispatched |V| puts the PV's whole interval
    # below Q = 0 at the base voltages.  The recheck is made to settle at
    # the interval's far end, which scores worse than the base (no feeder
    # tried settles worse there by itself): the hour keeps that state
    net, pv, sc = small_feeder(4), PvUnit(4, 0.05, flat_profile(0.0), vc_max=0.9985), \
        Scenario(mode="dgq")
    base = dispatch_q(net, [pv], 0, replace(sc, mode="none")).solution
    assert q_capability(pv, 0.0, float(base.v_mag[net.index_of(4)])).q_max < 0.0

    def far_end(hr, participants, q, state, score, infeasible, stale):
        for dev in participants:
            q[dev.label] = hr.capability(dev, state[0]).q_min
        solved = yield hr.column(q), state[0]
        return solved, score_of(hr, solved[0])

    verdicts = spy_zero_fits(monkeypatch)
    monkeypatch.setattr(dispatch, "_recheck_capability", far_end)
    res = dispatch_q(net, [pv], 0, sc)
    assert verdicts == [False]
    assert not res.reverted and res.score > res.base_score
    assert res.q_settings[pv.label] == pytest.approx(-pv.s_rated, abs=1e-15)
    assert res.score == score_of(hour_of(net, [pv], 0, sc), res.solution.v_complex)
    ref = solve(net, hour_injections(net, [pv], 0, res.q_settings), tol=1e-10)
    np.testing.assert_allclose(res.solution.v_complex, ref.v_complex, rtol=0.0, atol=1e-7)
    # the lockstep keeps every hour of the day the same way
    verdicts.clear()
    day = DayEvaluator(net, [pv], None, sc).hours(())
    assert verdicts == [False] * HOURS and not day.reverted.any()
    assert (day.score > day.base_score).all()


@pytest.mark.parametrize("stalled_at, accepted", [(0.5, True), (1.0, True), (2.0, False)])
def test_a_newton_run_stalled_within_tol_is_accepted(feeder4, monkeypatch, stalled_at,
                                                     accepted):
    # the Newton fallback is held to tol / 100; a run that ends its
    # iterations with the mismatch in (tol / 100, tol] is accepted, as the
    # kernel accepts a stalled residual, and one above tol fails its column
    pf_tol = Scenario().pf_tol
    s_pq = dispatch._base_injections(feeder4, [[]], [0], [1.0])
    inj = dispatch._injection_set(feeder4, s_pq[:, 0])
    honest = solve(feeder4, inj, tol=pf_tol * _FIXED_POINT_MARGIN)

    def stalled(net, inj, tol, v0):
        raise NonConvergence("no convergence after 50 iterations",
                             replace(honest, max_mismatch=stalled_at * pf_tol, converged=False))

    monkeypatch.setattr(dispatch, "_fixed_point_block", failing(dispatch._fixed_point_block))
    monkeypatch.setattr(dispatch, "solve", stalled)
    v = np.ones((feeder4.n_bus, 1), dtype=complex)
    solved = dispatch._solve_block(feeder4, s_pq, v, pf_tol)
    assert solved.newton.tolist() == [0]
    if accepted:
        assert not solved.failed and solved.mismatch[0] == stalled_at * pf_tol
        np.testing.assert_array_equal(v[:, 0], honest.v_complex)
        sol = dispatch._newton(feeder4, inj, pf_tol, None)
        assert sol.converged and sol.total_losses == honest.total_losses
    else:
        assert isinstance(solved.failed[0], NonConvergence)


def test_wrong_factor_falls_back_to_newton(bus33, devices33, monkeypatch):
    # a Z off by 0.1% makes every kernel run settle on a wrong point; the
    # true-mismatch check refuses each one, so dispatch answers as Newton
    net = bus33.network
    sc = Scenario(mode="dgq")
    honest = dispatch_q(net, devices33, PEAK_HOUR, sc)
    arrays = _solver_arrays(net)
    pq, y_pq, z, w = arrays.fixed_point
    monkeypatch.setattr(arrays, "fixed_point", (pq, y_pq, z * 1.001, w))
    fallbacks = []
    newton = dispatch.solve

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(dispatch, "solve", counted)
    res = dispatch_q(net, devices33, PEAK_HOUR, sc)
    assert len(fallbacks) > 2
    assert res.solution.converged and res.solution.max_mismatch <= sc.pf_tol
    assert res.score == pytest.approx(honest.score, abs=1e-8)
    for label, q in honest.q_settings.items():
        assert res.q_settings[label] == pytest.approx(q, abs=1e-6)


def test_accepted_score_is_the_searched_score(bus33, devices33, monkeypatch):
    # an accepted move keeps the state its trial solved, so the hour's score
    # is exactly a minimum the search saw, also with a lot on the PV's bus
    found = []
    brent = dispatch.minimize_scalar

    def searched(*args, **kwargs):
        res = brent(*args, **kwargs)
        found.append(res.fun)
        return res

    monkeypatch.setattr(dispatch, "minimize_scalar", searched)
    pv = next(d for d in devices33 if isinstance(d, PvUnit))
    lot = next(d for d in devices33 if isinstance(d, PevLot))
    for devices in ([pv], [pv, lot.moved_to(pv.bus)]):
        found.clear()
        res = dispatch_q(bus33.network, devices, PEAK_HOUR, Scenario(mode="dgq+v2gq"))
        assert len(found) >= len(devices) and not res.reverted
        assert res.score < res.base_score
        assert res.score in found


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_trial_score_matches_newton_objective(bus33, devices33, data):
    # a trial solves one device's setpoint on the bare kernel from its
    # search's first-order start; its score must agree with the score of
    # Newton's full solution of the same injections
    # (solved to 1e-12: at pf_tol Newton's own stopping error reaches 4e-8)
    net = bus33.network
    sc = Scenario(mode="dgq+v2gq")
    base = solve(net, hour_injections(net, devices33, PEAK_HOUR))

    def setpoint(dev):
        cap = q_capability(dev, dev.p_at(PEAK_HOUR),
                           float(base.v_mag[net.index_of(dev.bus)]))
        return data.draw(st.floats(cap.q_min, cap.q_max), label=dev.label)

    settings_now = {dev.label: setpoint(dev) for dev in devices33}
    now = solve(net, hour_injections(net, devices33, PEAK_HOUR, settings_now))
    hr = hour_of(net, devices33, PEAK_HOUR, sc)
    for dev in sc.participating(devices33):
        qv = setpoint(dev)
        moved = dict(settings_now)
        moved[dev.label] = qv
        ref = solve(net, hour_injections(net, devices33, PEAK_HOUR, moved), tol=1e-12)
        cap = q_capability(dev, dev.p_at(PEAK_HOUR),
                           float(now.v_mag[net.index_of(dev.bus)]))
        hr.search(settings_now, dev, now.v_complex, cap)
        s_pq, start = hr.trials.columns([hr.lane], [qv])
        state = hr.solve(s_pq[0], start[0])
        assert score_of(hr, state[0]) == pytest.approx(own_score(sc, ref), abs=1e-8)


def test_gathered_trial_columns_equal_each_search_built_alone(bus33, devices33, profiles33,
                                                           monkeypatch):
    # each lockstep step gathers its trial columns from the hours' search
    # rows; every column must equal the one its search builds alone
    # (conftest.search_column, from the bus-by-bus injections) bit for bit.
    # On (7, 29) the lot on bus 7 shares its row with a PV unit, so the
    # order of that row's subtractions is checked too
    net, key = bus33.network, (7, 29)
    pq, _, z, _ = _solver_arrays(net).fixed_point
    shape = profiles33["load-weekday"].values
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    search, columns = dispatch._Hour.search, dispatch._Trials.columns
    running: dict[int, tuple] = {}
    checked, shared = [0], [0]

    def recorded_search(hr, settings, dev, v, cap):
        rest = dict(settings)
        rest[dev.label] = 0.0
        inj = hour_injections(net, hr.devices, hr.hour, rest, load_scale=shape[hr.hour])
        pos = net.index_of(dev.bus)
        row = int(np.flatnonzero(pq == pos)[0])
        dv_dq = np.zeros_like(v)
        dv_dq[pq] = z[:, row] * (1j / np.conj(v[pos]))
        running[hr.lane] = ((inj.p + 1j * inj.q)[pq], row, v.copy(), dv_dq,
                            settings[dev.label])
        shared[0] += any(d is not dev and d.bus == dev.bus and rest[d.label] != 0.0
                         for d in hr.devices)
        return search(hr, settings, dev, v, cap)

    def checked_columns(trials, lanes, x):
        s_pq, start = columns(trials, lanes, x)
        for r, (lane, qv) in enumerate(zip(lanes, x)):
            s_alone, start_alone = search_column(*running[lane], qv)
            # as integers, so that even the sign of a zero must agree
            np.testing.assert_array_equal(s_pq[r].view(np.int64), s_alone.view(np.int64))
            np.testing.assert_array_equal(start[r].view(np.int64), start_alone.view(np.int64))
            checked[0] += 1
        return s_pq, start

    monkeypatch.setattr(dispatch._Hour, "search", recorded_search)
    monkeypatch.setattr(dispatch._Trials, "columns", checked_columns)
    ev = DayEvaluator(net, devices33, profiles33, sc)
    ev.evaluate(key)
    assert checked[0] == ev.stats.trials > 1000 and shared[0] > 0


def test_a_step_scores_each_state_as_it_scores_alone(bus33):
    # a lockstep step scores its trial states together; each row's score
    # must equal the score of that state alone bit for bit, whatever the
    # step's width, or an hour's searches would depend on its batch
    net = bus33.network
    sc = Scenario(mode="dgq+v2gq")
    branches = _solver_arrays(net).branches
    rng = np.random.default_rng(7)
    for width in (1, 2, 5, 13, 40):
        v = rng.uniform(0.9, 1.05, (width, net.n_bus)) * np.exp(
            1j * rng.uniform(-0.05, 0.05, (width, net.n_bus)))
        scores = dispatch._scores(sc, branches, v)
        assert scores.tolist() == [float(dispatch._scores(sc, branches, row)) for row in v]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_dispatch_properties_on_generated_feeders(data):
    # converter parameters where the voltage-dependent dc-link circle, not
    # only the rating, can bound Q; the PV may sit on the slack bus, where
    # its Q enters no solve
    net = data.draw(radial_feeders(), label="feeder")
    lot_buses = st.sampled_from([b.id for b in net.buses if b.kind != "slack"])
    levels = st.floats(0.0, 1.0)
    x_coupling = st.floats(0.05, 0.5)
    vc_max = st.floats(1.05, 1.15)
    pv = PvUnit(data.draw(st.sampled_from(net.bus_ids()), label="pv bus"), 0.02,
                flat_profile(0.02 * data.draw(levels, label="pv output")),
                x_coupling=data.draw(x_coupling), vc_max=data.draw(vc_max))
    lot = PevLot(data.draw(lot_buses, label="lot bus"), 0.03,
                 flat_profile(0.03 * data.draw(levels, label="lot charge")),
                 x_coupling=data.draw(x_coupling), vc_max=data.draw(vc_max))
    devices = [pv, lot]
    for mode in MODES:
        sc = Scenario(mode=mode)
        res = dispatch_q(net, devices, 0, sc)
        assert res.score <= res.base_score
        for dev in sc.participating(devices):
            q = res.q_settings[dev.label]
            if dev.label in res.infeasible_devices:
                assert q == 0.0
                continue
            v_bus = float(res.solution.v_mag[net.index_of(dev.bus)])
            cap = q_capability(dev, dev.p_at(0), v_bus)
            assert cap.contains(q, tol=CAPABILITY_RECHECK_TOL)


def test_recheck_clamps_a_setpoint_the_search_left_outside(monkeypatch):
    # the PV's dc-link circle (coupling reactance 4, vc_max 1.0) excludes
    # Q = 0 at its bus voltage, and no setpoint inside it lowers the score, so
    # the search leaves the PV at 0; only the recheck's clamp moves it inside
    net = small_feeder(4)
    pv = PvUnit(3, 0.1, flat_profile(0.08), x_coupling=4.0, vc_max=1.0)
    lot = PevLot(2, 0.05, flat_profile(0.01), n_pev=50, cost_per_pev=0.05)
    searched = []
    recheck = dispatch._recheck_capability

    def spied(hr, participants, q, state, *rest):
        searched.append((dict(q), np.abs(state[0])))
        return recheck(hr, participants, q, state, *rest)

    monkeypatch.setattr(dispatch, "_recheck_capability", spied)
    res = dispatch_q(net, [pv, lot], 0, Scenario(mode="dgq+v2gq", v_ref=0.95))
    (q_searched, v_searched), = searched
    pos = net.index_of(pv.bus)
    assert not q_capability(pv, pv.p_at(0), float(v_searched[pos])).contains(
        q_searched[pv.label], tol=CAPABILITY_RECHECK_TOL)
    assert not res.reverted and res.q_settings[pv.label] < 0.0
    for dev in (pv, lot):
        cap = q_capability(dev, dev.p_at(0), float(res.solution.v_mag[net.index_of(dev.bus)]))
        assert cap.contains(res.q_settings[dev.label], tol=CAPABILITY_RECHECK_TOL)


def test_a_device_parked_after_a_solve_is_solved_again(monkeypatch):
    # the PV stage moves the PV off 0; the lot's move then lifts the PV's
    # bus past its dc-link limit (vc_max 1.0), and the next sweep parks the
    # PV at 0 without a solve.  The hour must not end on the state solved
    # with the PV's old setpoint: the recheck solves it again (and, as that
    # state scores worse than the undispatched one, the hour reverts)
    r = 0.00390625
    net = Network((Bus(1, kind="slack"), Bus(2), Bus(3), Bus(4)),
                  (Branch(2, 1, r, r), Branch(3, 2, r, r), Branch(4, 2, r, r)))
    pv = PvUnit(3, 0.02, flat_profile(0.01996118400300857), vc_max=1.0)
    lot = PevLot(2, 0.25, flat_profile(0.125), vc_max=1.0)
    rechecked = []
    recheck = dispatch._recheck_capability

    def spied(hr, participants, q, state, score, infeasible, stale):
        rechecked.append((dict(q), stale))
        return recheck(hr, participants, q, state, score, infeasible, stale)

    monkeypatch.setattr(dispatch, "_recheck_capability", spied)
    res = dispatch_q(net, [pv, lot], 0, Scenario(mode="dgq+v2gq"))
    ((q_searched, stale),) = rechecked
    assert stale and q_searched[pv.label] == 0.0 and q_searched[lot.label] < 0.0
    assert pv.label in res.infeasible_devices and res.reverted
    sol = solve(net, hour_injections(net, [pv, lot], 0, res.q_settings), tol=1e-10)
    assert np.abs(sol.v_complex - res.solution.v_complex).max() <= 1e-9
    assert res.score == pytest.approx(own_score(Scenario(mode="dgq+v2gq"), sol), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recheck_returns_setpoints_inside_the_final_intervals(data):
    # setpoints drawn from each converter's interval at the undispatched
    # voltages, as a search sees them, often at an end of it; the voltages
    # they lead to move the voltage-dependent dc-link bounds, which can leave
    # a setpoint outside.  The recheck must return every setpoint inside its
    # interval at the voltages it returns, and those voltages must be the
    # solve of them; if the setpoints do not settle it returns None and
    # dispatch_q reverts the hour.
    net = data.draw(radial_feeders(), label="feeder")
    buses = st.sampled_from([b.id for b in net.buses if b.kind != "slack"])
    x_coupling = st.floats(0.05, 5.0)
    vc_max = st.floats(1.0, 1.15)
    pv_buses = data.draw(st.lists(buses, min_size=2, max_size=2, unique=True), label="pv buses")
    devices = []
    for kind, bus in zip((PvUnit, PvUnit, PevLot), pv_buses + [data.draw(buses, label="lot bus")]):
        s_rated = data.draw(st.floats(0.02, 0.2), label="s_rated")
        level = data.draw(st.floats(0.0, 1.0), label="p level")
        devices.append(kind(bus, s_rated, flat_profile(s_rated * level),
                            x_coupling=data.draw(x_coupling), vc_max=data.draw(vc_max)))
    sc = Scenario(mode="dgq+v2gq")
    hr = hour_of(net, devices, 0, sc)
    base_v = hr.solve(hr.s_base, np.ones(net.n_bus, dtype=complex))[0]
    q, infeasible = {}, []
    for dev in devices:
        cap = q_capability(dev, dev.p_at(0), float(abs(base_v[net.index_of(dev.bus)])))
        inside = st.sampled_from([cap.q_min, cap.q_max]) | st.floats(cap.q_min, cap.q_max)
        q[dev.label] = data.draw(inside, label=dev.label) if cap.feasible else 0.0
    state = hr.solve(hr.column(q), base_v)
    rechecked = dispatch._drive(dispatch._recheck_capability(
        hr, devices, q, state, score_of(hr, state[0]), infeasible, False),
        lambda request: hr.solve(*request))
    if rechecked is None:
        return
    state, score = rechecked
    assert score == score_of(hr, state[0])
    ref = solve(net, hour_injections(net, devices, 0, q), tol=1e-10)
    np.testing.assert_allclose(state[0], ref.v_complex, rtol=0.0, atol=1e-7)
    for dev in devices:
        cap = q_capability(dev, dev.p_at(0), float(abs(state[0][net.index_of(dev.bus)])))
        if cap.feasible:
            assert cap.contains(q[dev.label], tol=CAPABILITY_RECHECK_TOL), dev.label
        else:
            assert q[dev.label] == 0.0 and dev.label in infeasible


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_settled_setpoints_stay_in_their_intervals(data):
    # a large coupling reactance with vc_max near 1 can put a converter's
    # whole interval below Q = 0 at the undispatched voltages; the hour must
    # not revert to Q = 0 there, so whenever the recheck settled, every
    # returned setpoint lies in its interval at the returned voltages, and a
    # state scoring worse than the base is kept only where 0 breaks an
    # interval at the base voltages
    net = data.draw(radial_feeders(), label="feeder")
    buses = st.sampled_from([b.id for b in net.buses if b.kind != "slack"])
    devices = []
    for kind in (PvUnit, PevLot):
        s_rated = data.draw(st.floats(0.02, 0.2), label="s_rated")
        level = data.draw(st.floats(0.0, 1.0), label="p level")
        devices.append(kind(data.draw(buses, label="bus"), s_rated,
                            flat_profile(s_rated * level),
                            x_coupling=data.draw(st.floats(0.05, 5.0), label="x_coupling"),
                            vc_max=data.draw(st.floats(1.0, 1.15), label="vc_max")))
    sc = Scenario(mode="dgq+v2gq", v_ref=data.draw(st.floats(0.95, 1.05), label="v_ref"))
    recheck = dispatch._recheck_capability
    settled = []

    def spied(*args):
        out = yield from recheck(*args)
        settled.append(out is not None)
        return out

    with mock.patch.object(dispatch, "_recheck_capability", spied):
        res = dispatch_q(net, devices, 0, sc)
    assert len(settled) == 1
    if not settled[0]:
        assert res.reverted
        return

    def interval(dev, sol):
        return q_capability(dev, dev.p_at(0), float(sol.v_mag[net.index_of(dev.bus)]))

    for dev in devices:
        q = res.q_settings[dev.label]
        if not interval(dev, res.solution).feasible:
            assert q == 0.0 and dev.label in res.infeasible_devices
        else:
            assert interval(dev, res.solution).contains(q, tol=CAPABILITY_RECHECK_TOL), dev.label
    if res.score > res.base_score:
        assert not res.reverted
        base = dispatch_q(net, devices, 0, replace(sc, mode="none")).solution
        assert not all(interval(dev, base).contains(
            0.0, tol=CAPABILITY_RECHECK_TOL) for dev in devices)


def test_tight_tolerance_needs_no_newton_fallback(bus33, devices33, monkeypatch):
    # at pf_tol = 1e-12 the fixed point's tol / 100 target lies below the
    # rounding floor of bus33; Newton's test still holds, so no solve falls back
    def refused(*args, **kwargs):
        raise AssertionError("Newton fallback")

    monkeypatch.setattr(dispatch, "solve", refused)
    sc = Scenario(mode="dgq+v2gq", pf_tol=1e-12)
    res = dispatch_q(bus33.network, devices33, PEAK_HOUR, sc)
    base = dispatch_q(bus33.network, devices33, PEAK_HOUR, replace(sc, mode="none"))
    for sol in (base.solution, res.solution):
        assert sol.converged and sol.max_mismatch <= 1e-12


def test_load_scale_shifts_base_solution(bus33, devices33):
    net = bus33.network
    light = dispatch_q(net, devices33, PEAK_HOUR, Scenario(mode="none"), load_scale=0.4)
    heavy = dispatch_q(net, devices33, PEAK_HOUR, Scenario(mode="none"), load_scale=1.0)
    assert light.solution.v_min > heavy.solution.v_min


def test_score_noise_changes_no_accepted_setpoint(bus33, devices33, profiles33,
                                                  monkeypatch):
    # every score, Brent trial or full solve, perturbed by a relative ±1e-15:
    # a move must gain more than the solves' own error, so no accept flips;
    # only Brent's own rounding may move a setpoint, far below 1e-12
    net = bus33.network
    shape = profiles33["load-weekday"].values
    devices = place_lots(devices33, (3, 17), net)
    sc = Scenario(mode="dgq+v2gq")

    def setpoints():
        return [dispatch_q(net, devices, hour, sc, load_scale=shape[hour]).q_settings
                for hour in range(HOURS)]

    clean = setpoints()
    rng = np.random.default_rng(1)

    def noisy(scores):
        def perturbed(*args):
            out = scores(*args)
            return out * (1.0 + 1e-15 * rng.choice((-1.0, 1.0), size=np.shape(out)))
        return perturbed

    monkeypatch.setattr(dispatch, "_scores", noisy(dispatch._scores))
    for hour, (q_clean, q_noisy) in enumerate(zip(clean, setpoints())):
        for label, q in q_clean.items():
            assert q_noisy[label] == pytest.approx(q, abs=1e-12), (hour, label)


# -- the lockstep day --------------------------------------------------------

# the golden dgq+v2gq placements the accept threshold was sized on
GOLDEN_V2G = ((7, 29), (3, 17), (12, 25), (5, 33), (2, 19), (10, 30), (4, 8), (15, 22),
              (18, 33), (6, 26), (9, 11), (20, 28))


def test_lockstep_day_runs_each_hour_as_dispatch_q_does(bus33, devices33, profiles33,
                                                       monkeypatch):
    # the day drives every hour's descent in lockstep, on block columns and
    # batched scores; dispatch_q runs one hour alone, each solve a block of
    # one column.  Both solve a column on the same kernel with the same
    # Newton fallback and search with the same Brent, and a column or a
    # score does not depend on its block, so from its base-block row each
    # hour runs the same searches to the same points and ends bit for bit
    # as dispatch_q does from a flat start, base score included
    net = bus33.network
    shape = profiles33["load-weekday"].values
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    searches: dict[tuple[str, int], list] = {}
    path = ["lockstep"]
    descent = dispatch._descent

    def logged(hr, base):
        log = searches.setdefault((path[0], hr.hour), [])
        steps = descent(hr, base)
        reply = None
        while True:
            try:
                request = steps.send(reply)
            except StopIteration as done:
                return done.value
            # a search's device row and start setpoint, from its hour's row
            # of the trials, which holds them until the search returns
            start = hr.trials.dev_row[hr.lane], hr.trials.q_now[hr.lane]
            reply = yield request
            if isinstance(request, dispatch._Search):
                res = reply[0]
                log.append((*start, res.nfev, res.x, res.fun))

    runs = []
    lockstep = objective._dispatch_day

    def recorded(net_, scenario, hours, s_pq, base, stats):
        results = lockstep(net_, scenario, hours, s_pq, base, stats)
        runs.append((hours, tuple(a.copy() for a in base), results))
        return results

    monkeypatch.setattr(dispatch, "_descent", logged)
    monkeypatch.setattr(objective, "_dispatch_day", recorded)
    for key in GOLDEN_V2G:
        searches.clear()
        runs.clear()
        path[0] = "lockstep"
        day = DayEvaluator(net, devices33, profiles33, sc).hours(key)
        bases = DayEvaluator(net, devices33, profiles33, replace(sc, mode="none")).hours(key)
        ((hours, (base_v, base_iterations, base_mismatch), results),) = runs
        assert [hour for _, hour in hours] == list(range(HOURS))
        # mode none's rows are the base-block states the lockstep started from
        np.testing.assert_array_equal(bases.v, base_v)
        np.testing.assert_array_equal(bases.iterations, base_iterations)
        np.testing.assert_array_equal(bases.mismatch, base_mismatch)
        assert not bases.q.any() and not bases.reverted.any()
        np.testing.assert_array_equal(bases.score, bases.base_score)
        path[0] = "serial"
        for (placed, hour), result in zip(hours, results):
            alone = dispatch_q(net, placed, hour, sc, load_scale=shape[hour])
            where = (key, hour)
            assert searches[("lockstep", hour)] == searches[("serial", hour)], where
            assert_same_hour(result, alone, where)
            assert_row_is_hour(day, hour, placed, result, where)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_feeder_lockstep_hours_equal_dispatch_q(data):
    # 5–15 buses, a PV unit and 1–3 lots with hourly profiles, and an
    # hourly load shape: every hour the day's lockstep dispatched from its
    # base-block row ends bit for bit as dispatch_q ends it from a flat
    # start, base score included, and dispatch_q raises on no such hour
    net = data.draw(radial_feeders(5, 15), label="feeder")
    buses = [b.id for b in net.buses if b.kind != "slack"]
    n_lots = data.draw(st.integers(1, min(3, len(buses))), label="lots")

    def hourly(peak: float):
        return data.draw(st.lists(st.floats(0.0, peak), min_size=HOURS, max_size=HOURS))

    devices = [PvUnit(data.draw(st.sampled_from(buses), label="pv bus"), 0.02, hourly(0.02))]
    devices += [PevLot(bus, 0.03, hourly(0.03)) for bus in buses[:n_lots]]
    shape = data.draw(st.lists(st.floats(0.2, 1.5), min_size=HOURS, max_size=HOURS),
                      label="load shape")
    profiles = {"load-weekday": HourlyProfile("load-weekday", shape)}
    placements = data.draw(st.lists(st.permutations(buses).map(
        lambda p: tuple(sorted(p[:n_lots]))), min_size=1, max_size=3), label="placements")
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    runs = []
    lockstep = objective._dispatch_day

    def recorded(net_, scenario, hours, s_pq, base, stats):
        results = lockstep(net_, scenario, hours, s_pq, base, stats)
        runs.append((hours, results))
        return results

    with mock.patch.object(objective, "_dispatch_day", recorded):
        DayEvaluator(net, devices, profiles, sc).evaluate_many(placements)
    for hours, results in runs:
        for (placed, hour), day in zip(hours, results):
            where = ([d.bus for d in placed], hour)
            alone = dispatch_q(net, placed, hour, sc, load_scale=shape[hour])
            assert_same_hour(day, alone, where)


def test_a_failed_trial_column_goes_alone_to_newton(bus33, devices33, profiles33,
                                                   monkeypatch):
    # the kernel is made to fail one trial column of a wide block: that
    # column alone goes to Newton, from its own start, and the day still
    # scores as it does without the failure
    net, key = bus33.network, (3, 17)
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    honest = DayEvaluator(net, devices33, profiles33, sc).evaluate(key).breakdown
    block, columns, newton = (dispatch._fixed_point_block, dispatch._Trials.columns,
                              dispatch._newton)
    gathered, forced, calls = [], [], []

    def recorded_columns(trials, lanes, x):
        gathered.append(columns(trials, lanes, x))
        return gathered[-1]

    def one_trial_fails(factor, s_pq, v, tol):
        # a lockstep step's trial points are its block's first columns
        trials = []
        if gathered:
            s_trials, starts = gathered.pop()
            trials = list(range(len(s_trials)))
            np.testing.assert_array_equal(s_pq[:, trials], s_trials.T)
            np.testing.assert_array_equal(v[:, trials], starts.T)
        starts = v.copy()
        iterations, mismatch, converged = block(factor, s_pq, v, tol)
        if not forced and len(trials) > 4:
            j = trials[len(trials) // 2]
            converged[j] = False
            forced.append((s_pq[:, j].copy(), starts[:, j]))
        return iterations, mismatch, converged

    def counted(net_, inj, tol, v0):
        calls.append((inj, v0.copy()))
        return newton(net_, inj, tol, v0)

    monkeypatch.setattr(dispatch._Trials, "columns", recorded_columns)
    monkeypatch.setattr(dispatch, "_fixed_point_block", one_trial_fails)
    monkeypatch.setattr(dispatch, "_newton", counted)
    ev = DayEvaluator(net, devices33, profiles33, sc)
    bd = ev.evaluate(key).breakdown
    ((s_pq, start),) = forced
    ((inj, v0),) = calls
    pq = _solver_arrays(net).fixed_point[0]
    np.testing.assert_array_equal(inj.p[pq], s_pq.real)
    np.testing.assert_array_equal(inj.q[pq], s_pq.imag)
    np.testing.assert_array_equal(v0, start)
    assert ev.stats.newton_fallbacks == 1
    assert bd.feasible == honest.feasible
    for field in ("v_dev", "loss", "scalar", "violation_penalty"):
        assert getattr(bd, field) == pytest.approx(getattr(honest, field), abs=1e-9)
