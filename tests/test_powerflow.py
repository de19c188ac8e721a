from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pevplan import dispatch, load_builtin, powerflow
from pevplan.dispatch import Scenario
from pevplan.network import Branch, Bus, Network, build_ybus
from pevplan.objective import DayEvaluator
from pevplan.powerflow import (
    _FIXED_POINT_MARGIN,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    InjectionSet,
    NonConvergence,
    PowerFlowError,
    PowerFlowSolution,
    SingularJacobian,
    _finish,
    _fixed_point_block,
    _solver_arrays,
    _start,
    check_limits,
    solve,
)
from pevplan.sweep import solve_sweep

from conftest import radial_feeders, small_feeder
from kernel_oracle import _fixed_point


def loads_of(net) -> InjectionSet:
    return InjectionSet.from_loads(*net.load_vectors())


def fixed_point(net, inj, tol=DEFAULT_TOL, v0=None) -> PowerFlowSolution:
    """The fixed-point kernel on one column, as a solution: the block
    kernel's column, checked against the 1-D oracle, whose error a column
    that fails raises."""
    v = _start(net, inj, tol, v0)
    factor = _solver_arrays(net).fixed_point
    s_pq = (inj.p + 1j * inj.q)[factor[0]]
    block_matches_columns(factor, s_pq[:, None], v[:, None], tol)
    v, it, mis = _fixed_point(factor, s_pq, v, tol)
    return _finish(net, v, it, mis, converged=True)


@pytest.fixture(scope="module")
def solved33(bus33):
    net = bus33.network
    return net, solve(net, loads_of(net))


# -- correctness against closed forms ---------------------------------------


def test_two_bus_matches_quadratic_formula():
    """One line, one load: |V2| obeys the standard quadratic in V2².

    V2⁴ + (2(PR + QX) − V1²)·V2² + (P² + Q²)|Z|² = 0, solved here with the
    quadratic formula — an oracle that shares no code with the solver.
    """
    case, _ = load_builtin(case_name="twobus.grid")
    net = case.network
    p, q = net.load_vectors()
    sol = solve(net, InjectionSet.from_loads(p, q), tol=1e-12)

    r = net.branches[0].resistance
    x = net.branches[0].reactance
    pl, ql = p[1], q[1]
    b = 2.0 * (pl * r + ql * x) - 1.0  # V1 = 1.0
    c = (pl**2 + ql**2) * (r**2 + x**2)
    v2_sq = (-b + math.sqrt(b**2 - 4.0 * c)) / 2.0
    assert sol.v_mag[1] == pytest.approx(math.sqrt(v2_sq), abs=1e-9)
    assert sol.converged and sol.max_mismatch <= 1e-12


def test_bus33_reference_full_load(solved33):
    # published full-load figures for this feeder: ~202.7 kW of loss and a
    # 0.9131 pu low point at bus 18
    net, sol = solved33
    loss_kw = sol.total_losses * net.base_mva * 1000.0
    assert loss_kw == pytest.approx(202.68, abs=0.05)
    assert sol.v_min == pytest.approx(0.91309, abs=5e-5)
    assert net.buses[int(np.argmin(sol.v_mag))].id == 18
    assert sol.iterations <= 5  # quadratic convergence from the cold start


def test_power_balance(solved33):
    # slack output must equal load plus series losses, P and Q alike
    net, sol = solved33
    v = sol.v_complex
    y = build_ybus(net)
    s_slack = (v * np.conj(y @ v))[net.slack_index]
    p_load, q_load = net.load_vectors()
    i_sq = np.abs(sol.branch_current) ** 2
    r = np.array([br.resistance for br in net.branches])
    x = np.array([br.reactance for br in net.branches])
    assert float(i_sq @ r) == pytest.approx(sol.total_losses, abs=1e-15)
    assert s_slack.real - p_load.sum() == pytest.approx(sol.total_losses, abs=1e-7)
    assert s_slack.imag - q_load.sum() == pytest.approx(float(i_sq @ x), abs=1e-7)


def test_zero_injection_flat_profile(feeder4):
    inj = InjectionSet(np.zeros(4), np.zeros(4))
    sol = solve(feeder4, inj)
    assert sol.iterations == 0
    assert sol.total_losses == 0.0
    np.testing.assert_allclose(sol.v_mag, 1.0, atol=1e-15)
    np.testing.assert_allclose(sol.v_ang, 0.0, atol=1e-15)


def test_heavier_load_sags_further(feeder4):
    p, q = feeder4.load_vectors()
    v_prev = 2.0
    for scale in (0.5, 1.0, 2.0, 4.0):
        sol = solve(feeder4, InjectionSet.from_loads(p * scale, q * scale))
        assert sol.v_min < v_prev
        v_prev = sol.v_min


def test_warm_start_reconverges_fast(solved33):
    net, sol = solved33
    inj = loads_of(net)
    warm = solve(net, inj, v0=sol.v_complex)
    assert warm.iterations <= 1
    np.testing.assert_allclose(warm.v_mag, sol.v_mag, atol=1e-10)
    # warm start from a slightly perturbed state still lands on the solution
    rng = np.random.default_rng(3)
    v0 = sol.v_complex * (1.0 + 0.001 * rng.standard_normal(net.n_bus))
    again = solve(net, inj, v0=v0)
    np.testing.assert_allclose(again.v_mag, sol.v_mag, atol=1e-8)


# -- failure modes -----------------------------------------------------------


def test_impossible_load_raises_with_partial_solution(feeder4):
    p, q = feeder4.load_vectors()
    with pytest.raises(NonConvergence) as err:
        solve(feeder4, InjectionSet.from_loads(p * 1e4, q * 1e4))
    partial = err.value.solution
    assert isinstance(partial, PowerFlowSolution)
    assert not partial.converged


def test_divergence_is_flagged(feeder4):
    p, q = feeder4.load_vectors()
    with pytest.raises(NonConvergence) as err:
        solve(feeder4, InjectionSet.from_loads(p * 1e7, q * 1e7))
    assert err.value.solution.diverged


def test_degenerate_start_raises_singular(feeder4):
    # a zero-magnitude seed voltage wipes out a Jacobian row
    v0 = np.array([1.0, 1.0, 0.0, 1.0], dtype=complex)
    with pytest.raises((SingularJacobian, NonConvergence)):
        solve(feeder4, loads_of(feeder4), v0=v0)
    # the fixed point divides by that zero and reports divergence
    with pytest.raises(PowerFlowError, match="fixed point diverged"):
        fixed_point(feeder4, loads_of(feeder4), v0=v0)


def test_injection_validation(feeder4):
    with pytest.raises(ValueError, match="does not match bus count"):
        solve(feeder4, InjectionSet(np.zeros(3), np.zeros(3)))
    with pytest.raises(ValueError, match="equal length"):
        InjectionSet(np.zeros(3), np.zeros(4))
    bad = InjectionSet(np.array([0.0, np.nan, 0.0, 0.0]), np.zeros(4))
    with pytest.raises(ValueError, match="non-finite injection"):
        solve(feeder4, bad)
    # non-finite slack entries are the solver's business, not an error
    ok = InjectionSet(np.array([np.nan, 0.0, 0.0, 0.0]), np.zeros(4))
    assert solve(feeder4, ok).converged
    with pytest.raises(ValueError, match="one entry per bus"):
        solve(feeder4, loads_of(feeder4), v0=np.ones(3, dtype=complex))


def test_loss_helpers_refuse_unconverged(feeder4):
    sol = solve(feeder4, loads_of(feeder4))
    stale = replace(sol, max_mismatch=1.0, converged=False)
    with pytest.raises(PowerFlowError, match="non-converged"):
        check_limits(feeder4, stale)


# -- solver arrays cached per network ----------------------------------------


def test_two_solves_on_one_network_build_ybus_once(monkeypatch):
    net = small_feeder(5)
    built = []
    build = powerflow.build_ybus

    def counted(net_):
        built.append(net_)
        return build(net_)

    monkeypatch.setattr(powerflow, "build_ybus", counted)
    solve(net, loads_of(net))
    fixed_point(net, loads_of(net))
    assert len(built) == 1 and built[0] is net


def test_replaced_network_builds_its_own_arrays():
    net = small_feeder(5)
    inj = loads_of(net)
    original = solve(net, inj)
    # the cache takes no part in equality or hashing
    assert net == small_feeder(5) and hash(net) == hash(small_feeder(5))
    doubled = tuple(replace(br, resistance=2.0 * br.resistance) for br in net.branches)
    copy = replace(net, branches=doubled)
    fresh = Network(net.buses, doubled)
    loss = solve(copy, inj).total_losses
    assert loss == solve(fresh, inj).total_losses
    assert loss != pytest.approx(original.total_losses, rel=0.1)


# -- Newton on the non-slack block ------------------------------------------


def full_jacobian(y, v, vm, pq):
    """Newton's Jacobian built over all n buses and then cut to the
    non-slack block: the construction :func:`powerflow._jacobian` replaced,
    kept as its oracle."""
    n, npq = len(v), len(pq)
    diag = np.arange(n)
    grid = np.ix_(pq, pq)
    ibus = y @ v
    m = -(y * v[None, :])
    m[diag, diag] += ibus
    ds_dva = (1j * v)[:, None] * np.conj(m)
    with np.errstate(invalid="ignore", divide="ignore"):
        vnorm = v / vm
    ds_dvm = v[:, None] * np.conj(y * vnorm[None, :])
    ds_dvm[diag, diag] += np.conj(ibus) * vnorm
    jac = np.empty((2 * npq, 2 * npq))
    jac[:npq, :npq] = ds_dva.real[grid]
    jac[:npq, npq:] = ds_dvm.real[grid]
    jac[npq:, :npq] = ds_dva.imag[grid]
    jac[npq:, npq:] = ds_dvm.imag[grid]
    return jac


def linear_estimate(net, inj) -> np.ndarray:
    """The Z-bus linear estimate ``V[pq] = 1 + Z·conj(S[pq])``, 1.0 at the
    slack, with ``Z = inv(Y[pq, pq])`` formed here from ``build_ybus``."""
    pq = np.delete(np.arange(net.n_bus), net.slack_index)
    z = np.linalg.inv(build_ybus(net)[np.ix_(pq, pq)])
    v = np.ones(net.n_bus, dtype=complex)
    v[pq] = 1.0 + z @ np.conj((inj.p + 1j * inj.q)[pq])
    return v


def cold_start(net, inj, tol=DEFAULT_TOL) -> np.ndarray:
    """Cold Newton's start (:func:`cold_start_steps`)."""
    return cold_start_steps(net, inj, tol)[0]


def cold_start_steps(net, inj, tol=DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Cold Newton's start and the steps it kept: fixed-point steps
    ``V' = w + Z·conj(S/V)`` from the :func:`linear_estimate`, each kept
    while its residual ``max |(V' − V)·S/V|`` is finite and below the last
    one's (the estimate's own is ``max |(V − 1)·S|``), until it is at most
    ``√(tol·_FIXED_POINT_MARGIN)`` or a kept step's is above half the last
    one's.  The products are the kernel's ``_products``, so the start is
    the solver's bit for bit."""
    v = linear_estimate(net, inj)
    pq, _, z, w = _solver_arrays(net).fixed_point
    s = (inj.p + 1j * inj.q)[pq]
    vp = v[pq]

    def residual(dv, ratio) -> float:
        ds = dv * ratio
        return float(max(np.abs(ds.real).max(), np.abs(ds.imag).max()))

    res, steps = residual(vp - 1.0, s), 0
    with np.errstate(all="ignore"):
        while steps < DEFAULT_MAX_ITER and not res <= math.sqrt(tol * _FIXED_POINT_MARGIN):
            ratio = s / vp
            v_next = w + powerflow._products(z, np.conj(ratio)[None])[0]
            r = residual(v_next - vp, ratio)
            if not r < res:
                break
            vp, res, halved, steps = v_next, r, r <= res / 2, steps + 1
            if not halved:
                break
    v[pq] = vp
    return v, steps


def full_newton(net, inj, tol=DEFAULT_TOL, v0=None):
    """Newton's iteration on :func:`full_jacobian` from a flat start or
    ``v0``: ``(v, iterations, mismatch)``, or the message of the error it
    stops with."""
    y, s = build_ybus(net), net.slack_index
    pq = np.array([i for i in range(net.n_bus) if i != s])
    v = _start(net, inj, tol, v0)
    s_spec = inj.p + 1j * inj.q
    vm, va = np.abs(v), np.angle(v)

    def mismatch(vv):
        ds = vv * np.conj(y @ vv) - s_spec
        f = np.concatenate([ds.real[pq], ds.imag[pq]])
        return f, float(np.max(np.abs(f)))

    f, mis = mismatch(v)
    for it in range(DEFAULT_MAX_ITER + 1):
        if mis <= tol:
            return v, it, mis
        if not math.isfinite(mis) or mis > 1e6 or it == DEFAULT_MAX_ITER:
            return "no convergence"
        try:
            dx = np.linalg.solve(full_jacobian(y, v, vm, pq), -f)
        except np.linalg.LinAlgError:
            return "singular"
        if not np.all(np.isfinite(dx)):
            return "singular"
        va[pq] += dx[:len(pq)]
        vm[pq] += dx[len(pq):]
        v = vm * np.exp(1j * va)
        f, mis = mismatch(v)


@settings(max_examples=40, deadline=None)
@given(net=radial_feeders(), seed=st.integers(0, 2**32 - 1))
def test_block_jacobian_equals_the_full_construction(net, seed):
    arrays = _solver_arrays(net)
    y, (pq, _, _) = arrays.y, arrays.blocks
    rng = np.random.default_rng(seed)
    v = 1.0 + 0.1 * (rng.standard_normal(net.n_bus) + 1j * rng.standard_normal(net.n_bus))
    v[net.slack_index] = 1.0
    # a degenerate |V| = 0 entry turns both into the same NaNs
    v[pq[rng.integers(len(pq))]] *= rng.integers(2)
    with np.errstate(invalid="ignore"):
        got = powerflow._jacobian(arrays.jacobian_plan, v[pq], np.abs(v)[pq], (y @ v)[pq])
    np.testing.assert_array_equal(got, full_jacobian(y, v, np.abs(v), pq))


def meshed_network() -> Network:
    """A ring with a chord, and a spur."""
    buses = (
        Bus(1, kind="slack"),
        Bus(2, normal_load_p=0.30, normal_load_q=0.10),
        Bus(3, normal_load_p=0.20, normal_load_q=0.15),
        Bus(4, normal_load_p=0.25, normal_load_q=0.05),
        Bus(5, normal_load_p=0.10, normal_load_q=0.08),
    )
    branches = (
        Branch(1, 2, 0.02, 0.06), Branch(2, 3, 0.03, 0.07), Branch(3, 4, 0.01, 0.05),
        Branch(4, 1, 0.02, 0.04), Branch(2, 4, 0.04, 0.08), Branch(4, 5, 0.05, 0.09),
    )
    return Network(buses, branches, radial=False)


def assert_plan_is_the_pattern(arrays):
    """The Jacobian plan holds each off-diagonal nonzero of ``Y[pq, pq]``
    and every diagonal once, with its value, its diagonal slots and its
    places in the four blocks of the flattened Jacobian."""
    rows, cols, values, diag, flat = arrays.jacobian_plan
    y_pp = arrays.blocks[2]
    npq = len(y_pp)
    pattern = {(i, j) for i, j in zip(*np.nonzero(y_pp)) if i != j}
    pattern |= {(i, i) for i in range(npq)}
    assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(pattern)
    assert np.array_equal(values, y_pp[rows, cols])
    assert np.array_equal(rows[diag], np.arange(npq))
    assert np.array_equal(cols[diag], np.arange(npq))
    # per entry: dP/dθ, dQ/dθ, then, after every dθ entry, dP/d|V|, dQ/d|V|
    down, right = rows + npq, cols + npq
    want = np.concatenate([
        np.stack([rows, cols, down, cols], axis=1).reshape(-1, 2),
        np.stack([rows, right, down, right], axis=1).reshape(-1, 2),
    ])
    got = np.stack(np.unravel_index(flat, (2 * npq, 2 * npq)), axis=1)
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(net=radial_feeders())
def test_jacobian_plan_holds_the_nonzeros_and_every_diagonal(net):
    assert_plan_is_the_pattern(_solver_arrays(net))


def test_jacobian_plan_on_bus33_and_a_meshed_network(bus33):
    for net in (bus33.network, meshed_network()):
        assert_plan_is_the_pattern(_solver_arrays(net))


def test_jacobian_plan_keeps_a_zero_diagonal():
    # no valid network has one (every branch reactance is positive and
    # every bus reaches the slack), so a bus's diagonal is zeroed by hand
    net = meshed_network()
    arrays = powerflow._SolverArrays(net)
    y = build_ybus(net).copy()
    k = net.index_of(3)
    y[k, k] = 0.0
    arrays.__dict__["y"] = y
    assert_plan_is_the_pattern(arrays)
    pq = arrays.blocks[0]
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = 1.0 + 0.1 * (rng.standard_normal(net.n_bus) + 1j * rng.standard_normal(net.n_bus))
        v[net.slack_index] = 1.0
        got = powerflow._jacobian(arrays.jacobian_plan, v[pq], np.abs(v)[pq], (y @ v)[pq])
        np.testing.assert_array_equal(got, full_jacobian(y, v, np.abs(v), pq))


def assert_newton_matches_full(net, inj, tol=DEFAULT_TOL, v0=None):
    # a cold solve starts from the fixed point's steps, so the oracle does too
    want = full_newton(net, inj, tol, cold_start(net, inj, tol) if v0 is None else v0)
    try:
        sol = solve(net, inj, tol, v0)
    except SingularJacobian:
        assert want == "singular"
        return
    except NonConvergence:
        assert want == "no convergence"
        return
    v, it, mis = want
    assert np.array_equal(sol.v_complex, v)
    assert (sol.iterations, sol.max_mismatch) == (it, mis)
    assert sol.total_losses == _finish(net, v, it, mis, converged=True).total_losses


@settings(max_examples=40, deadline=None)
@given(net=radial_feeders(), scale=st.floats(0.0, 30.0))
def test_newton_is_bit_identical_to_the_full_construction(net, scale):
    p, q = net.load_vectors()
    assert_newton_matches_full(net, InjectionSet.from_loads(p * scale, q * scale))


def test_newton_is_bit_identical_to_the_full_construction_on_bus33(bus33):
    net = bus33.network
    p, q = net.load_vectors()
    # Newton fails at the last two scales, and so must the oracle
    for scale in [*np.linspace(0.0, 2.0, 21), 50.0, 1e4]:
        assert_newton_matches_full(net, InjectionSet.from_loads(p * scale, q * scale))


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 50.0])
def test_newton_is_bit_identical_to_the_full_construction_on_a_meshed_network(scale):
    # Newton fails at 50, past the nose point, and so must the oracle
    net = meshed_network()
    p, q = net.load_vectors()
    assert_newton_matches_full(net, InjectionSet.from_loads(p * scale, q * scale))


def test_cold_newton_starts_from_the_fixed_points_steps_on_bus33(bus33):
    # at 3.62 a step fails to halve its residual above the stop; at 3.7
    # and 50, past the nose point, a residual rises and the step before it
    # is the start, from which Newton fails as it does from flat
    net = bus33.network
    arrays = _solver_arrays(net)
    pq = arrays.blocks[0]
    p, q = net.load_vectors()
    for scale in (0.0, 0.3, 1.0, 3.0, 3.62, 3.7, 50.0):
        inj = InjectionSet.from_loads(p * scale, q * scale)
        for tol in (DEFAULT_TOL, DEFAULT_TOL * 1e-2):
            start = cold_start(net, inj, tol)
            got = powerflow._cold_start(arrays.fixed_point, (inj.p + 1j * inj.q)[pq], tol)
            assert np.array_equal(got, start[pq]), scale
            if scale > 3.62:
                continue
            cold = solve(net, inj, tol)
            warm = solve(net, inj, tol, v0=start)
            assert np.array_equal(cold.v_complex, warm.v_complex)
            assert (cold.iterations, cold.max_mismatch, cold.total_losses) == (
                warm.iterations, warm.max_mismatch, warm.total_losses)


def test_cold_newton_takes_one_step_at_the_bench_scales(bus33):
    # one step, so the checked snapshot and C1 still check a Newton step
    # and not a start that already meets tol.  Errors are against a
    # flat-start Newton solve at tol 1e-13, and the earlier start, the
    # linear estimate, is a solve from that explicit v0.  One step from a
    # residual near √(tol/100) lands well inside tol, but not always below
    # two steps from the estimate: at 0.3 those reached 5e-14, this 1e-10.
    net = bus33.network
    p, q = net.load_vectors()
    errors, estimate_errors = [], []
    for scale in (0.3, 0.55, 0.8, 1.0):
        inj = InjectionSet.from_loads(p * scale, q * scale)
        sol = solve(net, inj)
        assert sol.iterations == 1 and sol.max_mismatch <= DEFAULT_TOL
        ref = solve(net, inj, tol=1e-13, v0=np.ones(net.n_bus)).v_complex
        errors.append(np.max(np.abs(sol.v_complex - ref)))
        estimate = solve(net, inj, v0=linear_estimate(net, inj)).v_complex
        estimate_errors.append(np.max(np.abs(estimate - ref)))
    assert max(errors) <= max(estimate_errors)
    assert max(errors) <= DEFAULT_TOL


def test_cold_newton_stops_stepping_near_the_nose_point(bus33, monkeypatch):
    # at 3.62 times the load each step shrinks the residual by about 0.95,
    # so the start used to run all DEFAULT_MAX_ITER steps; it now stops at
    # the first step that does not halve it.  Near the nose point a
    # mismatch of tol moves the voltages by about 1e-7, so the solve is
    # held to a flat start's own error against a tol-1e-13 solve
    net = bus33.network
    p, q = net.load_vectors()
    inj = InjectionSet.from_loads(p * 3.62, q * 3.62)
    step, steps = powerflow._step, []

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(powerflow, "_step", counted)
    cold = solve(net, inj)
    monkeypatch.undo()
    assert len(steps) == cold_start_steps(net, inj)[1] < DEFAULT_MAX_ITER
    flat = solve(net, inj, v0=np.ones(net.n_bus))
    ref = solve(net, inj, tol=1e-13, v0=np.ones(net.n_bus)).v_complex
    assert cold.converged and cold.max_mismatch <= DEFAULT_TOL
    assert np.max(np.abs(cold.v_complex - ref)) <= np.max(np.abs(flat.v_complex - ref))


# sha256 of each cold solve's voltages and its mismatch, recorded at
# 027b56f, before the start stopped on a step that fails to halve its
# residual: at the bench scales none does, so no solve may move
COLD_SOLVES = {
    0.3: ("3b3d0239fc0383af", "0x1.3948410000000p-33"),
    0.55: ("71c5775ce1fd1fe1", "0x1.5312600000000p-37"),
    0.8: ("fab7f8548671749c", "0x1.10c4518000000p-32"),
    1.0: ("7eb04e3ff88d8e47", "0x1.8035100000000p-37"),
}


@pytest.mark.parametrize("scale", sorted(COLD_SOLVES))
def test_cold_newton_at_the_bench_scales_is_pinned(bus33, scale):
    net = bus33.network
    p, q = net.load_vectors()
    sol = solve(net, InjectionSet.from_loads(p * scale, q * scale))
    digest = hashlib.sha256(sol.v_complex.tobytes()).hexdigest()[:16]
    assert (sol.iterations, digest, sol.max_mismatch.hex()) == (1, *COLD_SOLVES[scale])


@settings(max_examples=60, deadline=None)
@given(net=radial_feeders(), scale=st.floats(0.1, 600.0))
def test_cold_newton_needs_no_more_iterations_than_a_flat_start(net, scale):
    # loads up to 600 times radial_feeders' own take some feeders past their
    # nose point; wherever the flat start converges, the cold start must too
    p, q = net.load_vectors()
    inj = InjectionSet.from_loads(p * scale, q * scale)
    try:
        flat = solve(net, inj, v0=np.ones(net.n_bus))
    except PowerFlowError:
        return
    cold = solve(net, inj)
    assert cold.iterations <= flat.iterations
    assert np.max(np.abs(cold.v_complex - flat.v_complex)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(net=radial_feeders(), scale=st.floats(0.0, 30.0), seed=st.integers(0, 2**32 - 1))
def test_newton_is_bit_identical_to_the_full_construction_from_warm_starts(net, scale, seed):
    # dispatch warm-starts Newton from a column's start; a start's slack entry
    # is overwritten with 1.0, so this one's is not 1
    rng = np.random.default_rng(seed)
    v0 = 1.0 + 0.05 * (rng.standard_normal(net.n_bus) + 1j * rng.standard_normal(net.n_bus))
    v0[net.slack_index] = 0.97 + 0.02j
    p, q = net.load_vectors()
    inj = InjectionSet.from_loads(p * scale, q * scale)
    assert_newton_matches_full(net, inj, v0=v0)
    assert_newton_matches_full(net, inj, tol=DEFAULT_TOL * 1e-2, v0=v0)


def test_newton_is_bit_identical_to_the_full_construction_from_a_neighbouring_load(bus33):
    # each solve starts from the solution at a load 5% lighter, at Newton's
    # tolerance and at the tighter one dispatch's fallback asks for
    net = bus33.network
    p, q = net.load_vectors()
    for scale in np.linspace(0.35, 2.0, 12):
        v0 = solve(net, InjectionSet.from_loads(p * (scale - 0.05), q * (scale - 0.05))).v_complex
        inj = InjectionSet.from_loads(p * scale, q * scale)
        for tol in (DEFAULT_TOL, DEFAULT_TOL * 1e-2):
            assert_newton_matches_full(net, inj, tol, v0)


# -- Z-bus fixed point ------------------------------------------------------


@pytest.mark.parametrize("scale", [0.3, 0.55, 0.8, 1.0])
def test_fixed_point_matches_newton_on_bus33(bus33, scale):
    net = bus33.network
    p, q = net.load_vectors()
    inj = InjectionSet.from_loads(p * scale, q * scale)
    ref = solve(net, inj, tol=1e-12)
    cold = fixed_point(net, inj)
    # warm start from a nearby load, as the dispatch search does
    near = solve(net, InjectionSet.from_loads(p * scale * 0.97, q * scale * 0.97))
    warm = fixed_point(net, inj, v0=near.v_complex)
    for sol in (cold, warm):
        # converged under Newton's own test, with the fixed point's margin
        assert sol.converged and sol.max_mismatch <= DEFAULT_TOL / 100
        np.testing.assert_allclose(sol.v_complex, ref.v_complex, rtol=0, atol=1e-9)
        assert sol.total_losses == pytest.approx(ref.total_losses, abs=1e-9)
        np.testing.assert_allclose(sol.branch_current, ref.branch_current,
                                   rtol=0, atol=1e-8)
    assert warm.iterations <= cold.iterations


def test_fixed_point_returns_a_converged_start_unchanged(bus33):
    # a start that already meets tol / 100 costs no step: a dispatch trial
    # that lands on the current setpoint then scores the current state
    net = bus33.network
    first = fixed_point(net, loads_of(net))
    again = fixed_point(net, loads_of(net), v0=first.v_complex)
    assert again.iterations == 0 and again.converged
    np.testing.assert_array_equal(again.v_complex, first.v_complex)
    assert again.max_mismatch <= DEFAULT_TOL / 100


def test_fixed_point_below_rounding_floor_meets_newtons_test(bus33):
    # tol / 100 = 1e-14 lies below the rounding floor of Y·V on bus33: the
    # iteration stops once the mismatch stops falling, converged under
    # Newton's test, instead of running out its iterations and raising
    net = bus33.network
    sol = fixed_point(net, loads_of(net), tol=1e-12)
    assert sol.converged and 1e-14 < sol.max_mismatch <= 1e-12
    assert sol.iterations < DEFAULT_MAX_ITER
    ref = solve(net, loads_of(net), tol=1e-12)
    np.testing.assert_allclose(sol.v_complex, ref.v_complex, rtol=0, atol=1e-11)


def test_fixed_point_matches_newton_on_meshed_network():
    # no radial tree, so the sweep cannot solve it
    net = meshed_network()
    inj = loads_of(net)
    ref = solve(net, inj, tol=1e-12)
    sol = fixed_point(net, inj)
    assert sol.converged
    np.testing.assert_allclose(sol.v_complex, ref.v_complex, rtol=0, atol=1e-9)
    assert sol.total_losses == pytest.approx(ref.total_losses, abs=1e-9)
    with pytest.raises(ValueError, match="radial"):
        solve_sweep(net, inj)


def test_fixed_point_rejects_what_newton_rejects(feeder4):
    wrong_length = InjectionSet(np.zeros(3), np.zeros(3))
    non_finite = InjectionSet(np.array([0.0, np.nan, 0.0, 0.0]), np.zeros(4))
    for solver in (solve, fixed_point):
        with pytest.raises(ValueError, match="does not match bus count"):
            solver(feeder4, wrong_length)
        with pytest.raises(ValueError, match="non-finite injection"):
            solver(feeder4, non_finite)
        with pytest.raises(ValueError, match="one entry per bus"):
            solver(feeder4, loads_of(feeder4), v0=np.ones(3, dtype=complex))


def test_fixed_point_reports_exhaustion_and_divergence(feeder4):
    # a load far past the nose point circles until the iterations run out;
    # a larger one blows up at once
    p, q = feeder4.load_vectors()
    exhausted = f"fixed point above mismatch 1.0e-08 after {DEFAULT_MAX_ITER} iterations"
    for scale, failure in ((1e4, exhausted), (1e7, "fixed point diverged at iteration 1")):
        with pytest.raises(PowerFlowError, match=failure):
            fixed_point(feeder4, InjectionSet.from_loads(p * scale, q * scale))


def test_fixed_point_refuses_a_wrong_factor(bus33, monkeypatch):
    # with Z off by 0.1% the iteration settles on the wrong point, where its
    # step residual vanishes; the true Y·V mismatch must refuse it
    net = bus33.network
    arrays = _solver_arrays(net)
    pq, y_pq, z, w = arrays.fixed_point
    monkeypatch.setattr(arrays, "fixed_point", (pq, y_pq, z * 1.001, w))
    with pytest.raises(PowerFlowError, match="fixed point stopped at step residual "
                       r".* with mismatch .* above 1\.0e-08"):
        fixed_point(net, loads_of(net))


@settings(max_examples=40, deadline=None)
@given(radial_feeders())
def test_fixed_point_newton_and_sweep_agree_on_radial_feeders(net):
    # three disjoint implementations: Jacobian, Z-bus factor, and tree sweep
    # (the sweep builds no admittance matrix)
    inj = loads_of(net)
    newton = solve(net, inj, tol=1e-10)
    fixed = fixed_point(net, inj, tol=1e-10)
    assert fixed.converged and fixed.max_mismatch <= 1e-10
    sweep = solve_sweep(net, inj, tol=1e-12)
    np.testing.assert_allclose(fixed.v_complex, newton.v_complex, rtol=0, atol=1e-8)
    np.testing.assert_allclose(sweep.v_complex, newton.v_complex, rtol=0, atol=1e-8)
    assert fixed.total_losses == pytest.approx(sweep.total_losses, abs=1e-8)


def _failed_at(exc: PowerFlowError) -> int:
    """The iteration at which the 1-D kernel's failure says it stopped."""
    found = re.search(r"at iteration (\d+)|after (\d+) iterations", str(exc))
    return int(found.group(1) or found.group(2))


def block_matches_columns(factor, s_pq, v0, tol) -> Counter:
    """Run the block kernel from ``v0`` and check every column against the
    1-D kernel from the same start: the same verdict, the same iteration
    count, and voltages within 1e-12.  The verdict is Newton's test of the
    returned mismatch, nothing else.  Counts how the columns ended."""
    v = v0.copy()
    iterations, mismatch, converged = _fixed_point_block(factor, s_pq, v, tol)
    np.testing.assert_array_equal(converged, mismatch <= tol)
    ends: Counter = Counter()
    for col in range(s_pq.shape[1]):
        try:
            single, it, mis = _fixed_point(factor, s_pq[:, col].copy(), v0[:, col].copy(),
                                           tol)
        except PowerFlowError as exc:
            assert not converged[col], str(exc)
            assert iterations[col] == _failed_at(exc)
            ends[str(exc).split(" at ")[0].split(" after ")[0]] += 1
            continue
        assert converged[col] and iterations[col] == it
        assert mismatch[col] <= tol
        np.testing.assert_allclose(v[:, col], single, rtol=0, atol=1e-12)
        ends["converged at the start" if it == 0 else "converged"] += 1
    return ends


@settings(max_examples=40, deadline=None)
@given(net=radial_feeders(),
       columns=st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.0, 2.5, 40.0, 400.0])
                                  | st.floats(0.0, 3.0),
                                  st.sampled_from(["flat", "solved", "perturbed"]),
                                  st.integers(0, 2**32 - 1)),
                        min_size=1, max_size=8))
def test_block_columns_match_single_fixed_point_solves(net, columns):
    # each column of the block runs the 1-D kernel's rules from its own
    # start: flat, the converged 1-D solve (which meets the target at once)
    # or a random voltage near flat; heavy scales make some columns fail,
    # and the verdict and the iteration count must agree too
    factor = _solver_arrays(net).fixed_point
    pq = factor[0]
    inj = loads_of(net)
    s_pq = np.stack([(inj.p + 1j * inj.q)[pq] * scale for scale, _, _ in columns], axis=1)
    v0 = np.ones((net.n_bus, len(columns)), dtype=complex)
    for col, (_, start, seed) in enumerate(columns):
        rng = np.random.default_rng(seed)
        if start == "perturbed":
            angle = rng.uniform(-0.1, 0.1, len(pq))
            v0[pq, col] = rng.uniform(0.9, 1.1, len(pq)) * np.exp(1j * angle)
        elif start == "solved":
            try:
                v0[:, col] = _fixed_point(factor, s_pq[:, col].copy(), v0[:, col].copy(),
                                          DEFAULT_TOL)[0]
            except PowerFlowError:
                pass
    block_matches_columns(factor, s_pq, v0, DEFAULT_TOL)


def test_block_kernel_ends_each_column_as_the_1d_kernel_does(bus33, feeder4, monkeypatch):
    # one block of feeder4 columns that meet the target at the start,
    # converge, diverge and run out of iterations; bus33 columns that stall
    # under tol at a tolerance below the rounding floor, and that stall above
    # it under a wrong factor
    factor = _solver_arrays(feeder4).fixed_point
    inj = loads_of(feeder4)
    s = (inj.p + 1j * inj.q)[factor[0]]
    s_pq = np.stack([s, s, s * 1e7, s * 1e4, s * 0.5], axis=1)
    v0 = np.ones((feeder4.n_bus, 5), dtype=complex)
    v0[:, 0] = _fixed_point(factor, s.copy(), v0[:, 0].copy(), DEFAULT_TOL)[0]
    assert block_matches_columns(factor, s_pq, v0, DEFAULT_TOL) == {
        "converged at the start": 1, "converged": 2, "fixed point diverged": 1,
        "fixed point above mismatch 1.0e-08": 1}

    net = bus33.network
    arrays = _solver_arrays(net)
    inj = loads_of(net)
    s = (inj.p + 1j * inj.q)[arrays.fixed_point[0]]
    s_pq = np.stack([s * k for k in (0.3, 0.7, 1.0)], axis=1)
    v0 = np.ones((net.n_bus, 3), dtype=complex)
    ends = block_matches_columns(arrays.fixed_point, s_pq, v0, 1e-12)
    assert ends == {"converged": 3}
    pq, y_pq, z, w = arrays.fixed_point
    monkeypatch.setattr(arrays, "fixed_point", (pq, y_pq, z * 1.001, w))
    ends = block_matches_columns(arrays.fixed_point, s_pq, v0, DEFAULT_TOL)
    assert ends == {"fixed point stopped": 3}


@pytest.fixture(scope="module")
def dispatch_blocks33(bus33, devices33, profiles33):
    """Every block a bus33 dgq+v2gq day hands the kernel: the day's base
    block, and the lockstep's Brent trials from their first-order starts
    and rechecks (the hours start from their base-block columns), as
    ``(s_pq, start, tol)``."""
    recorded = []
    block = dispatch._fixed_point_block

    def recording(factor, s_pq, v, tol):
        recorded.append((s_pq.copy(), v.copy(), tol))
        return block(factor, s_pq, v, tol)

    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    dispatch._fixed_point_block = recording
    try:
        DayEvaluator(bus33.network, devices33, profiles33, sc).evaluate((3, 17))
    finally:
        dispatch._fixed_point_block = block
    return recorded


def test_block_kernel_matches_recorded_dispatch_columns(bus33, dispatch_blocks33):
    factor = _solver_arrays(bus33.network).fixed_point
    ends: Counter = Counter()
    for s_pq, v0, tol in dispatch_blocks33:
        ends += block_matches_columns(factor, s_pq, v0, tol)
    assert ends["converged at the start"] > 0 and ends["converged"] > 1000
    assert sum(ends.values()) == sum(s.shape[1] for s, _, _ in dispatch_blocks33)


def columns_stand_alone(factor, s_pq, v0, tol) -> None:
    """Every column of a block ends bit for bit as its width-1 block does:
    the same voltages, iterations, mismatch and verdict."""
    v = v0.copy()
    block = _fixed_point_block(factor, s_pq, v, tol)
    for col in range(s_pq.shape[1]):
        v1 = v0[:, col:col + 1].copy()
        alone = _fixed_point_block(factor, s_pq[:, col:col + 1].copy(), v1, tol)
        np.testing.assert_array_equal(v[:, col], v1[:, 0])
        assert [out[col] for out in block] == [out[0] for out in alone], col


def test_block_columns_do_not_see_each_other(bus33, devices33, profiles33,
                                             dispatch_blocks33, monkeypatch):
    # a column's products must not depend on the block's width or on the
    # other columns, so that a day is the same in any batch: the recorded
    # dispatch blocks of a day, and one base block of eight placements
    factor = _solver_arrays(bus33.network).fixed_point
    for s_pq, v0, tol in dispatch_blocks33:
        columns_stand_alone(factor, s_pq, v0, tol)

    recorded = []
    block = dispatch._fixed_point_block

    def recording(factor, s_pq, v, tol):
        recorded.append((s_pq.copy(), v.copy(), tol))
        return block(factor, s_pq, v, tol)

    monkeypatch.setattr(dispatch, "_fixed_point_block", recording)
    sc = Scenario(mode="none", load_profile_id="load-weekday")
    keys = [(2, 19), (7, 29), (3, 17), (12, 25), (5, 33), (10, 30), (4, 8), (15, 22)]
    DayEvaluator(bus33.network, devices33, profiles33, sc).evaluate_many(keys)
    ((s_pq, v0, tol),) = recorded
    assert s_pq.shape[1] == 8 * 24
    columns_stand_alone(factor, s_pq, v0, tol)


def test_a_failing_column_leaves_its_neighbours_unchanged(feeder4):
    factor = _solver_arrays(feeder4).fixed_point
    inj = loads_of(feeder4)
    s = (inj.p + 1j * inj.q)[factor[0]]
    good = np.stack([s * 0.5, s, s * 2.0], axis=1)
    v = np.ones((feeder4.n_bus, 3), dtype=complex)
    alone = _fixed_point_block(factor, good, v, DEFAULT_TOL)
    for bad in (1e4, 1e7):  # runs out of iterations, diverges
        mixed = np.insert(good, 1, s * bad, axis=1)
        v_mixed = np.ones((feeder4.n_bus, 4), dtype=complex)
        iterations, mismatch, converged = _fixed_point_block(factor, mixed, v_mixed,
                                                             DEFAULT_TOL)
        assert list(converged) == [True, False, True, True]
        np.testing.assert_array_equal(converged, mismatch <= DEFAULT_TOL)
        keep = [0, 2, 3]
        np.testing.assert_array_equal(iterations[keep], alone[0])
        np.testing.assert_array_equal(converged[keep], alone[2])
        np.testing.assert_allclose(v_mixed[:, keep], v, rtol=0, atol=1e-12)


def _stop_rule(factor, s_pq, v0, tol) -> str:
    """The rule that stops the one-column iteration from ``v0``, recomputed
    from its step residuals: ``"target"`` (``tol / 100`` met), ``"stall"``
    (under ``tol``, the residual no longer falls or the iterations end),
    ``"diverged"`` or ``"ran out"``."""
    pq, _, z, w = factor
    vp, prev = v0[pq], math.inf
    with np.errstate(all="ignore"):
        for it in range(1, DEFAULT_MAX_ITER + 1):
            ratio = s_pq / vp
            v_next = w + z @ np.conj(ratio)
            res = float(np.abs(((v_next - vp) * ratio).view(float)).max())
            vp = v_next
            if res <= tol / 100:
                return "target"
            if res <= tol and (res >= prev or it == DEFAULT_MAX_ITER):
                return "stall"
            if not res <= 1e6:
                return "diverged"
            prev = res
    return "ran out"


def _regathers(stops: list[int]) -> int:
    """How often the block kernel gathers its live rows again when its
    iterating columns stop at iterations ``stops``: each time half or fewer
    of the rows it holds are still live, and some are."""
    held = live = len(stops)
    count = 0
    for it in sorted(set(stops)):
        live -= stops.count(it)
        if live and 2 * live <= held:
            held, count = live, count + 1
    return count


def assert_block_is_the_oracle(factor, s_pq, v0, tol) -> None:
    """Every column of the block kernel from ``v0`` equals the one-column
    oracle's solve bit for bit: voltages, iterations, mismatch and verdict
    (a failed column: its iterations, and where the oracle leaves its
    voltages, at the stop, those too).  The verdict is Newton's test of the
    returned mismatch, nothing else."""
    v = v0.copy()
    iterations, mismatch, converged = _fixed_point_block(factor, s_pq, v, tol)
    np.testing.assert_array_equal(converged, mismatch <= tol)
    for col in range(s_pq.shape[1]):
        alone = v0[:, col].copy()
        try:
            single, it, mis = _fixed_point(factor, s_pq[:, col].copy(), alone, tol)
        except PowerFlowError as exc:
            assert not converged[col] and iterations[col] == _failed_at(exc), col
            if "diverged" not in str(exc):
                np.testing.assert_array_equal(v[:, col], alone)
            continue
        assert converged[col] and (iterations[col], mismatch[col]) == (it, mis), col
        np.testing.assert_array_equal(v[:, col], single)


def test_block_kernel_ends_every_column_as_the_oracle_bit_for_bit(bus33):
    # bus33 columns from flat, perturbed and converged starts at load scales
    # from light to far past the nose, at a tol loose enough that some
    # residuals stall under it: they stop at many iterations, by every
    # rule.  Whether a stopped column is masked out or its rows are
    # gathered again, each column must end as the oracle ends it, in
    # blocks of 1 (no re-gather), 13 (one) and 192 (several)
    net, tol = bus33.network, 0.1
    factor = _solver_arrays(net).fixed_point
    pq = factor[0]
    s = (loads_of(net).p + 1j * loads_of(net).q)[pq]
    rng = np.random.default_rng(22)
    scales = np.exp(np.concatenate([rng.uniform(np.log(0.05), np.log(5.0), 140),
                                    rng.uniform(np.log(3.5), np.log(4.8), 28),
                                    rng.uniform(np.log(6.0), np.log(60.0), 12),
                                    rng.uniform(np.log(1e4), np.log(1e6), 12)]))
    s_pq = s[:, None] * scales
    v0 = np.ones((net.n_bus, len(scales)), dtype=complex)
    for col in range(len(scales)):
        amp = rng.choice([0.0, 1e-5, 1e-3, 3e-2, 1e-1])
        v0[pq, col] += amp * (rng.standard_normal(len(pq)) + 1j * rng.standard_normal(len(pq)))
    for col in range(0, 140, 20):  # these start converged
        try:
            v0[:, col] = _fixed_point(factor, s_pq[:, col].copy(), v0[:, col].copy(), tol)[0]
        except PowerFlowError:
            pass
    stops, rules = [], Counter()
    for col in range(len(scales)):
        try:
            stops.append(_fixed_point(factor, s_pq[:, col].copy(), v0[:, col].copy(), tol)[1])
        except PowerFlowError as exc:
            stops.append(_failed_at(exc))
        rules[_stop_rule(factor, s_pq[:, col], v0[:, col], tol) if stops[-1] else "start"] += 1
    assert set(rules) >= {"start", "target", "stall", "diverged", "ran out"}, rules
    assert len(set(stops)) >= 10

    for col in range(len(scales)):
        assert_block_is_the_oracle(factor, s_pq[:, col:col + 1], v0[:, col:col + 1], tol)
    # six columns that run out, and seven that stop earlier by other rules
    order = sorted(range(len(scales)), key=lambda c: stops[c])
    early = [c for c in order if 0 < stops[c] < DEFAULT_MAX_ITER]
    early = early[::len(early) // 7][:7]
    thirteen = early + [c for c in order if stops[c] == DEFAULT_MAX_ITER][:6]
    assert _regathers([stops[c] for c in thirteen]) == 1
    assert_block_is_the_oracle(factor, s_pq[:, thirteen], v0[:, thirteen], tol)
    assert _regathers([it for it in stops if it]) >= 2
    assert_block_is_the_oracle(factor, s_pq, v0, tol)


# -- limit checking ----------------------------------------------------------


def test_full_load_violates_lower_band(solved33):
    net, sol = solved33
    report = check_limits(net, sol)
    assert not report.ok
    ids = [v.bus for v in report.voltage_violations]
    assert 18 in ids
    assert all(v.v < v.bound for v in report.voltage_violations)
    # ampacity is generous on this feeder
    assert not report.thermal_violations
    assert (np.abs(sol.branch_current) < [br.current_cap for br in net.branches]).all()


def test_light_load_is_clean(solved33):
    net, _ = solved33
    p, q = net.load_vectors()
    sol = solve(net, InjectionSet.from_loads(p * 0.3, q * 0.3))
    report = check_limits(net, sol)
    assert report.ok
    lo, hi = net.voltage_bounds()
    assert ((lo < sol.v_mag) & (sol.v_mag < hi)).all()


def test_thermal_violation_detected():
    net = Network(
        (Bus(1, kind="slack"), Bus(2, normal_load_p=0.5, normal_load_q=0.1)),
        (Branch(1, 2, 0.01, 0.02, current_cap=0.25),),
    )
    sol = solve(net, loads_of(net))
    report = check_limits(net, sol)
    assert len(report.thermal_violations) == 1
    tv = report.thermal_violations[0]
    assert (tv.from_bus, tv.to_bus) == (1, 2)
    assert tv.i > tv.i_cap


def test_check_limits_reads_each_networks_own_limits(solved33):
    net, sol = solved33
    report = check_limits(net, sol)
    # the cached limit arrays give the report that fresh ones give
    assert check_limits(net, sol) == report
    assert check_limits(Network(net.buses, net.branches), sol) == report
    # a replace copy with other bounds reads its own
    tight = replace(net, buses=tuple(replace(b, v_min=0.99) for b in net.buses))
    tight_report = check_limits(tight, sol)
    assert len(tight_report.voltage_violations) > len(report.voltage_violations)
    assert {v.bound for v in tight_report.voltage_violations} == {0.99}
    capped = replace(net, branches=tuple(replace(br, current_cap=0.01)
                                         for br in net.branches))
    assert check_limits(capped, sol).thermal_violations and not report.thermal_violations
    assert check_limits(net, sol) == report
