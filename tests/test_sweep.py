from __future__ import annotations

from collections import deque
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pevplan import powerflow, sweep
from pevplan.network import Branch, Bus, Network
from pevplan.powerflow import InjectionSet, NonConvergence, solve
from pevplan.sweep import solve_sweep

from conftest import radial_feeders, small_feeder


def loads_of(net) -> InjectionSet:
    return InjectionSet.from_loads(*net.load_vectors())


def loop_sweep(net, inj, tol=1e-10, max_iter=200) -> SimpleNamespace:
    """The sweep written edge by edge: a breadth-first list of tree edges,
    a backward loop that adds each child's current into its parent and a
    forward loop that drops each child's voltage from its parent's.  The
    matrix sweep's oracle, with the fields of a solution, its sending-end
    flows and loss summed in the edge loop too."""
    n, slack = net.n_bus, net.slack_index
    ends = [(net.index_of(br.from_bus), net.index_of(br.to_bus)) for br in net.branches]
    adj = {i: [] for i in range(n)}
    for k, (f, t) in enumerate(ends):
        adj[f].append((t, k))
        adj[t].append((f, k))
    edges = []  # (branch, parent, child, row reads parent -> child)
    seen, queue = {slack}, deque([slack])
    while queue:
        parent = queue.popleft()
        for child, k in adj[parent]:
            if child not in seen:
                seen.add(child)
                edges.append((k, parent, child, ends[k][0] == parent))
                queue.append(child)
    s_spec = inj.p + 1j * inj.q

    def backward(v):
        draw = np.conj(-s_spec / v)
        draw[slack] = 0.0
        branch_i = np.zeros(len(ends), dtype=complex)
        for k, parent, child, _ in reversed(edges):
            branch_i[k] = draw[child]
            draw[parent] += draw[child]
        return branch_i

    v = np.full(n, 1.0 + 0.0j)
    for it in range(1, max_iter + 1):
        branch_i = backward(v)
        v_new = v.copy()
        for k, parent, child, _ in edges:
            v_new[child] = v_new[parent] - net.branches[k].impedance * branch_i[k]
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta <= tol:
            break
    branch_i = backward(v)
    currents = np.zeros(len(ends), dtype=complex)
    loss = 0.0
    for k, _, _, forward in edges:
        currents[k] = branch_i[k] if forward else -branch_i[k]
        loss += abs(currents[k]) ** 2 * net.branches[k].resistance
    i_net = np.zeros(n, dtype=complex)
    for k, (f, t) in enumerate(ends):
        i_net[f] += currents[k]
        i_net[t] -= currents[k]
    resid = v * np.conj(i_net) - s_spec
    resid[slack] = 0.0
    f_idx = [f for f, _ in ends]
    return SimpleNamespace(v_complex=v, branch_current=currents,
                           branch_flow_from=v[f_idx] * np.conj(currents), total_losses=loss,
                           iterations=it, max_mismatch=float(np.max(np.abs(resid))),
                           converged=delta <= tol)


def assert_sweeps_agree(got, want, atol=1e-12):
    assert got.iterations == want.iterations and got.converged == want.converged
    np.testing.assert_allclose(got.v_complex, want.v_complex, rtol=0, atol=atol)
    np.testing.assert_allclose(got.branch_current, want.branch_current, rtol=0, atol=atol)
    np.testing.assert_allclose(got.branch_flow_from, want.branch_flow_from,
                               rtol=0, atol=atol)
    assert got.total_losses == pytest.approx(want.total_losses, rel=0, abs=atol)
    assert got.max_mismatch == pytest.approx(want.max_mismatch, rel=0, abs=atol)


@settings(max_examples=60, deadline=None)
@given(net=radial_feeders(), scale=st.floats(0.0, 20.0), tol=st.sampled_from([1e-6, 1e-10]))
def test_matrix_sweep_matches_the_edge_loop_on_radial_feeders(net, scale, tol):
    # radial_feeders draws some branch rows reversed and shuffles the buses
    p, q = net.load_vectors()
    inj = InjectionSet.from_loads(p * scale, q * scale)
    want = loop_sweep(net, inj, tol=tol)
    try:
        got = solve_sweep(net, inj, tol=tol)
    except NonConvergence as err:
        got = err.solution
    assert_sweeps_agree(got, want)


def test_matrix_sweep_matches_the_edge_loop_on_bus33(bus33):
    net = bus33.network
    p, q = net.load_vectors()
    for scale in (0.0, 0.3, 0.55, 0.8, 1.0, 2.0):
        inj = InjectionSet.from_loads(p * scale, q * scale)
        assert_sweeps_agree(solve_sweep(net, inj), loop_sweep(net, inj))


def test_sweep_builds_no_admittance_matrix(monkeypatch):
    def refuse(net):
        raise AssertionError("the sweep built an admittance matrix")

    monkeypatch.setattr(powerflow, "build_ybus", refuse)
    net = small_feeder(6)
    assert solve_sweep(net, loads_of(net)).converged


def test_tree_is_built_once_per_network(monkeypatch):
    built = []
    build = sweep._build_tree

    def counted(net, *ends):
        built.append(net)
        return build(net, *ends)

    monkeypatch.setattr(sweep, "_build_tree", counted)
    net = small_feeder(5)
    inj = loads_of(net)
    first = solve_sweep(net, inj)
    solve_sweep(net, inj)
    assert built == [net]
    # a replace copy with other impedances builds and reads its own tree
    doubled = tuple(replace(br, resistance=2.0 * br.resistance) for br in net.branches)
    copy = replace(net, branches=doubled)
    loss = solve_sweep(copy, inj).total_losses
    assert len(built) == 2 and built[1] is copy
    assert loss == solve_sweep(Network(net.buses, doubled), inj).total_losses
    assert loss != pytest.approx(first.total_losses, rel=0.1)


def test_sweep_agrees_with_newton_on_bus33(bus33):
    net = bus33.network
    inj = loads_of(net)
    nr = solve(net, inj, tol=1e-10)
    bf = solve_sweep(net, inj, tol=1e-12)
    # two very different algorithms, one fixed point
    gap = np.max(np.abs(nr.v_complex - bf.v_complex))
    assert gap < 1e-8
    assert bf.total_losses == pytest.approx(nr.total_losses, rel=1e-8)
    assert bf.converged


def test_sweep_kcl_residual_small(bus33):
    # mismatch is recomputed from branch currents alone (no matrix), so it
    # is an independent certificate of the fixed point
    bf = solve_sweep(bus33.network, loads_of(bus33.network), tol=1e-12)
    assert bf.max_mismatch < 1e-10


def test_sweep_agrees_on_small_feeder():
    net = small_feeder(6, r=0.02, x=0.04)
    inj = loads_of(net)
    nr = solve(net, inj, tol=1e-10)
    bf = solve_sweep(net, inj)
    np.testing.assert_allclose(bf.v_mag, nr.v_mag, atol=1e-9)
    np.testing.assert_allclose(bf.v_ang, nr.v_ang, atol=1e-9)


def test_sweep_branch_orientation_matches_file_rows(bus33):
    # currents are reported in the from->to sense of each branch row,
    # exactly like the Newton solver
    net = bus33.network
    inj = loads_of(net)
    nr = solve(net, inj, tol=1e-10)
    bf = solve_sweep(net, inj, tol=1e-12)
    np.testing.assert_allclose(
        bf.branch_current.real, nr.branch_current.real, atol=1e-8
    )
    np.testing.assert_allclose(
        bf.branch_current.imag, nr.branch_current.imag, atol=1e-8
    )


def test_sweep_handles_reversed_branch_rows():
    # same feeder with one branch row written child->parent
    buses = (Bus(1, kind="slack"), Bus(2, normal_load_p=0.02), Bus(3, normal_load_p=0.03))
    forward = Network(buses, (Branch(1, 2, 0.01, 0.02), Branch(2, 3, 0.01, 0.02)))
    flipped = Network(buses, (Branch(1, 2, 0.01, 0.02), Branch(3, 2, 0.01, 0.02)))
    a = solve_sweep(forward, loads_of(forward))
    b = solve_sweep(flipped, loads_of(flipped))
    np.testing.assert_allclose(a.v_mag, b.v_mag, atol=1e-12)
    # the flipped row reports current in its own from->to sense
    np.testing.assert_allclose(
        b.branch_current[1], -a.branch_current[1], atol=1e-12
    )


def test_sweep_requires_radial():
    net = Network(
        (Bus(1, kind="slack"), Bus(2), Bus(3)),
        (Branch(1, 2, 0.01, 0.02), Branch(2, 3, 0.01, 0.02), Branch(1, 3, 0.01, 0.02)),
        radial=False,
    )
    with pytest.raises(ValueError, match="^sweep solver requires a radial network$"):
        solve_sweep(net, InjectionSet(np.zeros(3), np.zeros(3)))


def test_sweep_nonconvergence_carries_state():
    net = small_feeder(4)
    p, q = net.load_vectors()
    inj = InjectionSet.from_loads(p, q)
    with pytest.raises(NonConvergence, match=r"^sweep did not settle after 1 iterations "
                       r"\(last voltage change \d\.\d{3}e[-+]\d+\)$") as err:
        solve_sweep(net, inj, max_iter=1, tol=1e-14)
    assert_sweeps_agree(err.value.solution, loop_sweep(net, inj, max_iter=1, tol=1e-14))


def test_sweep_rejects_a_budget_below_one_iteration(bus33):
    # with no iteration to run there is no voltage change to report
    net = bus33.network
    inj = InjectionSet.from_loads(*net.load_vectors())
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match=f"^max_iter must be at least 1, got {max_iter}$"):
            solve_sweep(net, inj, max_iter=max_iter)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_sweep_rejects_the_tolerances_newton_rejects(bus33, tol):
    # an infinite tol would stop after one iteration and call it converged;
    # a NaN or negative one would run out the iterations at a change of 0
    net = bus33.network
    inj = InjectionSet.from_loads(*net.load_vectors())
    for solver in (solve, solve_sweep):
        with pytest.raises(ValueError, match="^tolerance tol must be positive and finite"):
            solver(net, inj, tol=tol)


def test_sweep_zero_load_trivial(feeder4):
    sol = solve_sweep(feeder4, InjectionSet(np.zeros(4), np.zeros(4)))
    np.testing.assert_allclose(sol.v_mag, 1.0, atol=1e-15)
    assert sol.total_losses == 0.0


def assert_dlf_is_the_kernels_factor(net, monkeypatch):
    """Teng's DLF from the tree is the kernel's ``Z = inv(Y[pq, pq])`` from
    Ybus, with ``w = 1``: one matrix, two disjoint constructions."""
    with monkeypatch.context() as m:
        def refuse(net):
            raise AssertionError("the DLF was built from an admittance matrix")

        m.setattr(powerflow, "build_ybus", refuse)
        dlf = powerflow._solver_arrays(net).tree[0]
    pq, _, z, w = powerflow._solver_arrays(net).fixed_point
    slack = net.slack_index
    assert not dlf[slack].any() and not dlf[:, slack].any()
    np.testing.assert_allclose(dlf[np.ix_(pq, pq)], z, rtol=0, atol=1e-13)
    np.testing.assert_allclose(w, 1.0, rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(net=radial_feeders())
def test_dlf_equals_the_inverse_of_the_admittance_block(net):
    # radial_feeders draws some branch rows reversed and shuffles the buses
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_dlf_is_the_kernels_factor(net, monkeypatch)


def test_dlf_equals_the_inverse_of_the_admittance_block_on_bus33(bus33, monkeypatch):
    assert_dlf_is_the_kernels_factor(replace(bus33.network), monkeypatch)


def test_sweep_iterations_and_gap_on_bus33_at_the_bench_scales(bus33):
    # the counts bench/layers.py and the snapshot benchmark run at; the
    # benchmark checks the Newton–sweep gap against 1e-6
    net = bus33.network
    p, q = net.load_vectors()
    newton, sweep = [], []
    for scale in (0.3, 0.55, 0.8, 1.0):
        inj = InjectionSet.from_loads(p * scale, q * scale)
        sol, ref = solve(net, inj), solve_sweep(net, inj)
        newton.append(sol.iterations)
        sweep.append(ref.iterations)
        assert np.max(np.abs(sol.v_complex - ref.v_complex)) < 1e-8
    assert newton == [1, 1, 1, 1]
    assert sweep == [6, 8, 9, 9]
