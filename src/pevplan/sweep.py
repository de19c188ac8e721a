"""Backward/forward sweep power flow for radial feeders.

Current-summation variant: backward pass accumulates branch currents from
the leaves, forward pass drops voltages from the slack outward.  No
admittance matrix and no Jacobian — deliberately disjoint machinery so this
solver can arbitrate the Newton-Raphson implementation on radial cases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .network import Network
from .powerflow import InjectionSet, NonConvergence, PowerFlowSolution


@dataclass(frozen=True)
class _TreeEdge:
    branch_index: int
    parent: int  # bus position
    child: int  # bus position
    z: complex
    file_forward: bool  # True when the branch row reads parent -> child


def _build_tree(net: Network) -> list[_TreeEdge]:
    """Edges in breadth-first order from the slack, orientation resolved."""
    if not net.radial or len(net.branches) != net.n_bus - 1:
        raise ValueError("sweep solver requires a radial network")
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(net.n_bus)}
    for k, br in enumerate(net.branches):
        f = net.index_of(br.from_bus)
        t = net.index_of(br.to_bus)
        adj[f].append((t, k))
        adj[t].append((f, k))

    edges: list[_TreeEdge] = []
    seen = {net.slack_index}
    queue = deque([net.slack_index])
    while queue:
        parent = queue.popleft()
        for child, k in adj[parent]:
            if child in seen:
                continue
            seen.add(child)
            br = net.branches[k]
            edges.append(
                _TreeEdge(
                    branch_index=k,
                    parent=parent,
                    child=child,
                    z=br.impedance,
                    file_forward=net.index_of(br.from_bus) == parent,
                )
            )
            queue.append(child)
    return edges


def solve_sweep(
    net: Network,
    inj: InjectionSet,
    tol: float = 1e-10,
    max_iter: int = 200,
    slack_voltage: complex = 1.0 + 0.0j,
) -> PowerFlowSolution:
    """Sweep solution with the same result container as the Newton solver.

    ``tol`` bounds the per-iteration voltage change, which tracks the power
    residual closely on distribution feeders.
    """
    n = net.n_bus
    if len(inj.p) != n:
        raise ValueError("injection length does not match bus count")
    s_spec = inj.p + 1j * inj.q
    slack = net.slack_index
    inj.check_finite(slack)
    edges = _build_tree(net)

    v = np.full(n, slack_voltage, dtype=complex)

    def backward(voltages: np.ndarray) -> np.ndarray:
        # Current drawn at each bus, then accumulated up the tree.
        draw = np.conj(-s_spec / voltages)
        draw[slack] = 0.0
        branch_i = np.zeros(len(net.branches), dtype=complex)
        for e in reversed(edges):
            branch_i[e.branch_index] = draw[e.child]
            draw[e.parent] += draw[e.child]
        return branch_i

    it = 0
    for it in range(1, max_iter + 1):
        branch_i = backward(v)
        v_new = v.copy()
        v_new[slack] = slack_voltage
        for e in edges:
            v_new[e.child] = v_new[e.parent] - e.z * branch_i[e.branch_index]
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta <= tol:
            break
    else:
        sol = _finish(net, edges, v, backward(v), s_spec, it, converged=False)
        raise NonConvergence(
            f"sweep did not settle after {max_iter} iterations "
            f"(last voltage change {delta:.3e})",
            sol,
        )

    return _finish(net, edges, v, backward(v), s_spec, it, converged=True)


def _finish(
    net: Network,
    edges: list[_TreeEdge],
    v: np.ndarray,
    branch_i_tree: np.ndarray,
    s_spec: np.ndarray,
    iterations: int,
    converged: bool,
) -> PowerFlowSolution:
    # Convert tree-oriented currents to the branch rows' own orientation.
    currents = np.zeros(len(net.branches), dtype=complex)
    flows = np.zeros(len(net.branches), dtype=complex)
    loss = 0.0
    for e in edges:
        i_file = branch_i_tree[e.branch_index] if e.file_forward else -branch_i_tree[e.branch_index]
        currents[e.branch_index] = i_file
        br = net.branches[e.branch_index]
        f = net.index_of(br.from_bus)
        flows[e.branch_index] = v[f] * np.conj(i_file)
        loss += (abs(i_file) ** 2) * br.resistance

    # KCL residual straight from branch currents — no admittance matrix.
    i_net = np.zeros(net.n_bus, dtype=complex)
    for k, br in enumerate(net.branches):
        f = net.index_of(br.from_bus)
        t = net.index_of(br.to_bus)
        i_net[f] += currents[k]
        i_net[t] -= currents[k]
    s_calc = v * np.conj(i_net)
    resid = s_calc - s_spec
    resid[net.slack_index] = 0.0
    mismatch = float(np.max(np.abs(resid)))

    return PowerFlowSolution(
        v_complex=v,
        branch_current=currents,
        branch_flow_from=flows,
        total_losses=loss,
        iterations=iterations,
        max_mismatch=mismatch,
        converged=converged,
    )
