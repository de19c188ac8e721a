"""Backward/forward sweep power flow for radial feeders.

Teng's direct load flow (IEEE TPD, 2003) in matrix form.  His BIBC is the
0/1 path matrix ``T`` (``T[k, b] = 1`` when bus ``b`` lies below branch
``k``): it sums the bus draws below each branch into its current.  His BCBV
is ``Tᵀ·diag(z)``: it drops the voltages from the slack outward through the
branch impedances ``z``.  Their product, the DLF matrix ``Tᵀ·diag(z)·T``,
maps bus draws straight to voltage drops, so an iteration is one
matrix-vector product, ``V = V_slack − DLF·conj(−S/V)``.  The tree and its
DLF are built from the branch rows alone, once per network.  No admittance
matrix, no inverse and no Jacobian — deliberately disjoint machinery so
this solver can arbitrate the Newton-Raphson implementation on radial
cases.  Only the solution container is shared: its flows and loss come
from the sweep's own tree currents ``T·conj(−S/V)``, formed once at the
end, through :func:`~pevplan.powerflow._solution`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .network import Network
from .powerflow import (InjectionSet, NonConvergence, PowerFlowSolution, _solution,
                        _solver_arrays, _SolverArrays, _start)


def _build_tree(
    net: Network, f_idx: np.ndarray, t_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The breadth-first tree from the slack, as ``(dlf, sign, paths,
    incidence)`` over the branch rows ``f_idx → t_idx``.

    ``paths[k, b]`` is 1 when bus ``b`` lies below branch ``k`` (Teng's
    BIBC), and ``dlf = pathsᵀ·diag(z)·paths`` with ``z`` the rows'
    impedances (his DLF matrix; its slack row and column are 0).  ``sign``
    is +1 where the row reads away from the slack and −1 where it reads
    towards it, and ``incidence[b, k]`` is +1 at the row's from bus and −1
    at its to bus.
    """
    if not net.radial or len(net.branches) != net.n_bus - 1:
        raise ValueError("sweep solver requires a radial network")
    n, rows = net.n_bus, np.arange(len(net.branches))
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (f, t) in enumerate(zip(f_idx.tolist(), t_idx.tolist())):
        adj[f].append((t, k))
        adj[t].append((f, k))

    paths = np.zeros((len(rows), n), dtype=complex)
    sign = np.empty(len(rows))
    seen = {net.slack_index}
    queue = deque([net.slack_index])
    while queue:
        parent = queue.popleft()
        for child, k in adj[parent]:
            if child in seen:
                continue
            seen.add(child)
            paths[:, child] = paths[:, parent]
            paths[k, child] = 1.0
            sign[k] = 1.0 if f_idx[k] == parent else -1.0
            queue.append(child)
    incidence = np.zeros((n, len(rows)), dtype=complex)
    incidence[f_idx, rows] = 1.0
    incidence[t_idx, rows] = -1.0
    z = np.array([br.impedance for br in net.branches], dtype=complex)
    return paths.T @ (z[:, None] * paths), sign, paths, incidence


def solve_sweep(
    net: Network,
    inj: InjectionSet,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PowerFlowSolution:
    """Sweep solution with the same result container as the Newton solver.

    The slack holds 1.0 pu, as in :func:`~pevplan.powerflow.solve`.
    ``tol`` bounds the per-iteration voltage change, which tracks the power
    residual closely on distribution feeders.  Raises ``ValueError`` for a
    ``max_iter`` below 1 and, as :func:`~pevplan.powerflow.solve` does, for
    a ``tol`` that is not positive and finite or for injections of the
    wrong length or not finite.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    v = _start(net, inj, tol, None)
    s_spec = inj.p + 1j * inj.q
    neg_s = -s_spec
    slack = net.slack_index
    arrays = _solver_arrays(net)
    dlf = arrays.tree[0]

    def draw(voltages: np.ndarray) -> np.ndarray:
        # the current drawn at each bus; the slack's is free
        d = np.conj(neg_s / voltages)
        d[slack] = 0.0
        return d

    it = 0
    for it in range(1, max_iter + 1):
        v_new = 1.0 - dlf @ draw(v)
        delta = float(np.abs(v_new - v).max())
        v = v_new
        if delta <= tol:
            break
    else:
        raise NonConvergence(
            f"sweep did not settle after {max_iter} iterations "
            f"(last voltage change {delta:.3e})",
            _finish(net, arrays, v, draw(v), s_spec, it, converged=False),
        )

    return _finish(net, arrays, v, draw(v), s_spec, it, converged=True)


def _finish(net: Network, arrays: _SolverArrays, v: np.ndarray, draw: np.ndarray,
            s_spec: np.ndarray, iterations: int, converged: bool) -> PowerFlowSolution:
    """The solution at ``v`` through :func:`~pevplan.powerflow._solution`,
    from the sweep's own tree currents, the bus draws ``draw`` summed below
    each branch, and with its KCL residual as the mismatch, so that neither
    reads the voltage drops or an admittance matrix."""
    _, sign, paths, incidence = arrays.tree
    # Convert tree-oriented currents to the branch rows' own orientation.
    currents = sign * (paths @ draw)
    resid = v * np.conj(incidence @ currents) - s_spec
    resid[net.slack_index] = 0.0
    return _solution(net, v, currents, iterations, np.max(np.abs(resid)), converged)
