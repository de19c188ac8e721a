"""Numeric AC power flow on the full network.

:func:`solve` is Newton-Raphson in polar coordinates with the full complex
Jacobian, formed at the nonzeros of the non-slack block ``Y[pq, pq]``
alone: the general solver, and the arbiter the others are checked against.
Next to it sits a private kernel, the Z-bus fixed point
``V[pq] = w·V_slack + Z·conj(S[pq] / V[pq])`` with ``Z = inv(Y[pq, pq])``
(Teng's direct radial load flow in matrix form; with no shunts its drop
matrix equals this ``Z``, so meshed feeders work too), written once, in
block form (:func:`_fixed_point_block`): it solves a start matrix of
columns, the base flows and the lockstep dispatch of a batch of days or
one column for one hour's dispatch.  It takes its products one column at
a time, so a column's result does not depend on the block it runs in.  It
needs no Jacobian, which makes it the cheaper choice for the many
near-identical solves of dispatch; Newton is its fallback.

The slack bus holds a fixed phasor; every other bus is constant-PQ (converter
devices included — their charging/generation enters through the injection
vector).  A previously solved voltage profile can seed either iteration,
which cuts repeated solves during dispatch search to a few iterations.
Each network keeps the arrays its solvers derive from it (the admittance
matrix and its non-slack blocks, the Z factor, the sweep's tree and its
DLF matrix, the limit arrays), each built by the first solve that reads
it.  Every branch current the package reports or scores is formed by
:func:`_branch_currents`, save the sweep's own, and every solution of
either solver is built by :func:`_solution`.  The CSV report tables live in :mod:`pevplan.cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Network, build_ybus

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50
_DIVERGENCE_MISMATCH = 1e6
# The fixed point converges linearly, so it runs this far below the tolerance
# before it returns; its answers then sit as close to Newton's as Newton's
# own stopping error.
_FIXED_POINT_MARGIN = 1e-2


class PowerFlowError(RuntimeError):
    """Base class for solver failures."""


class NonConvergence(PowerFlowError):
    """Mismatch still above tolerance after the iteration budget.

    Carries the partial solution so callers can inspect the final state.
    """

    def __init__(self, message: str, solution: "PowerFlowSolution") -> None:
        super().__init__(message)
        self.solution = solution


class SingularJacobian(PowerFlowError):
    """The correction system lost rank mid-iteration."""

    def __init__(self, iteration: int, cond_estimate: float) -> None:
        super().__init__(
            f"singular Jacobian at iteration {iteration} "
            f"(condition estimate {cond_estimate:.3e})"
        )
        self.iteration = iteration
        self.cond_estimate = cond_estimate


@dataclass(frozen=True)
class InjectionSet:
    """Net per-bus injections (generation minus load), pu, one timestep.

    The slack entry is a placeholder; the solver treats slack power as free.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("p and q must be 1-d arrays of equal length")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_loads(cls, p_load, q_load) -> "InjectionSet":
        """Injections for pure loads (consumption enters with minus sign)."""
        return cls(-np.asarray(p_load, dtype=float), -np.asarray(q_load, dtype=float))

    def check_finite(self, slack_index: int) -> None:
        ok = np.isfinite(self.p) & np.isfinite(self.q)
        ok[slack_index] = True
        if not ok.all():
            raise ValueError("non-finite injection at a non-slack bus")


@dataclass(frozen=True)
class PowerFlowSolution:
    """Converged (or flagged) state of one power-flow solve."""

    v_complex: np.ndarray  # the bus voltages the solve ended at
    branch_current: np.ndarray  # complex, oriented from_bus -> to_bus
    branch_flow_from: np.ndarray  # complex power entering at the from end
    total_losses: float
    iterations: int
    max_mismatch: float
    converged: bool
    diverged: bool = False

    @cached_property
    def v_mag(self) -> np.ndarray:
        return np.abs(self.v_complex)

    @property
    def v_ang(self) -> np.ndarray:
        return np.angle(self.v_complex)

    @property
    def v_min(self) -> float:
        return float(self.v_mag.min())


def _cond_estimate(jac: np.ndarray) -> float:
    if not np.all(np.isfinite(jac)):
        return float("inf")
    try:
        return float(np.linalg.cond(jac))
    except np.linalg.LinAlgError:
        return float("inf")


class _SolverArrays:
    """Arrays that every solve on one network reuses.

    ``branches`` holds the per-branch (from-index, to-index, series
    admittance, resistance) arrays behind every solution's branch
    quantities.  Everything else is computed on first use, so a solver
    builds only what it reads: Newton the admittance matrix ``y``, its
    non-slack blocks and its Jacobian plan, the fixed point its factor, the
    sweep its tree with the tree's DLF matrix (neither needs ``y``), and the
    limit checks the limit arrays.
    """

    def __init__(self, net: Network) -> None:
        self.branches = (
            np.array([net.index_of(br.from_bus) for br in net.branches], dtype=int),
            np.array([net.index_of(br.to_bus) for br in net.branches], dtype=int),
            np.array([1.0 / br.impedance for br in net.branches], dtype=complex),
            np.array([br.resistance for br in net.branches], dtype=float),
        )
        self._net = net

    @cached_property
    def y(self) -> np.ndarray:
        return build_ybus(self._net)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pq, Y[pq, :], Y[pq, pq])``, ``pq`` the non-slack bus positions."""
        pq = np.delete(np.arange(self._net.n_bus), self._net.slack_index)
        y_pq = self.y[pq]
        return pq, y_pq, np.ascontiguousarray(y_pq[:, pq])

    @cached_property
    def jacobian_plan(self) -> tuple[np.ndarray, ...]:
        """``(rows, cols, values, diagonal slots, flat)`` of ``Y[pq, pq]``'s
        nonzeros and every diagonal; ``flat`` holds their places in the
        flattened Jacobian, each entry's ∂P and ∂Q by θ, then by ``|V|``."""
        y_pp = self.blocks[2]
        npq = len(y_pp)
        mask = y_pp != 0
        np.fill_diagonal(mask, True)
        rows, cols = np.nonzero(mask)
        by_theta = (rows[:, None] + [0, npq]) * (2 * npq) + cols[:, None]
        flat = np.concatenate((by_theta, by_theta + npq)).ravel()
        return rows, cols, y_pp[rows, cols], np.flatnonzero(rows == cols), flat

    @cached_property
    def fixed_point(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(pq, Y[pq, :], Z, w)`` with ``Z = inv(Y[pq, pq])``, ``w = −Z·Y[pq, slack]``."""
        pq, y_pq, y_pp = self.blocks
        z = np.linalg.inv(y_pp)
        return pq, y_pq, z, -z @ y_pq[:, self._net.slack_index]

    @cached_property
    def pq_row(self) -> dict[int, int]:
        """Bus position -> row of the non-slack vectors of :attr:`fixed_point`."""
        return {int(pos): row for row, pos in enumerate(self.blocks[0])}

    @cached_property
    def tree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The sweep's radial tree and DLF matrix (:func:`pevplan.sweep._build_tree`)."""
        from .sweep import _build_tree  # the sweep imports this module

        return _build_tree(self._net, *self.branches[:2])

    @cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-bus lower and upper voltage bounds and per-branch ampacities, pu."""
        lo, hi = self._net.voltage_bounds()
        return lo, hi, np.array([br.current_cap for br in self._net.branches], dtype=float)


def _solver_arrays(net: Network) -> _SolverArrays:
    """The arrays of ``net``, built on its first solve and kept on it."""
    if net._arrays is None:
        object.__setattr__(net, "_arrays", _SolverArrays(net))
    return net._arrays


def _branch_currents(v: np.ndarray, branches: tuple[np.ndarray, ...]) -> np.ndarray:
    """Branch currents ``(V_from − V_to)·y`` (from → to) at voltages ``v``,
    along its last axis, for any leading shape of ``v`` (a state a row).

    The branch ends are gathered with ``take``: ``v[:, idx]`` would lay
    the rows out column-major, and their sums would then run in another
    order once there are two rows or more.
    """
    f_idx, t_idx, y_series, _ = branches
    return (v.take(f_idx, axis=-1) - v.take(t_idx, axis=-1)) * y_series


def _solution(net: Network, v: np.ndarray, currents: np.ndarray, iterations: int,
              mismatch: float, converged: bool, diverged: bool = False) -> PowerFlowSolution:
    """The solution at ``v`` with branch currents ``currents``, its
    sending-end flows and its total series I²R loss."""
    f_idx, _, _, r = _solver_arrays(net).branches
    return PowerFlowSolution(
        v_complex=v,
        branch_current=currents,
        branch_flow_from=v[f_idx] * np.conj(currents),
        total_losses=float((np.abs(currents) ** 2 * r).sum()),
        iterations=iterations,
        max_mismatch=float(mismatch),
        converged=converged,
        diverged=diverged,
    )


def _finish(net: Network, v: np.ndarray, iterations: int, mismatch: float,
            converged: bool, diverged: bool = False) -> PowerFlowSolution:
    """The solution at ``v``, with the branch currents of its voltage drops."""
    currents = _branch_currents(v, _solver_arrays(net).branches)
    return _solution(net, v, currents, iterations, mismatch, converged, diverged)


def _start(net: Network, inj: InjectionSet, tol: float,
           v0: np.ndarray | None) -> np.ndarray:
    """Check a solve's inputs; the starting voltage vector (flat or ``v0``)."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance tol must be positive and finite, got {tol}")
    n = net.n_bus
    if len(inj.p) != n:
        raise ValueError("injection length does not match bus count")
    inj.check_finite(net.slack_index)
    if v0 is not None:
        v = np.asarray(v0, dtype=complex).copy()
        if v.shape != (n,):
            raise ValueError("v0 must have one entry per bus")
    else:
        v = np.full(n, 1.0 + 0.0j)
    v[net.slack_index] = 1.0
    return v


def solve(
    net: Network,
    inj: InjectionSet,
    tol: float = DEFAULT_TOL,
    v0: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Newton-Raphson power flow; raises on failure, never returns silently bad.

    The slack holds 1.0 pu.  ``v0`` warm-starts the iteration with a complex
    voltage vector (its slack entry is overwritten).
    """
    v = _start(net, inj, tol, v0)
    arrays = _solver_arrays(net)
    (pq, y_pq, _), plan = arrays.blocks, arrays.jacobian_plan
    s_spec = (inj.p + 1j * inj.q)[pq]
    npq = len(pq)
    # the state lives in the non-slack vectors; v holds them and the slack's 1.0
    v_pq = v[pq]
    vm = np.abs(v_pq)
    va = np.angle(v_pq)
    f = np.empty(2 * npq)

    def mismatch() -> tuple[np.ndarray, float]:  # (Y·V)[pq], max |f|; [ΔP; ΔQ] into f
        ibus = y_pq @ v
        ds = v_pq * np.conj(ibus) - s_spec
        f[:npq], f[npq:] = ds.real, ds.imag
        return ibus, float(np.abs(f).max(initial=0.0))

    ibus, mis = mismatch()

    for it in range(DEFAULT_MAX_ITER + 1):
        if mis <= tol:
            return _finish(net, v, it, mis, converged=True)
        diverged = not math.isfinite(mis) or mis > _DIVERGENCE_MISMATCH
        if diverged or it == DEFAULT_MAX_ITER:
            break
        jac = _jacobian(plan, v_pq, vm, ibus)
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise SingularJacobian(it, _cond_estimate(jac)) from None
        if not np.isfinite(dx).all():
            raise SingularJacobian(it, _cond_estimate(jac))

        va += dx[:npq]
        vm += dx[npq:]
        v_pq = vm * np.exp(1j * va)
        v[pq] = v_pq
        ibus, mis = mismatch()

    reason = (f"diverged at iteration {it}" if it < DEFAULT_MAX_ITER
              else f"no convergence after {DEFAULT_MAX_ITER} iterations")
    raise NonConvergence(f"{reason} (mismatch {mis:.3e})",
                         _finish(net, v, it, mis, converged=False, diverged=diverged))


def _jacobian(plan: tuple[np.ndarray, ...], v: np.ndarray, vm: np.ndarray,
              ibus: np.ndarray) -> np.ndarray:
    """Newton's real Jacobian over the non-slack buses, ``[[dP/dθ, dP/d|V|],
    [dQ/dθ, dQ/d|V|]]``, at the entries of :attr:`_SolverArrays.jacobian_plan`,
    from the non-slack ``V``, ``|V|`` and ``I = (Y·V)[pq]``.  The rest is 0, but
    for the d/d|V| column of a bus at |V| = 0: NaN, as ``0·NaN`` made it.

    The complex entries are written with row/column scaling instead of
    diagonal-matrix products: dS/dθ = j·diag(V)·conj(diag(I) − Y·diag(V))
    and dS/d|V| = diag(V)·conj(Y·diag(V/|V|)) + conj(diag(I))·diag(V/|V|).
    """
    rows, cols, y, diag, flat = plan
    npq = len(v)
    m = -(y * v[cols])
    m[diag] += ibus
    ds_dva = (1j * v)[rows] * np.conj(m)
    degenerate = not vm.all()
    if degenerate:
        # a |V| = 0 state turns vnorm into NaN, which the singular-Jacobian
        # check of the solve converts into a clear error
        with np.errstate(invalid="ignore", divide="ignore"):
            vnorm = v / vm
    else:
        vnorm = v / vm
    ds_dvm = v[rows] * np.conj(y * vnorm[cols])
    ds_dvm[diag] += np.conj(ibus) * vnorm
    jac = np.zeros((2 * npq, 2 * npq))
    jac.ravel()[flat] = np.concatenate((ds_dva, ds_dvm)).view(float)
    if degenerate:
        jac[:, npq + np.flatnonzero(vm == 0)] = np.nan
    return jac


def _fixed_point_block(
    factor: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    s_pq: np.ndarray,
    v: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Z-bus fixed point on every column of ``v`` at once, in place.

    ``factor`` is ``(pq, Y[pq, :], Z, w)`` of :class:`_SolverArrays`,
    ``s_pq`` holds one column of non-slack injections per case and ``v``
    one full start column per case, 1.0 pu at the slack.  Each column
    steps ``V' = w + Z·conj(S/V)``.  After a step ``Y[pq, :]·V' =
    conj(S/V)`` holds, so the mismatch at ``V'`` is the step residual
    ``S·(V' − V)/V`` and the loop needs no ``Y·V`` product.  Per column:

    - a start whose true ``Y·V`` mismatch already meets the target
      ``tol / 100`` is returned unchanged after 0 iterations, so a trial
      that lands on the current setpoint scores the current state;
    - otherwise the column steps until its residual meets the target, or,
      under ``tol``, until the residual no longer falls or the last of
      ``DEFAULT_MAX_ITER`` iterations; it stops unconverged on a residual
      that is not finite or exceeds ``_DIVERGENCE_MISMATCH`` (divergence),
      or after ``DEFAULT_MAX_ITER`` iterations above ``tol``;
    - a column that stopped under ``tol`` converges only if its true
      ``Y·V`` mismatch, taken once more, meets ``tol``: Newton's test.

    The iterating columns are held as rows.  A column that stops is
    written back to ``v`` once and masked out; the held rows are gathered
    again only once half or fewer of them are live.  Every product is
    taken column by column (:func:`_products`), so a column ends bit for
    bit as it does alone, whatever the block's width and the other rows
    hold.  Returns ``(iterations, mismatch, converged)``, one entry per
    column, the mismatch the true one; a column that did not converge is
    left where it stopped.
    """
    pq, y_pq, z, w = factor
    target = tol * _FIXED_POINT_MARGIN
    s_rows = s_pq.T
    iterations = np.zeros(len(s_rows), dtype=int)
    # a zero or overflowing voltage shows up as a non-finite residual
    with np.errstate(all="ignore"):
        vp_all = np.ascontiguousarray(v[pq].T)
        mismatch = _max_abs(vp_all * np.conj(_products(y_pq, v.T)) - s_rows)
        moved = np.flatnonzero(~(mismatch <= target))
        if not moved.size:
            return iterations, mismatch, mismatch <= tol
        accepted = np.ones(len(mismatch), dtype=bool)
        cols, s, vp, prev = moved, s_rows[moved], vp_all[moved], mismatch[moved]
        live = np.ones(len(cols), dtype=bool)
        for it in range(1, DEFAULT_MAX_ITER + 1):
            ratio = s / vp
            v_next = _products(z, np.conj(ratio))
            v_next += w
            res = _max_abs((v_next - vp) * ratio)
            # under tol a column stops once its residual stalls, and otherwise
            # only on the target; after the last iteration none goes on
            last = it == DEFAULT_MAX_ITER
            limit = tol if last else np.where(res >= prev, tol, target)
            stop = res <= limit
            going = np.zeros_like(stop) if last else ~stop & (res <= _DIVERGENCE_MISMATCH)
            vp, prev = v_next, res
            ended = live > going  # the live columns that stop here
            if not ended.any():
                continue
            done = cols[ended]
            vp_all[done] = v_next[ended]
            iterations[done] = it
            accepted[done] = stop[ended]
            live &= going
            if not (held := np.count_nonzero(live)):
                break
            if 2 * held <= len(cols):
                cols, s, vp, prev, live = cols[live], s[live], vp[live], prev[live], live[live]
        v[pq] = vp_all.T
        mismatch[moved] = _max_abs(
            vp_all[moved] * np.conj(_products(y_pq, v.T[moved])) - s_rows[moved])
    return iterations, mismatch, accepted & (mismatch <= tol)


def _products(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``a @ x`` for each row ``x`` of ``rows``, one row a result.

    A stacked matrix-vector product: each row is multiplied alone, so its
    result does not depend on how many rows there are or what they hold,
    as a matrix-matrix product's would.
    """
    return np.matmul(a, rows[:, :, None])[:, :, 0]


def _max_abs(ds: np.ndarray) -> np.ndarray:
    """Max |real|, |imag| of each C-contiguous row: its max |ΔP|, |ΔQ|."""
    return np.abs(ds.view(float)).max(axis=1, initial=0.0)


@dataclass(frozen=True)
class VoltageViolation:
    bus: int
    v: float
    bound: float


@dataclass(frozen=True)
class ThermalViolation:
    from_bus: int
    to_bus: int
    i: float
    i_cap: float


@dataclass(frozen=True)
class LimitReport:
    """Exhaustive listing of voltage-band and ampacity violations."""

    voltage_violations: tuple[VoltageViolation, ...]
    thermal_violations: tuple[ThermalViolation, ...]
    voltage_margin: float
    thermal_margin: float

    @property
    def ok(self) -> bool:
        return not self.voltage_violations and not self.thermal_violations


def _limit_excess(
    v_mag: np.ndarray, i_mag: np.ndarray,
    limits: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Band and ampacity overshoot of |V| and |I|, 0 inside the limits.

    The last axis runs over buses and branches respectively, so a row per
    hour scores a whole day at once.
    """
    lo, hi, cap = limits
    band = np.maximum(lo - v_mag, 0.0) + np.maximum(v_mag - hi, 0.0)
    return band, np.maximum(i_mag - cap, 0.0)


def check_limits(net: Network, sol: PowerFlowSolution) -> LimitReport:
    """Compare a converged solution against bus voltage bands and ampacities."""
    if not sol.converged:
        raise PowerFlowError("refusing to check limits of a non-converged solution")
    lo, hi, cap = limits = _solver_arrays(net).limits
    v = sol.v_mag
    i = np.abs(sol.branch_current)
    band, amp = _limit_excess(v, i, limits)
    v_viol = tuple(
        VoltageViolation(net.buses[pos].id, float(v[pos]),
                         float(lo[pos] if v[pos] < lo[pos] else hi[pos]))
        for pos in np.flatnonzero(band)
    )
    t_viol = tuple(
        ThermalViolation(net.branches[k].from_bus, net.branches[k].to_bus,
                         float(i[k]), float(cap[k]))
        for k in np.flatnonzero(amp)
    )
    finite = np.isfinite(cap)
    return LimitReport(
        v_viol, t_viol,
        float(np.minimum(v - lo, hi - v).min(initial=math.inf)),
        float((cap - i)[finite].min(initial=math.inf)),
    )
