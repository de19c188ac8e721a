"""Per-hour reactive-power dispatch of converter devices.

Three participation modes: ``none`` (all converters idle on the reactive
axis), ``dgq`` (PV inverters support voltage), ``dgq+v2gq`` (PV inverters
plus PEV-lot converters).  Dispatch is a coordinate-descent sweep: each
participating device in turn gets a bounded one-dimensional search over its
capability interval, scored by a fresh power-flow solve.  A search's trial
points are scored on the bare Z-bus fixed-point kernel, seeded with a
first-order step and read for |V| and the loss only; the base, accept and
recheck solves return full solutions from the fixed point.  Either falls back
to Newton (:func:`solve`), held to the fixed point's target, only if the
fixed point raises, so every score is Newton-converged, all scores have one
accuracy, and the fallbacks are exactly the calls to ``solve``.  Moves are
accepted only when they improve the hour's partial objective by more than
the solves' own error, so the dispatched state is never worse than the
undispatched one and no accept hangs on rounding.  The ``dgq+v2gq`` mode
runs the PV-only stage first and adds the lots afterwards, which makes the
three modes monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .devices import Device, PvUnit, p_injection, q_capability
from .network import Network
from .powerflow import (
    _FIXED_POINT_MARGIN,
    DEFAULT_TOL,
    InjectionSet,
    NonConvergence,
    PowerFlowError,
    PowerFlowSolution,
    _currents_and_loss,
    _fixed_point,
    _solver_arrays,
    solve,
    solve_fixed_point,
)

MODES = ("none", "dgq", "dgq+v2gq")
_MODE_ALIASES = {"dgq-v2gq": "dgq+v2gq"}

MAX_SWEEPS = 10
SWEEP_IMPROVEMENT_TOL = 1e-6
CAPABILITY_RECHECK_TOL = 1e-9
_TRIAL_PENALTY = 1e9
_SEARCH_REL_XATOL = 0.08
_SEARCH_MIN_XATOL = 1e-4
_SEARCH_MAXITER = 10


def canonical_mode(mode: str) -> str:
    m = mode.strip().lower()
    m = _MODE_ALIASES.get(m, m)
    if m not in MODES:
        raise ValueError(f"unknown scenario mode {mode!r}; expected one of {MODES}")
    return m


@dataclass(frozen=True)
class Scenario:
    """Study configuration: participation mode, objective weights, reference.

    ``v_ref`` is the target voltage (scalar, applied to every bus).
    ``load_profile_id`` optionally names a profile that scales all normal
    loads hour by hour; ``None`` holds them constant.
    """

    mode: str = "none"
    weights: tuple[float, float, float] = (0.6, 0.1, 0.3)
    v_ref: float = 1.0
    load_profile_id: str | None = None
    pf_tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", canonical_mode(self.mode))
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3 or any(x < 0 for x in w):
            raise ValueError("weights must be three nonnegative numbers")
        object.__setattr__(self, "weights", w)
        if not 0.5 <= self.v_ref <= 1.5:
            raise ValueError("v_ref out of plausible per-unit range")
        if not 0.0 < self.pf_tol < np.inf:
            raise ValueError(f"pf_tol must be positive and finite, got {self.pf_tol}")

    def participating(self, devices: Sequence[Device]) -> list[Device]:
        if self.mode == "none":
            return []
        if self.mode == "dgq":
            return [d for d in devices if isinstance(d, PvUnit)]
        return list(devices)


def hour_injections(
    net: Network,
    devices: Sequence[Device],
    hour: int,
    q_settings: Mapping[str, float] | None = None,
    load_scale: float = 1.0,
) -> InjectionSet:
    """Net injections for one hour: scaled normal loads plus device powers."""
    p_load, q_load = net.load_vectors()
    p = -p_load * load_scale
    q = -q_load * load_scale
    q_settings = q_settings or {}
    for dev in devices:
        pos = net.index_of(dev.bus)
        p[pos] += p_injection(dev)[hour]
        q[pos] -= q_settings.get(dev.label, 0.0)
    return InjectionSet(p, q)


def _score(scenario: Scenario, v_mag: np.ndarray, loss: float) -> float:
    a, b, _ = scenario.weights
    return a * float(np.abs(scenario.v_ref - v_mag).sum()) + b * loss


def partial_objective(net: Network, sol: PowerFlowSolution, scenario: Scenario) -> float:
    """The hour's dispatch score: a·Σ|v_ref − V| + b·P_Loss."""
    return _score(scenario, sol.v_mag, sol.total_losses)


@dataclass(frozen=True)
class DispatchResult:
    """One hour's dispatched state."""

    hour: int
    q_settings: dict[str, float]  # every device label, zeros when idle
    solution: PowerFlowSolution
    base_solution: PowerFlowSolution
    score: float
    base_score: float
    infeasible_devices: tuple[str, ...] = ()
    reverted: bool = False


def _newton(net: Network, inj: InjectionSet, tol: float,
            v0: np.ndarray | None) -> PowerFlowSolution:
    """Newton (:func:`solve`) held to the fixed point's target, ``tol / 100``.

    Every score then has one accuracy, whichever solver produced it.  If
    rounding keeps the mismatch above the target until the iterations run
    out, the final state is accepted once it meets ``tol``, as the fixed
    point accepts a stalled residual.
    """
    try:
        return solve(net, inj, tol=tol * _FIXED_POINT_MARGIN, v0=v0)
    except NonConvergence as exc:
        sol = exc.solution
        if sol is None or not sol.max_mismatch <= tol:
            raise
        return replace(sol, converged=True)


class _Hour:
    """One hour's injections and solvers for :func:`dispatch_q`.

    Solves within an hour differ only in device Q, so P and the scaled
    normal-load Q are assembled once.  :meth:`solution` returns a full
    solution from the fixed point, or from Newton if the fixed point raises.
    :meth:`trial` scores Brent points on the bare fixed-point kernel.
    """

    def __init__(self, net: Network, devices: Sequence[Device], hour: int,
                 scenario: Scenario, load_scale: float) -> None:
        self.net = net
        self.scenario = scenario
        self.fixed = hour_injections(net, devices, hour, load_scale=load_scale)
        self.dev_pos = [(dev, net.index_of(dev.bus)) for dev in devices]
        arrays = _solver_arrays(net)
        self.factor = arrays.fixed_point
        self.branches = arrays.branches
        self.pq_row = arrays.pq_row

    def q_injections(self, settings: Mapping[str, float]) -> np.ndarray:
        q_inj = self.fixed.q.copy()
        for dev, pos in self.dev_pos:
            q_inj[pos] -= settings[dev.label]
        return q_inj

    def solution(self, settings: Mapping[str, float],
                 warm: np.ndarray | None) -> PowerFlowSolution:
        inj = InjectionSet(self.fixed.p, self.q_injections(settings))
        tol = self.scenario.pf_tol
        try:
            return solve_fixed_point(self.net, inj, tol=tol, v0=warm)
        except PowerFlowError:
            return _newton(self.net, inj, tol, warm)

    def trial(self, settings: Mapping[str, float], dev: Device,
              current: PowerFlowSolution
              ) -> tuple[Callable[[float], float], Callable[[float], np.ndarray]]:
        """Score and start vector of ``dev`` at setpoint ``qv``.

        The other devices stay at ``settings``.  The start is the first-order
        step off ``current``: ``V + Z[:, k]·(j·Δq / conj(V[k]))``.  A trial
        runs the kernel from it, building no injection set and no solution;
        if the kernel fails, the point goes to Newton (:func:`solve`), and a
        Newton failure scores ``_TRIAL_PENALTY``.  A full solve of the same
        setpoint from the same start reproduces the trial's score, to the
        last bit when no other device shares the bus.
        """
        pos = self.net.index_of(dev.bus)
        k = self.pq_row[pos]
        pq, _, z, _ = self.factor
        p = self.fixed.p
        rest = dict(settings)
        rest[dev.label] = 0.0
        q_rest = self.q_injections(rest)
        s_pq = (p + 1j * q_rest)[pq]
        v_cur = current.v_complex
        q_now = settings[dev.label]
        dv_dq = np.zeros_like(v_cur)
        dv_dq[pq] = z[:, k] * (1j / np.conj(v_cur[pos]))
        tol = self.scenario.pf_tol

        def start(qv: float) -> np.ndarray:
            return v_cur + dv_dq * (qv - q_now)

        def score(qv: float) -> float:
            s_pq[k] = complex(p[pos], q_rest[pos] - qv)
            try:
                v, _, _ = _fixed_point(self.factor, s_pq, start(qv), tol)
            except PowerFlowError:
                q_inj = q_rest.copy()
                q_inj[pos] -= qv
                try:
                    sol = _newton(self.net, InjectionSet(p, q_inj), tol, start(qv))
                except NonConvergence:
                    return _TRIAL_PENALTY
                return partial_objective(self.net, sol, self.scenario)
            return _score(self.scenario, np.abs(v), _currents_and_loss(v, self.branches)[1])

        return score, start


def dispatch_q(
    net: Network,
    devices: Sequence[Device],
    hour: int,
    scenario: Scenario,
    load_scale: float = 1.0,
    v0: np.ndarray | None = None,
) -> DispatchResult:
    """Choose reactive setpoints for one hour under the scenario's mode.

    Raises :class:`NonConvergence` if even the undispatched power flow fails;
    trial failures inside the search are absorbed (the trial is discarded).
    """
    q: dict[str, float] = {dev.label: 0.0 for dev in devices}
    hr = _Hour(net, devices, hour, scenario, load_scale)

    base = hr.solution(q, v0)
    base_score = partial_objective(net, base, scenario)

    participants = scenario.participating(devices)
    if not participants:
        return DispatchResult(hour, q, base, base, base_score, base_score)

    stages: list[list[Device]]
    if scenario.mode == "dgq+v2gq":
        stages = [[d for d in participants if isinstance(d, PvUnit)], participants]
    else:
        stages = [participants]

    current_sol = base
    current_score = base_score
    infeasible: list[str] = []
    # A move must gain more than the solves' own error.  Each solve stops at
    # a mismatch of at most pf_tol·_FIXED_POINT_MARGIN (1e-10 at the default
    # tolerance), and a mismatch δ leaves an error of order δ in a score
    # a·Σ|v_ref − V| + b·P_loss, because V moves by about Z·δ / V.  A smaller
    # gain is rounding noise: accepting it marks the stage dirty for more
    # searches, and which such moves happen changes with the summation
    # order.  ε sits at the low end of that error, so every gain the solves
    # can resolve is still taken (on bus33 a gap of 1e-8 already moves the
    # day's breakdown by 2e-4).
    min_gain = scenario.pf_tol * _FIXED_POINT_MARGIN

    # A device whose surroundings have not changed since its last search
    # would rerun an identical (deterministic) search, so only "dirty"
    # devices are searched; the clean set survives across stages.
    clean: set[str] = set()
    for stage in stages:
        if not stage:
            continue
        dirty = {dev.label for dev in stage} - clean
        for _ in range(MAX_SWEEPS):
            score_at_sweep_start = current_score
            for dev in stage:
                if dev.label not in dirty:
                    continue
                dirty.discard(dev.label)
                clean.add(dev.label)
                p_now = dev.p_at(hour)
                v_bus = float(current_sol.v_mag[net.index_of(dev.bus)])
                cap = q_capability(dev, p_now, v_bus)
                if not cap.feasible:
                    if dev.label not in infeasible:
                        infeasible.append(dev.label)
                    q[dev.label] = 0.0
                    continue
                if cap.width <= 1e-12:
                    q[dev.label] = cap.clamp(0.0) if cap.contains(0.0) else cap.q_min
                    continue
                if net.index_of(dev.bus) not in hr.pq_row:
                    continue  # Q at the slack bus enters no solve

                score_at, start = hr.trial(q, dev, current_sol)
                xatol = max(_SEARCH_MIN_XATOL, _SEARCH_REL_XATOL * cap.width)
                res = minimize_scalar(
                    score_at,
                    bounds=(cap.q_min, cap.q_max),
                    method="bounded",
                    options={"xatol": xatol, "maxiter": _SEARCH_MAXITER},
                )
                q_candidate = cap.clamp(float(res.x))
                trial_q = dict(q)
                trial_q[dev.label] = q_candidate
                try:
                    # from the trial's start, so the accepted score is the
                    # score the search chose
                    sol = hr.solution(trial_q, start(q_candidate))
                except NonConvergence:
                    continue
                score = partial_objective(net, sol, scenario)
                if score < current_score - min_gain:
                    q[dev.label] = q_candidate
                    current_sol = sol
                    current_score = score
                    dirty.update(d.label for d in stage if d.label != dev.label)
                    clean.intersection_update({dev.label})
            if not dirty or score_at_sweep_start - current_score < SWEEP_IMPROVEMENT_TOL:
                break

    current_sol, current_score, reverted = _recheck_capability(
        net, devices, participants, hour, scenario, q, current_sol, current_score,
        base, base_score, hr.solution, infeasible,
    )
    return DispatchResult(
        hour, q, current_sol, base, current_score, base_score,
        tuple(infeasible), reverted,
    )


def _recheck_capability(
    net, devices, participants, hour, scenario, q, current_sol, current_score,
    base, base_score, pf, infeasible,
):
    """Clamp setpoints into the capability interval at the final voltages.

    The interval depends on the device's own bus voltage, which moved during
    the search, so the check iterates clamp-and-resolve until stable.  If the
    clamped state scores worse than the undispatched base, everything reverts
    to zero.
    """
    for _ in range(5):
        adjusted = False
        for dev in participants:
            v_bus = float(current_sol.v_mag[net.index_of(dev.bus)])
            cap = q_capability(dev, dev.p_at(hour), v_bus)
            if not cap.feasible:
                if q[dev.label] != 0.0:
                    q[dev.label] = 0.0
                    adjusted = True
                if dev.label not in infeasible:
                    infeasible.append(dev.label)
                continue
            if not cap.contains(q[dev.label], tol=CAPABILITY_RECHECK_TOL):
                q[dev.label] = cap.clamp(q[dev.label])
                adjusted = True
        if not adjusted:
            break
        current_sol = pf(q, current_sol.v_complex)
        current_score = partial_objective(net, current_sol, scenario)

    if current_score > base_score:
        for dev in participants:
            q[dev.label] = 0.0
        return base, base_score, True
    return current_sol, current_score, False
