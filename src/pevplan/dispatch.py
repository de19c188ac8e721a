"""Per-hour reactive-power dispatch of converter devices.

Three participation modes: ``none`` (all converters idle on the reactive
axis), ``dgq`` (PV inverters support voltage), ``dgq+v2gq`` (PV inverters
plus PEV-lot converters).  Dispatch is a coordinate-descent sweep: each
participating device in turn gets a bounded one-dimensional search over its
capability interval, scored by a fresh power-flow solve.  The search is
this module's own bounded Brent (:func:`_brent`): a transcription of
Brent's ``fmin`` that takes the steps scipy's
``minimize_scalar(method="bounded")`` takes, so pevplan runs on numpy alone.
It is a generator that yields each point and receives its score, and
:func:`minimize_scalar` drives it with a function through :func:`_drive`,
the one loop that answers a generator's requests until it returns.

An hour's kernel injections are assembled once, with every setpoint at 0
(:func:`_base_injections`, for any hours and device lists), and a
setpoint map is written into that column (:meth:`_Hour.column`); a
search's trial columns are gathered from its hour's row of
:class:`_Trials`, and every state is scored by :func:`_scores`.  An
hour's descent (:func:`_descent`) is written once, as a generator that
starts from the hour's solved base state and yields what it needs solved:
searches and capability rechecks; every capability interval it reads is
:meth:`_Hour.capability`.  Every solve runs the Z-bus fixed-point
kernel and falls back to Newton (:func:`solve`), held to the kernel's
target, on a column the kernel fails (:func:`_solve_block`); a column
Newton fails too is answered with None, and the descent still returns a
result.  Two runners answer a descent.  :func:`dispatch_q` runs one hour
alone from a flat start, answering each request in turn through
:func:`_drive`: every solve is a one-column block, and every search runs
through :func:`minimize_scalar`.  A day's runner
(:func:`_dispatch_day`) runs the hours of a batch of days in lockstep
from their base-block columns, one block a step, scoring the step's
trial states together from the block's leading rows; no hour's solves or
scores depend on the others, so an hour ends bit for bit as
:func:`dispatch_q` ends it.  Either way
every score is Newton-converged and all scores have one accuracy.  A
trial starts from a first-order step off the current
voltages and keeps the voltage vector it solved, so an accepted move
takes the state and the score the search saw, with no second solve; a
full solution is built only for the hour's final state.  Moves are
accepted only when they improve the hour's dispatch score by more than
the solves' own error, so no accept hangs on rounding and the two runners
accept the same moves.  A dispatched hour never scores worse than its
undispatched state unless that state breaks a converter's interval (Q = 0
lies outside it); then the setpoints clamped into the intervals stand.
The ``dgq+v2gq`` mode runs the PV-only stage first and adds the lots
afterwards, yet an hour can score worse than in ``dgq``: the lots' moves
can push a PV's bus past its limit so that the capability recheck
reverts the hour (seen on a 4-bus feeder).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Callable, Generator, Mapping, NamedTuple, Sequence

import numpy as np

from .devices import Device, PvUnit, QCapability, p_injection, q_capability
from .network import Network
from .powerflow import (
    _FIXED_POINT_MARGIN,
    DEFAULT_TOL,
    InjectionSet,
    NonConvergence,
    PowerFlowError,
    PowerFlowSolution,
    _branch_currents,
    _finish,
    _fixed_point_block,
    _solver_arrays,
    solve,
)

MODES = ("none", "dgq", "dgq+v2gq")
_MODE_ALIASES = {"dgq-v2gq": "dgq+v2gq"}

MAX_SWEEPS = 10
SWEEP_IMPROVEMENT_TOL = 1e-6
CAPABILITY_RECHECK_TOL = 1e-9
_RECHECK_SOLVES = 10
_TRIAL_PENALTY = 1e9
_SEARCH_REL_XATOL = 0.08
_SEARCH_MIN_XATOL = 1e-4
_SEARCH_MAXITER = 10

_State = tuple[np.ndarray, int, float]  # (v, iterations, mismatch) of one solve
_Solve = tuple[np.ndarray, np.ndarray]  # a solve request: (s_pq, start)


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
        if len(w) != 3 or not all(0.0 <= x < np.inf for x in w):
            raise ValueError(f"weights must be three nonnegative finite numbers, got {w}")
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


def _base_injections(net: Network, placements: Sequence[Sequence[Device]],
                     hours: Sequence[int], load_scales: Sequence[float]) -> np.ndarray:
    """The kernel's injections ``(p + j·q)[pq]`` of ``hours`` for each
    device list of ``placements``, with every device's Q setpoint at 0: one
    run of columns a device list, one column an hour, each the normal loads
    scaled by the hour's entry of ``load_scales`` plus the devices' active
    powers."""
    p_load, q_load = net.load_vectors()
    hours = np.asarray(hours)
    scale = np.tile(np.asarray(load_scales, dtype=float), len(placements))
    p, q = -p_load[:, None] * scale, -q_load[:, None] * scale
    for d, devices in enumerate(placements):
        run = p[:, d * len(hours):(d + 1) * len(hours)]
        for dev in devices:
            run[net.index_of(dev.bus)] += p_injection(dev)[hours]
    return (p + 1j * q)[_solver_arrays(net).fixed_point[0]]


def _injection_set(net: Network, s_pq: np.ndarray) -> InjectionSet:
    """The injections of the non-slack column ``s_pq``, whose real and
    imaginary parts give ``p`` and ``q`` back exactly; the slack's are 0."""
    p, q = np.zeros(net.n_bus), np.zeros(net.n_bus)
    pq = _solver_arrays(net).fixed_point[0]
    p[pq], q[pq] = s_pq.real, s_pq.imag
    return InjectionSet(p, q)


def _scores(scenario: Scenario, branches: tuple[np.ndarray, ...],
            v: np.ndarray) -> np.ndarray:
    """The dispatch score a·Σ|v_ref − |V|| + b·P_Loss of each row of ``v``,
    one state a row (a 1-d ``v`` is one state and scores as its row would).

    Each sum runs along a contiguous row, so a row scores bit for bit as it
    does alone.
    """
    a, b, _ = scenario.weights
    loss = np.add.reduce(np.abs(_branch_currents(v, branches)) ** 2 * branches[3], axis=-1)
    return a * np.add.reduce(np.abs(scenario.v_ref - np.abs(v)), axis=-1) + b * loss


@dataclass(frozen=True)
class DispatchResult:
    """One hour's dispatched state."""

    hour: int
    q_settings: dict[str, float]  # every device label, zeros when idle
    solution: PowerFlowSolution
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


class _Solved(NamedTuple):
    """What :func:`_solve_block` did, per column and in all."""

    iterations: np.ndarray  # of the solve that ended each column
    mismatch: np.ndarray  # likewise
    newton: np.ndarray  # the columns the kernel failed, each sent to Newton
    failed: dict[int, PowerFlowError]  # Newton's failures, by column
    kernel_iterations: int  # the kernel's own iterations, summed


def _solve_block(net: Network, s_pq: np.ndarray, v: np.ndarray, tol: float) -> _Solved:
    """Solve every column of ``v`` in place (the columns of
    :func:`_fixed_point_block`): the kernel on all of them, then
    :func:`_newton` alone on each column the kernel did not converge, from
    that column's own start, on the injections of its ``s_pq`` column
    (:func:`_injection_set`; Newton reads no slack entry).  A column Newton
    fails too stays where the kernel left it."""
    factor = _solver_arrays(net).fixed_point
    starts = v.copy()
    iterations, mismatch, converged = _fixed_point_block(factor, s_pq, v, tol)
    kernel_iterations = int(np.add.reduce(iterations))
    newton = (~converged).nonzero()[0]
    failed: dict[int, PowerFlowError] = {}
    for j in newton.tolist():
        try:
            sol = _newton(net, _injection_set(net, s_pq[:, j]), tol, starts[:, j])
        except PowerFlowError as exc:
            failed[j] = exc
            continue
        v[:, j] = sol.v_complex
        iterations[j], mismatch[j] = sol.iterations, sol.max_mismatch
    return _Solved(iterations, mismatch, newton, failed, kernel_iterations)


class Minimum(NamedTuple):
    """What :func:`minimize_scalar` found: the point, its value, the calls made."""

    x: float
    fun: float
    nfev: int


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _brent(a: float, b: float, xatol: float,
           maxiter: int) -> Generator[float, float, Minimum]:
    """Minimise a function on ``[a, b]`` by Brent's bounded method, stepwise.

    A generator: it yields each point at which it needs the function and
    receives the value there, and returns the :class:`Minimum` it found.  A
    transcription of Brent's ``fmin`` (*Algorithms for Minimization without
    Derivatives*, 1973, ch. 5) as scipy's ``_minimize_scalar_bounded`` writes
    it: the same golden-section and parabolic steps, the same tolerances
    ``tol1 = sqrt(eps)·|x| + xatol/3`` and ``tol2 = 2·tol1``, the same
    bracket updates, and a stop after ``maxiter`` points.  In Python floats
    it asks for the same points in the same order and returns the same
    ``x``, ``fun`` and ``nfev``, bit for bit.  With finite bounds every step
    is finite whatever the values are, so the plain float ``max`` and sign
    below agree with numpy's.  Raises ``ValueError``, as scipy does, for
    non-finite or inverted bounds.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = float(a), float(b)
    # xf is the best point so far, nfc the second best, fulc the previous nfc
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        # no step shorter than tol1
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return Minimum(xf, fx, num)


def _drive(steps: Generator[Any, Any, Any], answer: Callable[[Any], Any]) -> Any:
    """Run ``steps`` to its return value, replying ``answer(request)`` to
    each request it yields."""
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as done:
            return done.value
        reply = answer(request)


def minimize_scalar(func: Callable[[float], float], a: float, b: float,
                    xatol: float, maxiter: int) -> Minimum:
    """Minimise ``func`` on ``[a, b]``: :func:`_brent`, calling ``func`` at each point."""
    return _drive(_brent(a, b, xatol, maxiter), func)


class _Search(NamedTuple):
    """A search request: one device's bounds and tolerance; its hour's row
    of :class:`_Trials` turns each point into a solve."""

    a: float
    b: float
    xatol: float


class _Trials:
    """The running search of each hour (lane) of a call, one row a lane:
    the other devices' injections ``s_rest``, the searched device's row
    ``dev_row`` and setpoint ``q_now``, and the voltages ``v`` it starts
    from.  A point ``x`` writes only ``dev_row`` and is solved from the
    first-order step ``V + dv_dq·(x − q_now)``, ``dv_dq = Z[:, k]·(j /
    conj(V[k]))``."""

    def __init__(self, lanes: int, n_bus: int) -> None:
        self.s_rest = np.empty((lanes, n_bus - 1), dtype=complex)
        self.dev_row = np.zeros(lanes, dtype=int)
        self.v = np.empty((lanes, n_bus), dtype=complex)
        self.dv_dq = np.zeros((lanes, n_bus), dtype=complex)
        self.q_now = np.zeros(lanes)
        self._offsets = np.arange(lanes) * (n_bus - 1)  # of each point's row, flattened

    def columns(self, lanes: Sequence[int], x: Sequence[float]) -> tuple[np.ndarray, ...]:
        """The solve requests ``(s_pq, start)`` of points ``x`` of
        ``lanes``' searches, one row a point."""
        lanes, x = np.asarray(lanes, dtype=np.intp), np.asarray(x, dtype=float)
        s_pq = self.s_rest.take(lanes, axis=0)
        s_pq.ravel()[self._offsets[:len(x)] + self.dev_row.take(lanes)] -= 1j * x
        start = self.dv_dq.take(lanes, axis=0) * (x - self.q_now.take(lanes))[:, None]
        start += self.v.take(lanes, axis=0)
        return s_pq, start


class _Hour:
    """One hour's injections and solver for the dispatch of that hour.

    Solves within an hour differ only in device Q, so the hour's column
    with every setpoint at 0, ``s_base`` (of :func:`_base_injections`), is
    taken from the caller, and each setpoint map is written into a copy of
    it.  A search is written into row ``lane`` of ``trials``: a lockstep's
    :class:`_Trials`, or the hour's own.  Solves yield states; a full
    solution is built from a state only for the hour's result.
    """

    def __init__(self, net: Network, devices: Sequence[Device], hour: int,
                 scenario: Scenario, s_base: np.ndarray,
                 trials: _Trials | None = None, lane: int = 0) -> None:
        self.net = net
        self.devices = devices
        self.hour = hour
        self.scenario = scenario
        self.s_base = s_base
        self.trials, self.lane = trials or _Trials(1, net.n_bus), lane
        arrays = _solver_arrays(net)
        self.factor = arrays.fixed_point
        self.branches = arrays.branches
        # each device's bus position and row, None at the slack: its Q enters no solve
        self.place = {dev.label: (pos, arrays.pq_row.get(pos))
                      for dev in devices for pos in (net.index_of(dev.bus),)}
        self.dev_rows = [(dev.label, row) for dev in devices
                         if (row := self.place[dev.label][1]) is not None]

    def column(self, settings: Mapping[str, float],
               out: np.ndarray | None = None) -> np.ndarray:
        """The kernel's injections with the devices at ``settings``, in
        ``out`` or a new column: each device's ``j·q`` taken off its row of
        ``s_base``, in the order of the devices."""
        s_pq = np.empty_like(self.s_base) if out is None else out
        s_pq[:] = self.s_base
        for label, row in self.dev_rows:
            s_pq[row] -= 1j * settings[label]
        return s_pq

    def solve(self, s_pq: np.ndarray, start: np.ndarray) -> _State | None:
        """The state with non-slack injections ``s_pq``, solved from a copy
        of ``start`` as a one-column :func:`_solve_block`, or None where
        Newton fails too."""
        v = start.copy()
        solved = _solve_block(self.net, s_pq[:, None], v[:, None], self.scenario.pf_tol)
        if solved.failed:
            return None
        return v, int(solved.iterations[0]), float(solved.mismatch[0])

    def capability(self, dev: Device, v: np.ndarray) -> QCapability:
        """``dev``'s reactive interval this hour at its bus voltage in ``v``."""
        return q_capability(dev, dev.p_at(self.hour), float(np.abs(v[self.place[dev.label][0]])))

    def search(self, settings: Mapping[str, float], dev: Device, v: np.ndarray,
               cap: QCapability) -> _Search:
        """The search of ``dev`` over ``cap`` from the state at voltages
        ``v``, its columns written into the hour's row of :attr:`trials`."""
        pos, row = self.place[dev.label]
        pq, _, z, _ = self.factor
        trials, lane, q_now = self.trials, self.lane, settings[dev.label]
        self.column({**settings, dev.label: 0.0}, out=trials.s_rest[lane])
        trials.dev_row[lane], trials.q_now[lane], trials.v[lane] = row, q_now, v
        trials.dv_dq[lane][pq] = z[:, row] * (1j / v[pos].conjugate())
        return _Search(cap.q_min, cap.q_max,
                       max(_SEARCH_MIN_XATOL, _SEARCH_REL_XATOL * cap.width))

    def searched(self, search: _Search) -> tuple[Minimum, _State | None]:
        """Run ``search`` through :func:`minimize_scalar`, solving each point
        with :meth:`solve`: the minimum and the state at its ``x``.

        A point whose solve fails scores ``_TRIAL_PENALTY`` and keeps no
        state, so the state is None when the minimum is the penalty.
        """
        solved: dict[float, _State] = {}

        def score_at(qv: float) -> float:
            s_pq, start = self.trials.columns([self.lane], [qv])
            state = self.solve(s_pq[0], start[0])
            if state is None:
                return _TRIAL_PENALTY
            solved[qv] = state
            return float(_scores(self.scenario, self.branches, state[0]))

        res = minimize_scalar(score_at, search.a, search.b, search.xatol, _SEARCH_MAXITER)
        return res, solved.get(res.x)


# the requests of an hour's descent, and the replies they receive
_Request = _Solve | _Search
_Reply = Any  # the _State | None of a _Solve, (Minimum, _State | None) of a _Search


def dispatch_q(
    net: Network,
    devices: Sequence[Device],
    hour: int,
    scenario: Scenario,
    load_scale: float = 1.0,
) -> DispatchResult:
    """Choose reactive setpoints for one hour under the scenario's mode.

    The hour's base state is solved from a flat start as a one-column
    :func:`_solve_block`, as a day's base block solves it, and its
    :func:`_descent` runs from there one request at a time (:func:`_drive`):
    each solve through :meth:`_Hour.solve` and each search through
    :meth:`_Hour.searched`.  Raises only if
    the base solve fails, with the :class:`PowerFlowError` the Newton
    fallback raised (a :class:`NonConvergence` or a
    :class:`~pevplan.powerflow.SingularJacobian`), or ``ValueError`` for
    non-finite injections; a failed trial scores ``_TRIAL_PENALTY`` and a
    failed recheck reverts the hour.
    """
    s_base = _base_injections(net, [devices], [hour], [load_scale])[:, 0]
    v = np.ones((net.n_bus, 1), dtype=complex)
    solved = _solve_block(net, s_base[:, None], v, scenario.pf_tol)
    if solved.failed:
        raise solved.failed[0]
    hr = _Hour(net, devices, hour, scenario, s_base)
    base = v[:, 0], int(solved.iterations[0]), float(solved.mismatch[0])
    return _drive(_descent(hr, base), lambda request: hr.searched(request)
                  if isinstance(request, _Search) else hr.solve(*request))


def _descent(hr: _Hour,
             base_state: _State) -> Generator[_Request, _Reply, DispatchResult]:
    """One hour's coordinate descent, from its solved base state (every Q
    at 0) to its result.

    Yields requests and receives their replies: a solve request ``(s_pq,
    start)`` receives the solved state, or None where the solve failed,
    which reverts the hour to its base state; a :class:`_Search` receives
    ``(minimum, state at its x)``.
    """
    devices, scenario = hr.devices, hr.scenario
    q: dict[str, float] = {dev.label: 0.0 for dev in devices}
    base_score = float(_scores(scenario, hr.branches, base_state[0]))

    participants = scenario.participating(devices)
    stages: list[list[Device]]
    if scenario.mode == "dgq+v2gq":
        stages = [[d for d in participants if isinstance(d, PvUnit)], participants]
    else:
        stages = [participants]

    state, score = base_state, base_score
    # whether a setpoint moved since ``state`` was solved (a device parked
    # or pinned without a solve), so that the recheck solves it again
    stale = False
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
        dirty = (labels := {dev.label for dev in stage}) - clean
        for _ in range(MAX_SWEEPS):
            score_at_sweep_start = score
            for dev in stage:
                if dev.label not in dirty:
                    continue
                dirty.discard(dev.label)
                clean.add(dev.label)
                cap = hr.capability(dev, state[0])
                if not cap.feasible:
                    if dev.label not in infeasible:
                        infeasible.append(dev.label)
                    stale |= q[dev.label] != 0.0
                    q[dev.label] = 0.0
                    continue
                if cap.width <= 1e-12:
                    pinned = cap.clamp(0.0) if cap.contains(0.0) else cap.q_min
                    stale |= pinned != q[dev.label]
                    q[dev.label] = pinned
                    continue
                if hr.place[dev.label][1] is None:
                    continue  # Q at the slack bus enters no solve

                res, trial_state = yield hr.search(q, dev, state[0], cap)
                # res.x is a point the search solved, unless it scored the
                # penalty; its state and score are the accepted ones
                if res.fun < _TRIAL_PENALTY and res.fun < score - min_gain:
                    q[dev.label] = float(res.x)
                    state, score, stale = trial_state, float(res.fun), False
                    dirty.update(labels - {dev.label})
                    clean.intersection_update({dev.label})
            if not dirty or score_at_sweep_start - score < SWEEP_IMPROVEMENT_TOL:
                break

    rechecked = yield from _recheck_capability(hr, participants, q, state, score,
                                               infeasible, stale)
    # revert if the setpoints did not settle in their intervals, or if the
    # clamped state scores worse than the undispatched one while Q = 0 lies
    # in every interval at the base voltages; where it does not, the base
    # breaks an interval, and the settled state is kept at its worse score
    reverted = rechecked is None or (
        rechecked[1] > base_score and _zero_fits(hr, participants, base_state[0]))
    if reverted:
        for dev in participants:
            q[dev.label] = 0.0
        state, score = base_state, base_score
    else:
        state, score = rechecked
    return DispatchResult(hr.hour, q, _finish(hr.net, *state, converged=True), score,
                          base_score, tuple(infeasible), reverted)


def _zero_fits(hr: _Hour, participants: Sequence[Device], v: np.ndarray) -> bool:
    """Whether Q = 0 lies in every participant's interval at voltages ``v``."""
    return all(hr.capability(dev, v).contains(0.0, tol=CAPABILITY_RECHECK_TOL)
               for dev in participants)


def _recheck_capability(
    hr: _Hour, participants: Sequence[Device], q: dict[str, float],
    state: _State, score: float, infeasible: list[str], stale: bool,
) -> Generator[_Request, _Reply, tuple[_State, float] | None]:
    """Clamp setpoints into the capability interval at the final voltages.

    The interval depends on the device's own bus voltage, which moved during
    the search, so the check iterates clamp-and-resolve until a check of the
    solved state adjusts nothing.  Yields each resolve as a solve request.
    A ``stale`` state, solved at other setpoints than ``q``, is solved
    again before it can be returned.  Returns that state and its score, or
    None if a resolve fails or the setpoints have not settled after
    ``_RECHECK_SOLVES`` solves.
    """
    adjusted = stale
    for solves in range(_RECHECK_SOLVES + 1):
        for dev in participants:
            cap = hr.capability(dev, state[0])
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
            return state, score
        if solves == _RECHECK_SOLVES:
            break
        state = yield hr.column(q), state[0]
        if state is None:
            return None
        score = float(_scores(hr.scenario, hr.branches, state[0]))
        adjusted = False
    return None


class _Lane:
    """One hour of a lockstep day: its descent and the solve it waits on.

    While a search runs, ``brent`` is its :func:`_brent`, ``x`` the point
    being solved and ``solved`` the states of the points solved so far;
    otherwise ``request`` is the pending solve request.  It counts its
    ``searches``.
    """

    def __init__(self, hr: _Hour, base_state: _State) -> None:
        self.hr = hr
        self.steps = _descent(hr, base_state)
        self.result: DispatchResult | None = None
        self.brent: Generator[float, float, Minimum] | None = None
        self.searches = 0

    def send(self, reply: _Reply = None) -> bool:
        """Hand the descent its reply; False once the hour is over (with its result)."""
        try:
            request = self.steps.send(reply)
        except StopIteration as done:
            self.result = done.value
            return False
        if isinstance(request, _Search):
            self.searches += 1
            self.solved = {}
            self.brent = _brent(request.a, request.b, request.xatol, _SEARCH_MAXITER)
            self.x = next(self.brent)
        else:
            self.brent, self.request = None, request
        return True

    def scored(self, state: _State | None, fx: float) -> bool:
        """Hand the search the score of its point; False as :meth:`send`."""
        if state is not None:
            self.solved[self.x] = state
        try:
            self.x = self.brent.send(fx)
        except StopIteration as done:
            res = done.value
            return self.send((res, self.solved.get(res.x)))
        return True


def _dispatch_day(net: Network, scenario: Scenario,
                  hours: Sequence[tuple[Sequence[Device], int]], s_pq: np.ndarray,
                  base: tuple[np.ndarray, np.ndarray, np.ndarray],
                  stats: Counter) -> list[DispatchResult]:
    """The :func:`_descent` of each of ``hours``, run in lockstep.

    An entry ``(devices, hour)`` is one hour of one placement's day, and
    entry ``i`` has the zero-setpoint injections ``s_pq[:, i]`` (of
    :func:`_base_injections`) and starts from the solved base state
    ``(v[i], iterations[i], mismatch[i])`` of ``base = (v, iterations,
    mismatch)``; the entries may come from the days of several placements.
    Each step gathers the pending solve of every hour still running into
    one :func:`_solve_block`: its search's trial point, all of them first
    as one :meth:`_Trials.columns`, then its recheck.  The block's columns
    do not see each other, so an hour runs as :func:`dispatch_q` runs it.
    A column Newton fails too is answered with None, and the step's trial
    states are scored together, from the block's leading rows.  Adds the
    searches, the trials, the rechecks, the steps, their columns, the
    kernel's iterations on them, the Newton fallbacks and the penalty
    trials to ``stats`` once.
    """
    tol = scenario.pf_tol
    trials = _Trials(len(hours), net.n_bus)
    v_base, iterations, mismatch = base
    lanes = [_Lane(_Hour(net, devices, hour, scenario, s_pq[:, i], trials, i),
                   (v_base[i], int(iterations[i]), float(mismatch[i])))
             for i, (devices, hour) in enumerate(hours)]
    branches = _solver_arrays(net).branches
    log, penalties = [], 0  # a step's trials, rechecks, kernel iterations, Newton columns
    running = [lane for lane in lanes if lane.send()]
    while running:
        searching = [lane for lane in running if lane.brent is not None]
        k = len(searching)
        waiting = [lane for lane in running if lane.brent is None] if k < len(running) else []
        # one row a column, so that each solved state is a contiguous row
        s, v = trials.columns([lane.hr.lane for lane in searching], [lane.x for lane in searching])
        if waiting:
            s_more, v_more = zip(*(lane.request for lane in waiting))
            s, v = np.concatenate((s, s_more)), np.concatenate((v, v_more))
        block = _solve_block(net, s.T, v.T, tol)
        log.append((k, len(waiting), block.kernel_iterations, len(block.newton)))
        states = list(zip(v, block.iterations.tolist(), block.mismatch.tolist()))
        for j in block.failed:  # answered with None; finite stand-ins to score
            states[j], v[j] = None, 1.0
        scores = _scores(scenario, branches, v[:k]).tolist()
        for j in (j for j in block.failed if j < k):
            scores[j] = _TRIAL_PENALTY
            penalties += 1
        running = [lane for lane, state, score in zip(searching, states, scores)
                   if lane.scored(state, score)]
        running += [lane for lane, state in zip(waiting, states[k:]) if lane.send(state)]
    trials, rechecks, iterations, fallbacks = np.array(log, int).reshape(-1, 4).sum(0).tolist()
    stats.update(searches=sum(lane.searches for lane in lanes), trials=trials,
                 recheck_solves=rechecks, dispatch_steps=len(log),
                 dispatch_columns=trials + rechecks, dispatch_iterations=iterations,
                 newton_fallbacks=fallbacks, penalty_trials=penalties)
    return [lane.result for lane in lanes]
