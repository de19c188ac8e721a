"""Day-long evaluation of the weighted planning objective.

The score of a parking-lot placement over 24 hours is

    scalar = a · Σ_t Σ_i |v_ref − V(i,t)|  +  b · Σ_t P_Loss(t)
           + c · Σ_lots n_pev · cost_per_pev

with voltage-band, ampacity, and converter-capability checks folded into a
separate feasibility flag and violation magnitude so that constraint
handling never distorts the reported objective values.  A day solves its 24
base flows as one block of the fixed-point kernel and dispatches its hours
in lockstep (``dispatch._dispatch_day``), one kernel block per step, so it
never calls :func:`dispatch_q`, which runs one hour alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Sequence

import numpy as np

from .devices import (
    HOURS,
    Device,
    HourlyProfile,
    PevLot,
    _p_profile,
    capability_violation,
    p_injection,
)
from .dispatch import (
    DispatchResult,
    Scenario,
    _dispatch_day,
    _newton,
    dispatch_q,  # noqa: F401  (the benchmark's tracer wraps this name)
    partial_objective,
)
from .network import (
    Network,
    build_ybus,  # noqa: F401  (the benchmark's tracer wraps this name)
)
from .powerflow import (
    InjectionSet,
    PowerFlowError,
    _finish,
    _fixed_point_block,
    _limit_excess,
    _solver_arrays,
    check_limits,  # noqa: F401  (the benchmark's tracer wraps this name)
)

_DIVERGENT_HOUR_PENALTY = 1e3


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The three objective terms, their weighted sum, and constraint status."""

    v_dev: float
    loss: float
    cost: float
    scalar: float
    feasible: bool
    violation_penalty: float = 0.0

    @property
    def vector(self) -> tuple[float, float, float]:
        return (self.v_dev, self.loss, self.cost)


def combine(v_dev: float, loss: float, cost: float,
            weights: Sequence[float]) -> float:
    """The scalar objective; exported so reports can recompute it."""
    a, b, c = weights
    return a * v_dev + b * loss + c * cost


@dataclass(frozen=True)
class DayStats:
    """Work counters of one :class:`DayEvaluator` since it was built.

    ``days`` counts day computations (cache misses and trail recomputes);
    ``block_columns`` the hours solved in the 24-column base block, and
    ``block_iterations`` their summed fixed-point iterations;
    ``newton_columns`` the block columns that did not converge and went to
    Newton alone; ``divergent_hours`` the hours dropped because Newton failed
    too; ``hours_dispatched`` the hours dispatched, of which
    ``reverted_hours`` failed and kept their undispatched base column.  The
    dispatched hours ran ``searches`` Brent searches with ``trials`` points
    (their summed ``nfev``), in ``dispatch_steps`` lockstep steps of
    ``dispatch_columns`` kernel columns in all (bases, trials and
    rechecks), so ``dispatch_columns / dispatch_steps`` is the mean block
    width; ``newton_fallbacks`` counts the dispatch columns the kernel
    failed, each sent alone to Newton.  ``day_s`` is the wall time spent
    computing days.
    """

    days: int = 0
    block_columns: int = 0
    block_iterations: int = 0
    newton_columns: int = 0
    divergent_hours: int = 0
    hours_dispatched: int = 0
    reverted_hours: int = 0
    searches: int = 0
    trials: int = 0
    dispatch_steps: int = 0
    dispatch_columns: int = 0
    newton_fallbacks: int = 0
    day_s: float = 0.0


@dataclass(frozen=True)
class DayResult:
    """A placement's breakdown; the per-hour dispatch trail behind it is
    recomputed by the evaluator the first time it is read."""

    lot_buses: tuple[int, ...]
    breakdown: ObjectiveBreakdown
    _evaluator: "DayEvaluator" = field(repr=False, compare=False)

    @cached_property
    def hours(self) -> tuple[DispatchResult, ...]:
        return self._evaluator._trail(self.lot_buses)

    @property
    def min_voltage(self) -> float:
        if not self.hours:
            raise PowerFlowError("no hour of the day converged")
        return min(h.solution.v_min for h in self.hours)


def place_lots(devices: Sequence[Device], lot_buses: Sequence[int],
               net: Network) -> list[Device]:
    """Relocate the PEV lots onto ``lot_buses`` (ascending), PVs untouched."""
    buses = sorted(int(b) for b in lot_buses)
    if len(set(buses)) != len(buses):
        raise ValueError(f"duplicate lot buses {buses}")
    lots = [d for d in devices if isinstance(d, PevLot)]
    if len(buses) != len(lots):
        raise ValueError(f"{len(lots)} lots but {len(buses)} lot buses given")
    for b in buses:
        if b == net.slack_id:
            raise ValueError("cannot place a lot at the slack bus")
        if b not in net.bus_ids():
            raise ValueError(f"lot bus {b} not in network")
    it = iter(buses)
    return [d.moved_to(next(it)) if isinstance(d, PevLot) else d for d in devices]


class DayEvaluator:
    """Evaluates lot placements over one 24-hour day, memoized per placement.

    The network, PV fleet, lot templates, profiles, and scenario are fixed at
    construction; :meth:`evaluate` varies only the lot buses, so repeated
    genomes during a search cost one dictionary lookup.  Only breakdowns are
    cached; a result's per-hour trail is recomputed when read.

    A day starts from its 24 undispatched base flows, solved together as
    the columns of one fixed-point block from a flat start, so a day depends
    on its placement only.  A column that fails goes alone to Newton; if
    that fails too, the hour is divergent: the day is infeasible, carries
    ``_DIVERGENT_HOUR_PENALTY``, and the hour adds no objective terms.
    Hours with participating devices are dispatched from their base column,
    all in lockstep; an hour whose dispatch fails reverts to that column
    with every Q at 0.  The day is then scored from the stacked final
    voltages.
    """

    def __init__(
        self,
        net: Network,
        devices: Sequence[Device],
        profiles: dict[str, HourlyProfile] | None,
        scenario: Scenario,
    ) -> None:
        self.net = net
        self.devices = list(devices)
        self.scenario = scenario
        if scenario.load_profile_id is not None:
            if not profiles or scenario.load_profile_id not in profiles:
                raise ValueError(
                    f"load profile {scenario.load_profile_id!r} not found"
                )
            self._load_shape = profiles[scenario.load_profile_id].values
        else:
            self._load_shape = (1.0,) * HOURS
        self._cache: dict[tuple[int, ...], ObjectiveBreakdown] = {}
        self._stats: Counter = Counter()

    @property
    def lot_count(self) -> int:
        return sum(isinstance(d, PevLot) for d in self.devices)

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> DayStats:
        """A snapshot of the work counters."""
        return DayStats(**self._stats)

    def _placed(self, key: tuple[int, ...]) -> list[Device]:
        return place_lots(self.devices, key, self.net) if key else list(self.devices)

    def _key(self, lot_buses: Sequence[int] | None) -> tuple[int, ...]:
        if lot_buses is None:
            lot_buses = [d.bus for d in self.devices if isinstance(d, PevLot)]
        return tuple(sorted(int(b) for b in lot_buses))

    def evaluate(self, lot_buses: Sequence[int] | None = None) -> DayResult:
        key = self._key(lot_buses)
        breakdown = self._cache.get(key)
        if breakdown is None:
            breakdown, _ = self._evaluate_day(self._placed(key))
            self._cache[key] = breakdown
        return DayResult(key, breakdown, self)

    def _evaluate_with_trail(self) -> DayResult:
        """``evaluate()`` with the per-hour trail filled in from the same
        day computation, so reading ``hours`` computes no second day."""
        key = self._key(None)
        breakdown, hours = self._evaluate_day(self._placed(key), trail=True)
        self._cache[key] = breakdown
        day = DayResult(key, breakdown, self)
        day.__dict__["hours"] = hours  # the cached value of DayResult.hours
        return day

    def _trail(self, key: tuple[int, ...]) -> tuple[DispatchResult, ...]:
        """The dispatch results of every non-divergent hour of ``key``'s day."""
        _, hours = self._evaluate_day(self._placed(key), trail=True)
        return hours

    @cached_property
    def _day_arrays(self) -> tuple:
        """The solver arrays and the scaled normal-load injections, one
        column per hour (built on the first day, not at construction)."""
        arrays = _solver_arrays(self.net)
        p_load, q_load = self.net.load_vectors()
        scale = np.asarray(self._load_shape, dtype=float)
        return arrays, -p_load[:, None] * scale, -q_load[:, None] * scale

    def _evaluate_day(
        self, devices: list[Device], trail: bool = False
    ) -> tuple[ObjectiveBreakdown, tuple[DispatchResult, ...] | None]:
        """The day's breakdown and, with ``trail``, its per-hour results."""
        t0 = perf_counter()
        net, scenario, stats = self.net, self.scenario, self._stats
        tol = scenario.pf_tol
        arrays, p_base, q_base = self._day_arrays
        p = p_base.copy()
        for dev in devices:
            p[net.index_of(dev.bus)] += p_injection(dev)
        factor = arrays.fixed_point
        v = np.full((net.n_bus, HOURS), 1.0 + 0.0j)
        iterations, mismatch, converged = _fixed_point_block(
            factor, (p + 1j * q_base)[factor[0]], v, tol
        )
        stats["days"] += 1
        stats["block_columns"] += HOURS
        stats["block_iterations"] += int(iterations.sum())

        live = np.ones(HOURS, dtype=bool)
        for hour in np.flatnonzero(~converged):
            stats["newton_columns"] += 1
            try:
                sol = _newton(net, InjectionSet(p[:, hour], q_base[:, hour]), tol, None)
            except PowerFlowError:
                stats["divergent_hours"] += 1
                live[hour] = False
                continue
            v[:, hour] = sol.v_complex
            iterations[hour], mismatch[hour] = sol.iterations, sol.max_mismatch

        q = np.zeros((len(devices), HOURS))
        dispatched: dict[int, DispatchResult] = {}
        reverted: set[int] = set()
        if scenario.participating(devices):
            hours = [int(h) for h in np.flatnonzero(live)]
            stats["hours_dispatched"] += len(hours)
            results = _dispatch_day(net, devices, scenario, hours, self._load_shape, v, stats)
            for hour, result in zip(hours, results):
                if result is None:
                    stats["reverted_hours"] += 1
                    reverted.add(hour)
                    continue
                dispatched[hour] = result
                v[:, hour] = result.solution.v_complex
                q[:, hour] = [result.q_settings[d.label] for d in devices]

        breakdown = self._score(devices, v[:, live], q[:, live], live, arrays)
        stats["day_s"] += perf_counter() - t0
        if not trail:
            return breakdown, None
        hours = []
        for hour in map(int, np.flatnonzero(live)):
            if hour in dispatched:
                hours.append(dispatched[hour])
                continue
            sol = _finish(net, v[:, hour], int(iterations[hour]), float(mismatch[hour]), True)
            score = partial_objective(net, sol, scenario)
            hours.append(DispatchResult(hour, {d.label: 0.0 for d in devices}, sol, sol,
                                        score, score, reverted=hour in reverted))
        return breakdown, tuple(hours)

    def _score(self, devices: list[Device], v: np.ndarray, q: np.ndarray,
               live: np.ndarray, arrays) -> ObjectiveBreakdown:
        """The breakdown of a day from its final voltages, one column per
        live hour, and the devices' Q setpoints in those hours."""
        scenario = self.scenario
        f_idx, t_idx, y_series, r = arrays.branches
        v_mag = np.abs(v).T
        i_mag = np.abs((v[f_idx] - v[t_idx]) * y_series[:, None]).T
        band, amp = _limit_excess(v_mag, i_mag, arrays.limits)
        violation = float(band.sum() + amp.sum())
        feasible = bool(live.all()) and violation == 0.0
        violation += _DIVERGENT_HOUR_PENALTY * int(HOURS - live.sum())
        hours = np.flatnonzero(live)
        for dev, q_dev in zip(devices, q):
            excess = capability_violation(
                dev, _p_profile(dev)[hours], q_dev, v_mag[:, self.net.index_of(dev.bus)]
            )
            over = excess[excess > 1e-9]
            if over.size:
                feasible = False
                violation += float(over.sum())
        v_dev = float(np.abs(scenario.v_ref - v_mag).sum())
        loss = float((i_mag**2 @ r).sum())
        cost = sum(d.n_pev * d.cost_per_pev for d in devices if isinstance(d, PevLot))
        return ObjectiveBreakdown(
            v_dev=v_dev, loss=loss, cost=cost,
            scalar=combine(v_dev, loss, cost, scenario.weights),
            feasible=feasible, violation_penalty=violation,
        )
