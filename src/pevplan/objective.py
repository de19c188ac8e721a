"""Day-long evaluation of the weighted planning objective.

The score of a parking-lot placement over 24 hours is

    scalar = a · Σ_t Σ_i |v_ref − V(i,t)|  +  b · Σ_t P_Loss(t)
           + c · Σ_lots n_pev · cost_per_pev

with voltage-band, ampacity, and converter-capability checks folded into a
separate feasibility flag and violation magnitude so that constraint
handling never distorts the reported objective values.  Days are computed
in batches of up to ``_BATCH`` placements: a batch assembles the base
injections of all its days (``dispatch._base_injections``), solves them as
one block (``dispatch._solve_block``: the fixed-point kernel, and Newton
alone on each column it fails) and dispatches all their hours from their
columns in one lockstep (``dispatch._dispatch_day``), one block per step,
so it never calls :func:`dispatch_q`, which runs one hour alone.  A block's
columns and the lockstep's hours do not see each other, and each day is
scored from its own columns, so a placement's breakdown is the same bit
for bit in any batch.  A day's hours are read from the arrays its batch
holds, through :meth:`DayEvaluator.hours`.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
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
)
from .dispatch import (
    Scenario,
    _base_injections,
    _dispatch_day,
    _scores,
    _solve_block,
    dispatch_q,  # noqa: F401  (the benchmark's tracer wraps this name)
)
from .network import (
    Network,
    build_ybus,  # noqa: F401  (the benchmark's tracer wraps this name)
)
from .powerflow import (
    _branch_currents,
    _limit_excess,
    _solver_arrays,
    check_limits,  # noqa: F401  (the benchmark's tracer wraps this name)
)

_DIVERGENT_HOUR_PENALTY = 1e3
# Placements whose days are computed together: 192 base-block columns.  A
# wider batch gains little more and holds more arrays at once.
_BATCH = 8


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

    ``days`` counts day computations (cache misses and ``hours`` calls),
    made in ``batches`` batches, so ``days / batches`` is the mean batch
    size; ``block_columns`` the hours solved in the batches' base blocks
    (24 columns a day), and ``block_iterations`` their summed fixed-point
    iterations; ``newton_columns`` the block columns that did not converge
    and went to Newton alone; ``divergent_hours`` the hours dropped because
    Newton failed too; ``hours_dispatched`` the hours dispatched from their
    base-block columns, of which ``reverted_hours`` kept that column, every
    Q at 0 (as :attr:`DayHours.reverted` marks them).  The dispatched hours
    ran ``searches`` Brent searches with ``trials`` points (their summed
    ``nfev``) and ``recheck_solves`` capability-recheck solves, in
    ``dispatch_steps`` lockstep steps of ``dispatch_columns`` kernel
    columns in all (trials and rechecks, no bases), so ``dispatch_columns
    / dispatch_steps`` is the mean block width, and ``dispatch_iterations``
    counts the kernel's iterations on those columns; ``newton_fallbacks``
    counts the dispatch columns the kernel failed, each sent alone to
    Newton, and ``penalty_trials`` the trials it failed too (scored
    ``_TRIAL_PENALTY``).  ``day_s`` is the wall time spent computing days.
    """

    days: int = 0
    batches: int = 0
    block_columns: int = 0
    block_iterations: int = 0
    newton_columns: int = 0
    divergent_hours: int = 0
    hours_dispatched: int = 0
    reverted_hours: int = 0
    searches: int = 0
    trials: int = 0
    recheck_solves: int = 0
    dispatch_steps: int = 0
    dispatch_columns: int = 0
    dispatch_iterations: int = 0
    newton_fallbacks: int = 0
    penalty_trials: int = 0
    day_s: float = 0.0


@dataclass(frozen=True)
class DayResult:
    """A placement's breakdown."""

    lot_buses: tuple[int, ...]
    breakdown: ObjectiveBreakdown


@dataclass(frozen=True, eq=False)
class DayHours:
    """A placement's day hour by hour, from :meth:`DayEvaluator.hours`.

    Each array holds one entry an hour.  ``live`` marks the hours that
    converged; an hour that did not adds no terms, and its entries are
    stand-ins (voltages of 1.0).  ``v`` holds the final voltages as
    ``(hour, bus)`` and ``q`` the setpoints as ``(device, hour)``, in the
    order of the evaluator's devices, every Q 0 in an hour not dispatched
    or ``reverted`` to its undispatched base column.  ``iterations`` and
    ``mismatch`` are those of the solve that ended each hour; ``score`` and
    ``base_score`` are the hour's dispatch score at its final and at its
    undispatched state, equal where the hour kept its base column.
    """

    lot_buses: tuple[int, ...]
    breakdown: ObjectiveBreakdown
    live: np.ndarray
    v: np.ndarray
    q: np.ndarray
    iterations: np.ndarray
    mismatch: np.ndarray
    score: np.ndarray
    base_score: np.ndarray
    reverted: np.ndarray


def place_lots(devices: Sequence[Device], lot_buses: Sequence[int],
               net: Network) -> list[Device]:
    """Relocate the PEV lots onto ``lot_buses`` (ascending), PVs untouched."""
    buses = sorted(map(operator.index, lot_buses))
    if len(set(buses)) != len(buses):
        raise ValueError(f"duplicate lot buses {buses}")
    lots = [d for d in devices if isinstance(d, PevLot)]
    if len(buses) != len(lots):
        raise ValueError(f"{len(lots)} lots but {len(buses)} lot buses given")
    for b in buses:
        if b == net.slack_id:
            raise ValueError("cannot place a lot at the slack bus")
        if b not in net:
            raise ValueError(f"lot bus {b} not in network")
    it = iter(buses)
    return [d.moved_to(next(it)) if isinstance(d, PevLot) else d for d in devices]


class DayEvaluator:
    """Evaluates lot placements over one 24-hour day, memoized per placement.

    The network, PV fleet, lot templates, profiles, and scenario are fixed at
    construction; :meth:`evaluate_many` and :meth:`evaluate` vary only the
    lot buses, so repeated genomes during a search cost one dictionary
    lookup.  Only breakdowns are cached; :meth:`hours` computes a day again
    and returns it hour by hour.  The lots are kept in the order of their
    own buses (PVs in place), so the default placement puts each lot on its
    own bus whatever order the fleet lists them in.

    A batch of days starts from their undispatched base flows, 24 a day,
    solved together as the columns of one fixed-point block from a flat
    start, so a day depends on its placement only.  A column that fails
    goes alone to Newton; if that fails too, the hour is divergent: the day
    is infeasible, carries ``_DIVERGENT_HOUR_PENALTY``, and the hour adds no
    objective terms.  Hours with participating devices are dispatched from
    their solved base column, the hours of every day in the batch in one
    lockstep, each ending as :func:`dispatch_q` ends it; an hour that
    reverts (its recheck failed, did not settle or scored worse) keeps that
    column with every Q at 0.
    Each day is then scored from its own stacked final voltages.
    """

    def __init__(
        self,
        net: Network,
        devices: Sequence[Device],
        profiles: dict[str, HourlyProfile] | None,
        scenario: Scenario,
    ) -> None:
        self.net = net
        lots = iter(sorted((d for d in devices if isinstance(d, PevLot)),
                           key=lambda d: d.bus))
        self.devices = [next(lots) if isinstance(d, PevLot) else d for d in devices]
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
        return tuple(sorted(map(operator.index, lot_buses)))

    def evaluate(self, lot_buses: Sequence[int] | None = None) -> DayResult:
        """The day of one placement (the devices' own by default): a batch of one."""
        return self.evaluate_many([self._key(lot_buses)])[0]

    def evaluate_many(self, placements: Sequence[Sequence[int]]) -> list[DayResult]:
        """The day of each placement, in order.

        The placements not cached yet are computed together, ``_BATCH`` at
        a time.  A placement's breakdown is the same bit for bit whatever
        batch it is computed in.
        """
        keys = [self._key(lots) for lots in placements]
        new = list(dict.fromkeys(key for key in keys if key not in self._cache))
        for first in range(0, len(new), _BATCH):
            batch = new[first:first + _BATCH]
            breakdowns, _ = self._days([self._placed(key) for key in batch])
            self._cache.update(zip(batch, breakdowns))
        return [DayResult(key, self._cache[key]) for key in keys]

    def hours(self, lot_buses: Sequence[int] | None = None) -> DayHours:
        """The day of one placement (the devices' own by default) hour by
        hour, computed as a batch of one; its breakdown is cached."""
        key = self._key(lot_buses)
        (breakdown,), batch = self._days([self._placed(key)])
        self._cache[key] = breakdown
        v, q, live, iterations, mismatch, base_score, reverted = (a[0] for a in batch)
        score = _scores(self.scenario, _solver_arrays(self.net).branches, v)
        return DayHours(key, breakdown, live, v, q, iterations, mismatch, score,
                        np.where(np.isnan(base_score), score, base_score), reverted)

    def _days(self, placements: list[list[Device]]
              ) -> tuple[list[ObjectiveBreakdown], tuple[np.ndarray, ...]]:
        """Each placement's breakdown and, day first, the arrays of its
        hours: the fields of :class:`DayHours` but the scores, in the order
        ``v``, ``q``, ``live``, ``iterations``, ``mismatch``, ``base_score``
        (NaN in an hour not dispatched) and ``reverted``.

        Column ``d·HOURS + h`` of the day arrays is hour ``h`` of placement
        ``d``, so each placement's hours are one contiguous run of columns.
        """
        t0 = perf_counter()
        net, scenario, stats = self.net, self.scenario, self._stats
        k = len(placements)
        s_pq = _base_injections(net, placements, range(HOURS), self._load_shape)
        v = np.full((net.n_bus, k * HOURS), 1.0 + 0.0j)
        solved = _solve_block(net, s_pq, v, scenario.pf_tol)
        iterations, mismatch = solved.iterations, solved.mismatch
        stats["batches"] += 1
        stats["days"] += k
        stats["block_columns"] += k * HOURS
        stats["block_iterations"] += solved.kernel_iterations
        stats["newton_columns"] += len(solved.newton)
        stats["divergent_hours"] += len(solved.failed)
        live = np.ones(k * HOURS, dtype=bool)
        live[list(solved.failed)] = False

        q = np.zeros((k, len(placements[0]), HOURS))
        base_score = np.full(k * HOURS, np.nan)
        reverted = np.zeros(k * HOURS, dtype=bool)
        if scenario.participating(placements[0]):
            cols = np.flatnonzero(live).tolist()
            stats["hours_dispatched"] += len(cols)
            base = np.ascontiguousarray(v[:, cols].T), iterations[cols], mismatch[cols]
            results = _dispatch_day(
                net, scenario, [(placements[col // HOURS], col % HOURS) for col in cols],
                s_pq[:, cols], base, stats)
            for col, result in zip(cols, results):
                sol = result.solution
                v[:, col] = sol.v_complex
                iterations[col], mismatch[col] = sol.iterations, sol.max_mismatch
                base_score[col], reverted[col] = result.base_score, result.reverted
                q[col // HOURS, :, col % HOURS] = [
                    result.q_settings[dev.label] for dev in placements[col // HOURS]]
            stats["reverted_hours"] += int(reverted.sum())

        # placement-major rows, one a day's hour, so that each day's sums run
        # over the same contiguous data however many days the batch holds
        rows = np.ascontiguousarray(v.T).reshape(k, HOURS, net.n_bus)
        day_live = live.reshape(k, HOURS)
        rows[~day_live] = 1.0  # finite stand-ins for divergent hours, which add no terms
        out = self._score(placements, rows, q, day_live)
        stats["day_s"] += perf_counter() - t0
        return out, (rows, q, day_live, *(a.reshape(k, HOURS) for a in
                                          (iterations, mismatch, base_score, reverted)))

    def _score(self, placements: list[list[Device]], v: np.ndarray, q: np.ndarray,
               live: np.ndarray) -> list[ObjectiveBreakdown]:
        """The breakdown of each day of a batch from its final voltages.

        ``v`` holds the voltages as ``(day, hour, bus)`` and ``q`` the
        devices' setpoints as ``(day, device, hour)``; ``live`` marks the
        hours that count, ``(day, hour)``, and a divergent hour adds no
        terms (its voltages need only be finite).  The placements differ in
        their lot buses only.  Each sum runs over one day's own rows, so a
        day scores bit for bit as it does alone.
        """
        scenario, net = self.scenario, self.net
        arrays = _solver_arrays(net)
        dead = ~live
        v_mag = np.abs(v)
        i_mag = np.abs(_branch_currents(v, arrays.branches))
        band, amp = _limit_excess(v_mag, i_mag, arrays.limits)
        dev_terms = np.abs(scenario.v_ref - v_mag)
        loss_terms = i_mag**2 * arrays.branches[3]
        for terms in (band, amp, dev_terms, loss_terms):
            terms[dead] = 0.0
        violation = band.sum(axis=(1, 2)) + amp.sum(axis=(1, 2))
        feasible = live.all(axis=1) & (violation == 0.0)
        violation += _DIVERGENT_HOUR_PENALTY * dead.sum(axis=1)
        days = np.arange(len(placements))
        for j, dev in enumerate(placements[0]):
            pos = [net.index_of(devices[j].bus) for devices in placements]
            excess = capability_violation(dev, _p_profile(dev), q[:, j], v_mag[days, :, pos])
            over = np.where(live & (excess > 1e-9), excess, 0.0)
            feasible &= ~over.any(axis=1)
            violation += over.sum(axis=1)
        v_dev = dev_terms.sum(axis=(1, 2)).tolist()
        loss = loss_terms.sum(axis=2).sum(axis=1).tolist()
        cost = sum(d.n_pev * d.cost_per_pev for d in placements[0] if isinstance(d, PevLot))
        return [
            ObjectiveBreakdown(
                v_dev=day_v_dev, loss=day_loss, cost=cost,
                scalar=combine(day_v_dev, day_loss, cost, scenario.weights),
                feasible=ok, violation_penalty=penalty,
            )
            for day_v_dev, day_loss, ok, penalty in zip(v_dev, loss, feasible.tolist(),
                                                       violation.tolist())
        ]
