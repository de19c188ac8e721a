"""Spans and work counters recorded from outside pevplan.

The traced run replaces the module-level names one pevplan layer uses to
call the next (``pevplan.dispatch.solve``, ``pevplan.objective.dispatch_q``,
...) with wrappers that record a span (name, start, end, parent) and read
work counters off the returned objects.  The benchmark's own calls into the
package (case loading, ``optimize_placement``, snapshot solves) are wrapped
the same way.  Nothing inside the package changes.

A layer's self time is the summed duration of its spans minus the time their
child spans cover.  A wrapped name that no longer exists is
reported as missing with the reason; the metrics that depend on it carry no
value instead of a zero.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

# (owner under pevplan, attribute, span name) of every name the traced run wraps
WRAPPED = (
    ("objective", "dispatch_q", "dispatch.hour"),
    ("dispatch", "solve", "powerflow.solve"),
    ("dispatch", "minimize_scalar", "dispatch.brent"),
    ("dispatch", "q_capability", "devices.q_capability"),
    ("objective", "check_limits", "objective.check_limits"),
    ("objective", "capability_violation", "devices.capability_violation"),
    ("objective", "build_ybus", "network.build_ybus"),
    ("powerflow", "build_ybus", "network.build_ybus"),
    ("objective.DayEvaluator", "evaluate", "objective.evaluate"),
    ("nsga", "nondominated_sort", "nsga.sort"),
    ("nsga", "crowding_distance", "nsga.crowding"),
)

# Counters that must repeat exactly between two traced runs of one seed.
WORK_COUNTERS = (
    "powerflow.solves", "powerflow.newton_iters", "powerflow.nonconverged",
    "sweep.solves", "sweep.iters", "network.ybus_builds",
    "devices.capability_calls",
    "dispatch.hours", "dispatch.brent_searches", "dispatch.brent_nfev",
    "dispatch.reverted_hours", "dispatch.cold_retries",
    "objective.evaluate_calls", "objective.days_computed",
    "nsga.searches", "nsga.distinct_evals", "nsga.sort_calls",
)

# per-layer metric -> (unit, spans it needs wrapped)
LAYER_METRICS = {
    "caseio.load_s": ("s", ()),
    "network.ybus_builds": ("count", ("network.build_ybus",)),
    "network.ybus_s": ("s", ("network.build_ybus",)),
    "powerflow.solves": ("count", ("powerflow.solve",)),
    "powerflow.newton_iters": ("count", ("powerflow.solve",)),
    "powerflow.iters_per_solve": ("iter/solve", ("powerflow.solve",)),
    "powerflow.nonconverged": ("count", ("powerflow.solve",)),
    "powerflow.self_s": ("s", ("powerflow.solve", "network.build_ybus")),
    "powerflow.solve_us.p50": ("us", ("powerflow.solve",)),
    "sweep.solves": ("count", ()),
    "sweep.iters": ("count", ()),
    "sweep.self_s": ("s", ()),
    "sweep.max_gap_pu": ("pu", ()),
    "devices.capability_calls": ("count", ("devices.q_capability",
                                           "devices.capability_violation")),
    "devices.self_s": ("s", ("devices.q_capability", "devices.capability_violation")),
    "dispatch.hours": ("count", ("dispatch.hour",)),
    "dispatch.brent_searches": ("count", ("dispatch.brent",)),
    "dispatch.brent_nfev": ("count", ("dispatch.brent",)),
    "dispatch.solves_per_hour": ("solve/hour", ("dispatch.hour", "powerflow.solve")),
    "dispatch.improved_ratio": ("ratio", ("dispatch.hour",)),
    "dispatch.reverted_hours": ("count", ("dispatch.hour",)),
    "dispatch.cold_retries": ("count", ("dispatch.hour", "objective.evaluate")),
    "dispatch.self_s": ("s", ("dispatch.hour", "dispatch.brent", "powerflow.solve",
                              "devices.q_capability")),
    "dispatch.hour_ms.p50": ("ms", ("dispatch.hour",)),
    "dispatch.hour_ms.p95": ("ms", ("dispatch.hour",)),
    "objective.evaluate_calls": ("count", ("objective.evaluate",)),
    "objective.days_computed": ("count", ("objective.evaluate", "dispatch.hour")),
    "objective.hit_ratio": ("ratio", ("objective.evaluate", "dispatch.hour")),
    "objective.check_limits_s": ("s", ("objective.check_limits",)),
    "objective.self_s": ("s", ("objective.evaluate", "dispatch.hour",
                               "devices.capability_violation", "network.build_ybus")),
    "nsga.searches": ("count", ()),
    "nsga.distinct_evals": ("count", ()),
    "nsga.sort_calls": ("count", ("nsga.sort",)),
    "nsga.sort_s": ("s", ("nsga.sort",)),
    "nsga.crowding_s": ("s", ("nsga.crowding",)),
    "nsga.self_s": ("s", ("nsga.sort", "nsga.crowding", "objective.evaluate")),
    "trace.overhead_frac": ("ratio", ()),
}


class Tracer:
    """In-memory span list plus counters fed by the wrappers' callbacks."""

    def __init__(self, pevplan) -> None:
        self.pevplan = pevplan
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_gap_pu = 0.0
        self.missing: dict[str, str] = {}  # span name -> reason
        self._undo: list[tuple[object, str, object]] = []
        self._callbacks = {
            "powerflow.solve": (self._newton_done, self._newton_failed),
            "sweep.solve": (self._sweep_done, None),
            "dispatch.hour": (self._hour_done, None),
            "dispatch.brent": (self._brent_done, None),
            "nsga.search": (self._search_done, None),
        }

    def wrap(self, name: str, fn):
        """``fn`` recording a span called ``name`` and that span's counters."""
        on_result, on_error = self._callbacks.get(name, (None, None))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def install(self, wrapped=WRAPPED) -> None:
        """Replace every name in ``wrapped`` by its traced wrapper."""
        for owner_path, attr, span in wrapped:
            owner = self.pevplan
            try:
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError as exc:
                self.missing[span] = f"pevplan.{owner_path}.{attr}: {exc}"
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(span, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- counters read off returned objects --------------------------------

    def _newton_done(self, sol) -> None:
        self.counts["newton_iters"] += sol.iterations

    def _newton_failed(self, exc) -> None:
        partial = getattr(exc, "solution", None)
        if partial is not None:
            self.counts["newton_iters"] += partial.iterations
        if isinstance(exc, self.pevplan.PowerFlowError):
            self.counts["nonconverged"] += 1

    def _sweep_done(self, sol) -> None:
        self.counts["sweep_iters"] += sol.iterations

    def _hour_done(self, result) -> None:
        self.counts["hours"] += 1
        self.counts["improved"] += result.score < result.base_score
        self.counts["reverted"] += bool(result.reverted)

    def _brent_done(self, res) -> None:
        self.counts["brent_nfev"] += int(res.nfev)

    def _search_done(self, result) -> None:
        self.counts["distinct_evals"] += result.evaluations

    # -- aggregation ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> Counter:
        """Self time per layer: its spans' time minus their child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, parent) in enumerate(self.spans):
            out[_layer(name)] += end - start - child[k]
        return out

    def work(self) -> dict[str, int]:
        """Exact work counters of the run (see ``WORK_COUNTERS``)."""
        calls = Counter(s[0] for s in self.spans)
        spans = self.spans
        computed = {s[3] for s in spans if s[0] == "dispatch.hour" and s[3] >= 0
                    and spans[s[3]][0] == "objective.evaluate"}
        c = self.counts
        work = {
            "powerflow.solves": calls["powerflow.solve"],
            "powerflow.newton_iters": c["newton_iters"],
            "powerflow.nonconverged": c["nonconverged"],
            "sweep.solves": calls["sweep.solve"],
            "sweep.iters": c["sweep_iters"],
            "network.ybus_builds": calls["network.build_ybus"],
            "devices.capability_calls": calls["devices.q_capability"]
            + calls["devices.capability_violation"],
            "dispatch.hours": c["hours"],
            "dispatch.brent_searches": calls["dispatch.brent"],
            "dispatch.brent_nfev": c["brent_nfev"],
            "dispatch.reverted_hours": c["reverted"],
            "dispatch.cold_retries": calls["dispatch.hour"] - 24 * len(computed),
            "objective.evaluate_calls": calls["objective.evaluate"],
            "objective.days_computed": len(computed),
            "nsga.searches": calls["nsga.search"],
            "nsga.distinct_evals": c["distinct_evals"],
            "nsga.sort_calls": calls["nsga.sort"],
        }
        return {k: work[k] for k in WORK_COUNTERS}

    def layer_metrics(self, overhead_frac: float) -> dict[str, tuple]:
        """Every per-layer metric: ``name -> (value, unit, samples, missing)``.

        ``value`` is None and ``missing`` gives the reason when a name the
        metric depends on could not be wrapped.
        """
        work = self.work()
        self_s = self.self_times()
        c = self.counts
        solve_us = [d * 1e6 for d in self.durations("powerflow.solve")]
        hour_ms = [d * 1e3 for d in self.durations("dispatch.hour")]
        hours = work["dispatch.hours"]
        solves_in_hours = sum(
            1 for s in self.spans
            if s[0] == "powerflow.solve" and _within(self.spans, s, "dispatch.hour")
        )
        calls = work["objective.evaluate_calls"]
        values = {
            "caseio.load_s": (sum(self.durations("caseio.load")), 1),
            "network.ybus_s": (sum(self.durations("network.build_ybus")),
                               work["network.ybus_builds"]),
            "powerflow.iters_per_solve": (_ratio(work["powerflow.newton_iters"],
                                                 work["powerflow.solves"]),
                                          work["powerflow.solves"]),
            "powerflow.self_s": (self_s["powerflow"], len(solve_us)),
            "powerflow.solve_us.p50": (percentile(solve_us, 50), len(solve_us)),
            "sweep.self_s": (self_s["sweep"], work["sweep.solves"]),
            "sweep.max_gap_pu": (self.max_gap_pu, work["sweep.solves"]),
            "devices.self_s": (self_s["devices"], work["devices.capability_calls"]),
            "dispatch.solves_per_hour": (_ratio(solves_in_hours, hours), hours),
            "dispatch.improved_ratio": (_ratio(c["improved"], hours), hours),
            "dispatch.self_s": (self_s["dispatch"], hours),
            "dispatch.hour_ms.p50": (percentile(hour_ms, 50), len(hour_ms)),
            "dispatch.hour_ms.p95": (percentile(hour_ms, 95), len(hour_ms)),
            "objective.hit_ratio": (_ratio(calls - work["objective.days_computed"],
                                           calls), calls),
            "objective.check_limits_s": (sum(self.durations("objective.check_limits")),
                                         len(self.durations("objective.check_limits"))),
            "objective.self_s": (self_s["objective"], calls),
            "nsga.sort_s": (sum(self.durations("nsga.sort")), work["nsga.sort_calls"]),
            "nsga.crowding_s": (sum(self.durations("nsga.crowding")),
                                len(self.durations("nsga.crowding"))),
            "nsga.self_s": (self_s["nsga"], work["nsga.searches"]),
            "trace.overhead_frac": (overhead_frac, 2),
        }
        out = {}
        for name, (unit, needs) in LAYER_METRICS.items():
            gone = [self.missing[s] for s in needs if s in self.missing]
            if gone:
                out[name] = (None, unit, 0, "; ".join(gone))
                continue
            value, samples = (work[name], work[name]) if name in work else values[name]
            out[name] = (value, unit, samples, None)
        return out


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _within(spans, span, ancestor: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: int) -> float:
    """Median for q = 50, nearest rank otherwise; 0.0 without samples."""
    if not values:
        return 0.0
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]

