"""pevplan benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload day-v2g --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; pevplan is imported from its ``src/``.
With ``--trace 0`` the workload runs untraced for ``--seconds`` seconds and
the end-to-end metrics are reported.  With ``--trace 1`` a fixed number of
operations runs twice, untraced and then traced, and the per-layer metrics
of the traced pass are reported with the tracing overhead.

``setup_s`` is the cold set-up a ``simulate`` or ``optimize`` command pays:
each sample is taken in a fresh process forked before the run's own first
set-up, so no cache the package keeps in its process is warm.

The gated times are in reference seconds.  A shared host's speed drifts by
tens of percent from minute to minute, so between operations the run also
times a fixed reference kernel that belongs to this benchmark, never to
pevplan, and scales wall time by the host's measured speed relative to
``REF_RATE`` kernels a second.  The wall-clock figures are printed too.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it holds
the details: the workload's own metric names with units and sample counts,
the exact work counters of a traced run, the enumerated optima of the golden
table, the first failures, and the environment stamp.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import struct
import sys
from time import perf_counter

# common pins BLAS to one thread, so it is imported before numpy
from common import MissingProgram, import_pevplan, load_golden

import numpy as np

from tracing import Tracer, percentile
from workloads import WORKLOADS

SAMPLE_EVERY_S = 0.25  # set-up and speed samples between operations
REF_SHARE = 0.1  # share of the run spent on the reference kernel
REF_RATE = 2500.0  # kernels a second that define a reference second
# name -> unit, for the end-to-end metrics every workload reports; times
# are in reference seconds, and ok_frac is 1 - fail_frac, never 0
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}
# Wall-clock throughput and latency under each workload's own names.
_OWN_NAMES = {
    "day-v2g": ("days_per_s", ("day_s.p50", "s", 50)),
    "search-none": ("searches_per_s", ("search_s.p50", "s", 50)),
    "snapshot": ("checked_solves_per_s", ("checked_solve_us.p50", "us", 50),
                 ("checked_solve_us.p90", "us", 90)),
}
_SCALE = {"s": 1.0, "us": 1e6}


def untraced(name, fn):
    return fn


def measure(workload, state, seed: int, seconds: float = 0.0,
            max_ops: int | None = None, tick=None):
    """Run operations until ``seconds`` pass, or ``max_ops`` are done.

    A timed run ends on the boundary between whole batches of the
    workload's inputs that lies nearest to ``seconds``.  Every exception
    and every oracle mismatch counts as a failed operation, and the loop
    goes on after either.  ``tick(interval)`` is called between operations
    once ``SAMPLE_EVERY_S`` has passed since the previous call.
    """
    durations: list[float] = []
    failures: list[str] = []
    start = last_tick = perf_counter()
    for op in workload.inputs(seed):
        now = perf_counter()
        if tick is not None and now - last_tick >= SAMPLE_EVERY_S:
            tick(now - last_tick)
            last_tick = perf_counter()
        t0 = perf_counter()
        try:
            out = workload.run(state, op)
            t1 = perf_counter()
            err = workload.check(op, out)
        except Exception as exc:
            t1 = perf_counter()
            err = f"{op!r}: {type(exc).__name__}: {exc}"
        durations.append(t1 - t0)
        if err:
            failures.append(err)
        if max_ops is not None:
            if len(durations) >= max_ops:
                break
        elif len(durations) % workload.batch == 0:
            elapsed = t1 - start
            per_batch = elapsed * workload.batch / len(durations)
            if elapsed + per_batch / 2 >= seconds:
                break
    return durations, failures


def _interquartile_mean(values: list[float]) -> float:
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


class Yardstick:
    """A fixed reference kernel whose rate measures the host's current speed.

    It mixes, in about equal time, what pevplan's operations do: small dense
    complex products, a 64 x 64 linear solve and a loop over a bus vector,
    then tuple-keyed dict updates and a sort, as the search and its cache
    do.  Its inputs are fixed, so its work never changes.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        n = 33
        self.y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) \
            + 8 * np.eye(n)
        self.jac = rng.standard_normal((2 * n, 2 * n)) + 8 * np.eye(2 * n)
        self.rhs = rng.standard_normal(2 * n)
        self.runs = 0
        self.seconds = 0.0

    def kernel(self) -> float:
        n = len(self.y)
        v = np.ones(n, dtype=complex)
        acc = 0.0
        for _ in range(4):
            s = v * np.conj(self.y @ v)
            dx = np.linalg.solve(self.jac, self.rhs + s.real.repeat(2))
            v = v + 1e-3 * (dx[:n] + 1j * dx[n:])
            for k in range(n):
                acc += abs(v[k])
        table: dict[tuple[int, int], float] = {}
        for k in range(600):
            key = (k % 31, k * 7 % 29)
            table[key] = table.get(key, 0.0) + k * 0.5
        return acc + sorted(table.items(), key=lambda kv: (kv[1], kv[0]))[0][1]

    def run_for(self, seconds: float) -> None:
        t0 = perf_counter()
        while True:
            self.kernel()
            self.runs += 1
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    @property
    def speed(self) -> float:
        """Host speed relative to the reference: 1.0 at ``REF_RATE``."""
        return self.runs / self.seconds / REF_RATE


class ColdSetups:
    """Times set-ups, each in a fresh process forked from a pristine one.

    The constructor forks a server before the caller's first set-up.  For
    every ``time()`` the server forks a child that runs ``setup`` once and
    reports its wall time, then waits for the child to end.  So every
    sample starts with the package imported and nothing else: no cache the
    package keeps in its process has been filled.  The server exits when
    ``close()`` shuts its command pipe, or when the caller's process ends.
    """

    def __init__(self, setup) -> None:
        cmd_r, self._cmd = os.pipe()
        self._result, result_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(self._cmd)
            os.close(self._result)
            try:
                while os.read(cmd_r, 1):
                    os.write(result_w, self._time_in_child(setup))
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(result_w)

    @staticmethod
    def _time_in_child(setup) -> bytes:
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                t0 = perf_counter()
                setup()
                os.write(write, struct.pack("d", perf_counter() - t0))
            finally:
                os._exit(0)
        os.close(write)
        os.waitpid(pid, 0)
        report = os.read(read, 8)
        os.close(read)
        return report if len(report) == 8 else struct.pack("d", float("nan"))

    def time(self) -> float:
        os.write(self._cmd, b"t")
        report = os.read(self._result, 8)
        if len(report) != 8:
            raise RuntimeError("the set-up server ended early")
        (elapsed,) = struct.unpack("d", report)
        if elapsed != elapsed:
            raise RuntimeError("set-up failed in a fresh process")
        return elapsed

    def close(self) -> None:
        os.close(self._cmd)
        os.waitpid(self._pid, 0)
        os.close(self._result)


def timed_run(pevplan, golden: dict, name: str, seed: int, seconds: float) -> dict:
    """Untraced run: operations for ``seconds``, sampled for set-up and speed.

    The run's own set-up is timed, and between operations, about every
    ``SAMPLE_EVERY_S``, one more cold set-up is timed in a fresh process
    (``ColdSetups``) and the reference kernel runs for ``REF_SHARE`` of the
    time since the last sample, so both follow the host's speed across the
    whole run.  ``setup_s`` is the interquartile mean of these set-ups: it
    follows the share of slow periods smoothly, where a median jumps between
    the slow and the fast level, and it ignores a garbage-collection pause.
    """
    def fresh_setup():
        workload = WORKLOADS[name](golden)
        return workload, workload.setup(pevplan, untraced)

    def tick(interval: float) -> None:
        setups.append(cold.time())
        yardstick.run_for(REF_SHARE * interval)

    cold = ColdSetups(fresh_setup)
    try:
        yardstick = Yardstick()
        t0 = perf_counter()
        workload, state = fresh_setup()
        setups = [perf_counter() - t0]
        yardstick.run_for(0.1)
        durations, failures = measure(workload, state, seed, seconds, tick=tick)
    finally:
        cold.close()
    n = len(durations)
    rate = n / sum(durations)
    setup = _interquartile_mean(setups)
    speed = yardstick.speed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": rate / speed,
        "setup_s": setup * speed,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - len(failures) / n,
    }
    rate_name, *latencies = _OWN_NAMES[name]
    own = {
        rate_name: (rate, "1/s", n),
        "setup_s": (setup, "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MiB", 1),
        "fail_frac": (len(failures) / n, "ratio", n),
        "host_speed": (speed, "ratio", yardstick.runs),
    }
    for metric, unit, q in latencies:
        own[metric] = (percentile(durations, q) * _SCALE[unit], unit, n)
    if name == "search-none":
        own["search_optimal_frac"] = (workload.optimal / n, "ratio", n)
    return {
        "attempted": n,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "detail": {
            "metrics": {k: {"value": v, "unit": u, "samples": s}
                        for k, (v, u, s) in own.items()},
            "measured_s": sum(durations),
        },
    }


def traced_run(pevplan, golden: dict, name: str, seed: int) -> dict:
    """The workload's fixed operation list untraced, then traced."""
    workload = WORKLOADS[name](golden)
    state = workload.setup(pevplan, untraced)
    plain, failures = measure(workload, state, seed, max_ops=workload.trace_ops)

    tracer = Tracer(pevplan)
    tracer.install()
    try:
        workload = WORKLOADS[name](golden)
        state = workload.setup(pevplan, tracer.wrap)
        traced, traced_failures = measure(workload, state, seed,
                                          max_ops=workload.trace_ops)
    finally:
        tracer.restore()
    tracer.max_gap_pu = getattr(workload, "max_gap_pu", 0.0)
    overhead = sum(traced) / sum(plain) - 1.0

    metrics = {}
    samples = {}
    for metric, (value, unit, count, missing) in tracer.layer_metrics(overhead).items():
        metrics[metric] = {"value": value, "unit": unit}
        if missing:
            metrics[metric]["missing"] = missing
        samples[metric] = count
    return {
        "attempted": len(plain) + len(traced),
        "failures": failures + traced_failures,
        "metrics": metrics,
        "detail": {
            "work_counters": tracer.work(),
            "samples": samples,
            "missing_layers": tracer.missing,
            "untraced_s": sum(plain),
            "traced_s": sum(traced),
        },
    }


def environment() -> dict:
    """Versions, BLAS library and threads, CPU count and model."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    stamp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return stamp


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or the pinned setting."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        pevplan = import_pevplan()
        golden = load_golden()
    except (MissingProgram, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        result = traced_run(pevplan, golden, args.workload, args.seed)
    else:
        result = timed_run(pevplan, golden, args.workload, args.seed, args.seconds)
    failures = result["failures"]
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_frac": len(failures) / result["attempted"],
        "failures": failures[:10],
        "golden_optima": golden["optima"],
        **result["detail"],
        "environment": environment(),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
