from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from pevplan import bind_devices, load_builtin
from pevplan.devices import Device, p_injection
from pevplan.network import Branch, Bus, Network
from pevplan.powerflow import InjectionSet

# One PASS/FAIL line per acceptance check, echoed after the run so the
# verdicts survive pytest's output capture.  Populated by test_acceptance.py.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"{status}  {name}  [{detail}]")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bus33():
    case, _ = load_builtin()
    return case


@pytest.fixture(scope="session")
def profiles33():
    _, profiles = load_builtin()
    return profiles


@pytest.fixture(scope="session")
def devices33():
    case, profiles = load_builtin()
    return bind_devices(case, profiles)


def hour_injections(
    net: Network,
    devices: Sequence[Device],
    hour: int,
    q_settings: Mapping[str, float] | None = None,
    load_scale: float = 1.0,
) -> InjectionSet:
    """Net injections for one hour, bus by bus: scaled normal loads plus
    device powers, each device's Q setpoint taken off its bus.  The oracle
    of the dispatch's own assembly (``dispatch._base_injections`` and
    ``dispatch._Hour.column``)."""
    p_load, q_load = net.load_vectors()
    p = -p_load * load_scale
    q = -q_load * load_scale
    q_settings = q_settings or {}
    for dev in devices:
        pos = net.index_of(dev.bus)
        p[pos] += p_injection(dev)[hour]
        q[pos] -= q_settings.get(dev.label, 0.0)
    return InjectionSet(p, q)


def search_column(s_rest: np.ndarray, row: int, v: np.ndarray, dv_dq: np.ndarray,
                  q_now: float, qv: float) -> tuple[np.ndarray, np.ndarray]:
    """The solve request ``(s_pq, start)`` of point ``qv`` of one search,
    built for that search alone: ``j·qv`` taken off its device's ``row`` of
    the other devices' injections ``s_rest``, and the first-order start
    ``V + dv_dq·(qv − q_now)``.  The oracle of the lockstep's gathered trial
    columns (``dispatch._Trials.columns``)."""
    s_pq = s_rest.copy()
    s_pq[row] -= 1j * qv
    start = np.multiply(dv_dq, qv - q_now)
    start += v
    return s_pq, start


def assert_row_is_hour(day, hour: int, placed: Sequence[Device], result, where) -> None:
    """Row ``hour`` of a day's hours (``DayEvaluator.hours``) equals the
    lockstep's result for that hour (a ``DispatchResult``) bit for bit."""
    sol = result.solution
    np.testing.assert_array_equal(day.v[hour], sol.v_complex, err_msg=str(where))
    assert day.q[:, hour].tolist() == [result.q_settings[d.label] for d in placed], where
    assert (day.iterations[hour], day.mismatch[hour]) == (sol.iterations,
                                                          sol.max_mismatch), where
    assert (day.score[hour], day.base_score[hour], day.reverted[hour]) == (
        result.score, result.base_score, result.reverted), where


def assert_same_hour(day, alone, where) -> None:
    """A lockstep hour's result equals the serial one bit for bit."""
    assert (day.hour, day.reverted, day.infeasible_devices) == (
        alone.hour, alone.reverted, alone.infeasible_devices), where
    assert day.q_settings == alone.q_settings, where
    assert (day.score, day.base_score) == (alone.score, alone.base_score), where
    got, want = day.solution, alone.solution
    np.testing.assert_array_equal(got.v_complex, want.v_complex, err_msg=str(where))
    assert (got.iterations, got.max_mismatch) == (want.iterations, want.max_mismatch)


def small_feeder(n: int = 4, r: float = 0.01, x: float = 0.02) -> Network:
    """Chain of n buses hanging off a slack, light uniform load."""
    buses = [Bus(1, kind="slack")]
    buses += [Bus(i, normal_load_p=0.01, normal_load_q=0.005) for i in range(2, n + 1)]
    branches = [Branch(i, i + 1, r, x, 10.0) for i in range(1, n)]
    return Network(tuple(buses), tuple(branches))


@pytest.fixture
def feeder4():
    return small_feeder(4)


@st.composite
def radial_feeders(draw, min_buses: int = 3, max_buses: int = 60):
    """A random tree of 3–60 buses (or as bounded) with moderate loads,
    buses in shuffled order.

    Bus k hangs off one of buses 1..k-1; the branch row may read either way
    round, and the slack need not come first in the bus list.
    """
    n = draw(st.integers(min_buses, max_buses))
    buses = [Bus(1, kind="slack")]
    branches = []
    for k in range(2, n + 1):
        p = draw(st.floats(0.0, 0.01))
        q = draw(st.floats(-0.004, 0.006))
        buses.append(Bus(k, normal_load_p=p, normal_load_q=q))
        parent = draw(st.integers(1, k - 1))
        ends = (parent, k) if draw(st.booleans()) else (k, parent)
        branches.append(Branch(*ends, draw(st.floats(1e-4, 5e-3)),
                               draw(st.floats(1e-4, 5e-3))))
    order = draw(st.permutations(range(n)))
    return Network(tuple(buses[i] for i in order), tuple(branches))
