from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from pevplan import devices
from pevplan.devices import (
    HOURS,
    HourlyProfile,
    PevLot,
    PvUnit,
    QCapability,
    capability_violation,
    q_capability,
)

FLAT = tuple(0.02 for _ in range(HOURS))


def pv(s=0.05, x=0.05, vc=1.1, p=0.02):
    return PvUnit(7, s, tuple(p for _ in range(HOURS)), x, vc)


def lot(s=0.06, x=0.05, vc=1.1, p=0.03, **kw):
    return PevLot(19, s, tuple(p for _ in range(HOURS)), x, vc, **kw)


# -- profiles ----------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError, match="expected 24 values"):
        HourlyProfile("short", (1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        HourlyProfile("bad", tuple([math.nan] + [0.0] * 23))
    with pytest.raises(ValueError):
        HourlyProfile("neg", tuple([-0.1] + [0.0] * 23))


def test_profile_scaling_and_indexing():
    prof = HourlyProfile("flat", tuple(0.5 for _ in range(HOURS)))
    assert prof.values[3] == 0.5  # hours index the values tuple
    assert prof.scaled(2.0) == tuple(1.0 for _ in range(HOURS))


# -- device dataclasses ------------------------------------------------------


def test_device_labels_and_hourly_power():
    assert pv().label == "pv@7"
    assert lot().label == "lot@19"
    assert pv(p=0.02).p_at(11) == 0.02
    assert lot(p=0.03).p_at(0) == 0.03


def test_device_validation():
    with pytest.raises(ValueError, match="s_rated must be positive"):
        pv(s=0.0)
    with pytest.raises(ValueError, match="converter parameters"):
        pv(x=-0.05)
    with pytest.raises(ValueError, match="outside \\[0, s_rated\\]"):
        pv(s=0.01, p=0.02)  # profile above rating
    with pytest.raises(ValueError, match="needs 24 values"):
        PvUnit(7, 0.05, (0.01, 0.02))
    with pytest.raises(ValueError, match="n_pev"):
        lot(n_pev=0)
    with pytest.raises(ValueError, match="cost_per_pev"):
        lot(cost_per_pev=-1.0)


def test_lot_moved_to_changes_only_bus():
    a = lot(n_pev=60, cost_per_pev=0.05)
    b = a.moved_to(25)
    assert b.bus == 25
    assert (b.s_rated, b.n_pev, b.cost_per_pev) == (a.s_rated, a.n_pev, a.cost_per_pev)
    assert a.bus == 19  # original untouched


def test_moved_lot_equals_a_rebuilt_one_and_carries_its_label(monkeypatch):
    # a move copies the lot without checking it again; it must equal the
    # lot rebuilt at the new bus, label included, while a bad constructor
    # input still raises
    a = lot(n_pev=60, cost_per_pev=0.05)
    checked = []
    check = devices._check_device_profile
    monkeypatch.setattr(devices, "_check_device_profile",
                        lambda *args: checked.append(args) or check(*args))
    b = a.moved_to(25)
    assert not checked
    rebuilt = replace(a, bus=25)
    assert len(checked) == 1
    assert b == rebuilt and repr(b) == repr(rebuilt) and hash(b) == hash(rebuilt)
    assert (b.label, rebuilt.label, a.label) == ("lot@25", "lot@25", "lot@19")
    assert b.charge_profile is a.charge_profile
    with pytest.raises(ValueError, match="outside \\[0, s_rated\\]"):
        replace(a, s_rated=0.001)
    with pytest.raises(ValueError, match="n_pev"):
        replace(b, n_pev=0)
    assert replace(pv(), bus=9).label == "pv@9"


# -- reactive capability -----------------------------------------------------


def test_capability_hand_case():
    """S=1, P=0.5, V=1, X=0.05, Vc=1.1: rating circle binds both ends.

    Rating bound: sqrt(1 - 0.25) = 0.8660...; dc-link upper bound
    -V^2/X + sqrt((Vc*V/X)^2 - P^2) = -20 + sqrt(484 - 0.25) = 1.9943 is
    far looser, so q_max comes from the rating.
    """
    dev = PvUnit(1, 1.0, tuple(0.5 for _ in range(HOURS)), 0.05, 1.1)
    cap = q_capability(dev, 0.5, 1.0)
    assert cap.feasible
    root = math.sqrt(0.75)
    assert cap.q_max == pytest.approx(root, abs=1e-12)
    assert cap.q_min == pytest.approx(-root, abs=1e-12)


def test_capability_boundaries_satisfy_constraints():
    # both interval ends must satisfy every constraint to within 1e-9
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        s = float(rng.uniform(0.2, 2.0))
        dev = PvUnit(
            1,
            s,
            tuple(0.0 for _ in range(HOURS)),
            float(rng.uniform(0.01, 0.1)),
            float(rng.uniform(1.05, 1.3)),
        )
        p = float(rng.uniform(0.0, 1.0)) * s
        v = float(rng.uniform(0.95, 1.05))
        cap = q_capability(dev, p, v)
        if not cap.feasible:
            continue
        for q in (cap.q_min, cap.q_max):
            assert capability_violation(dev, p, q, v) <= 1e-9
        checked += 1
    assert checked > 250  # the sampled box is almost entirely feasible


def test_capability_at_full_active_power_is_degenerate():
    dev = pv(s=0.05, p=0.05)
    cap = q_capability(dev, 0.05, 1.0)
    assert cap.feasible
    assert cap.q_min == cap.q_max == 0.0
    assert cap.width == 0.0
    assert cap.contains(0.0)


def test_capability_infeasible_is_not_degenerate():
    # dc-link radius^2 < P^2 leaves no admissible Q at all; that must be
    # reported as infeasible, not as the valid point interval [0, 0]
    dev = PvUnit(1, 1.0, tuple(0.9 for _ in range(HOURS)), 2.0, 1.1)
    cap = q_capability(dev, 0.9, 0.5)
    assert not cap.feasible
    assert not cap.contains(0.0)
    assert cap.width == 0.0
    with pytest.raises(ValueError, match="infeasible"):
        cap.clamp(0.0)
    degenerate = q_capability(pv(s=0.05, p=0.05), 0.05, 1.0)
    assert degenerate.feasible != cap.feasible


def test_capability_input_validation():
    with pytest.raises(ValueError, match="bus voltage"):
        q_capability(pv(), 0.02, 0.0)
    with pytest.raises(ValueError, match="outside"):
        q_capability(pv(s=0.05), 0.06, 1.0)


def test_capability_clamp_and_contains():
    cap = QCapability(-0.3, 0.2)
    assert cap.clamp(0.5) == 0.2
    assert cap.clamp(-1.0) == -0.3
    assert cap.clamp(0.1) == 0.1
    assert cap.contains(0.2)
    assert not cap.contains(0.2000001)
    assert cap.contains(0.2000001, tol=1e-6)


def test_violation_positive_outside_interval():
    dev = pv(s=0.05, p=0.0)
    cap = q_capability(dev, 0.0, 1.0)
    outside = cap.q_max * 1.001 + 1e-6
    assert capability_violation(dev, 0.0, outside, 1.0) > 0.0
    assert capability_violation(dev, 0.0, cap.q_max * 0.5, 1.0) == 0.0
