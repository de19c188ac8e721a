"""Converter-coupled devices: PV units and PEV parking lots.

Both device types share the same reactive-capability model: the apparent
power rating caps P² + Q², and the dc-link voltage together with the
coupling reactance caps the shifted circle (Q + V²/X)² + P².  Reactive
power is signed load-style: positive Q means the device consumes vars,
negative Q means it feeds vars into the grid.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

HOURS = 24

# Placeholder converter parameters used when a case file leaves them out.
DEFAULT_X_COUPLING = 0.05
DEFAULT_VC_MAX = 1.1
DEFAULT_N_PEV = 50
DEFAULT_COST_PER_PEV = 1.0


@dataclass(frozen=True)
class HourlyProfile:
    """24 hourly per-unit scalars with an id for case-file linkage."""

    profile_id: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if len(values) != HOURS:
            raise ValueError(
                f"profile {self.profile_id!r}: expected {HOURS} values, "
                f"got {len(values)}"
            )
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            raise ValueError(f"profile {self.profile_id!r}: values must be finite and >= 0")
        object.__setattr__(self, "values", values)

    def scaled(self, factor: float) -> tuple[float, ...]:
        return tuple(v * factor for v in self.values)


@dataclass(frozen=True)
class PvUnit:
    """Grid-tied PV inverter with an hourly active-power output profile."""

    bus: int
    s_rated: float
    p_profile: tuple[float, ...]
    x_coupling: float = DEFAULT_X_COUPLING
    vc_max: float = DEFAULT_VC_MAX
    # the device's name in setpoint maps, built once
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_device_profile(self, self.p_profile, "p_profile")
        object.__setattr__(self, "label", f"pv@{self.bus}")

    def p_at(self, hour: int) -> float:
        return self.p_profile[hour]


@dataclass(frozen=True)
class PevLot:
    """Aggregated PEV parking lot behind one converter.

    Charging demand is inelastic: ``charge_profile`` is served in full and
    only the leftover converter capacity is available for reactive support.
    """

    bus: int
    s_rated: float
    charge_profile: tuple[float, ...]
    x_coupling: float = DEFAULT_X_COUPLING
    vc_max: float = DEFAULT_VC_MAX
    n_pev: int = DEFAULT_N_PEV
    cost_per_pev: float = DEFAULT_COST_PER_PEV
    # the device's name in setpoint maps, built once
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_device_profile(self, self.charge_profile, "charge_profile")
        if self.n_pev <= 0:
            raise ValueError(f"lot at bus {self.bus}: n_pev must be positive")
        if self.cost_per_pev <= 0:
            raise ValueError(f"lot at bus {self.bus}: cost_per_pev must be positive")
        object.__setattr__(self, "label", f"lot@{self.bus}")

    def p_at(self, hour: int) -> float:
        return self.charge_profile[hour]

    def moved_to(self, bus: int) -> "PevLot":
        """Same lot placed at another bus (used by the placement search).

        The lot's fields were checked when it was built and a move changes
        none that the checks read, so the copy is not checked again.
        """
        lot = copy(self)
        object.__setattr__(lot, "bus", bus)
        object.__setattr__(lot, "label", f"lot@{bus}")
        return lot


Device = Union[PvUnit, PevLot]


def _p_profile(dev: Device) -> np.ndarray:
    """The device's active power per hour (charging for a lot), pu."""
    return np.asarray(dev.charge_profile if isinstance(dev, PevLot) else dev.p_profile)


def p_injection(dev: Device) -> np.ndarray:
    """The device's signed active injection per hour, pu.

    PV generation adds to its bus's net injection; lot charging subtracts
    from it.
    """
    p = _p_profile(dev)
    return -p if isinstance(dev, PevLot) else p


def _check_device_profile(dev, values: Sequence[float], name: str) -> None:
    values = tuple(float(v) for v in values)
    if len(values) != HOURS:
        raise ValueError(f"device at bus {dev.bus}: {name} needs {HOURS} values")
    if dev.s_rated <= 0:
        raise ValueError(f"device at bus {dev.bus}: s_rated must be positive")
    if dev.x_coupling <= 0 or dev.vc_max <= 0:
        raise ValueError(f"device at bus {dev.bus}: converter parameters must be positive")
    bad = [h for h, v in enumerate(values) if not 0.0 <= v <= dev.s_rated + 1e-12]
    if bad:
        raise ValueError(
            f"device at bus {dev.bus}: {name} outside [0, s_rated] at hours {bad}"
        )
    object.__setattr__(dev, name, values)


@dataclass(frozen=True)
class QCapability:
    """Feasible reactive-power interval of a converter at one operating point.

    ``feasible`` is False when the dc-link circle admits no Q at all for the
    given active power and bus voltage; that case is distinct from the
    degenerate-but-valid interval [0, 0] at P = S.
    """

    q_min: float
    q_max: float
    feasible: bool = True

    @property
    def width(self) -> float:
        return self.q_max - self.q_min if self.feasible else 0.0

    def clamp(self, q: float) -> float:
        if not self.feasible:
            raise ValueError("cannot clamp into an infeasible capability interval")
        return min(max(q, self.q_min), self.q_max)

    def contains(self, q: float, tol: float = 0.0) -> bool:
        return self.feasible and self.q_min - tol <= q <= self.q_max + tol


def q_capability(dev: Device, p_now: float, v_bus: float) -> QCapability:
    """Reactive limits of a device converter at active power ``p_now``.

    Intersects the rating circle Q² <= S² − P² with the dc-link circle
    (Q + V²/X)² <= (Vc·V/X)² − P².  The result is the exact interval; an
    empty intersection is reported through ``feasible=False``.
    """
    if v_bus <= 0:
        raise ValueError("bus voltage must be positive")
    if not -1e-12 <= p_now <= dev.s_rated + 1e-12:
        raise ValueError(
            f"{dev.label}: active power {p_now} outside [0, {dev.s_rated}]"
        )
    p_now = min(max(p_now, 0.0), dev.s_rated)

    rating = math.sqrt(max(dev.s_rated**2 - p_now**2, 0.0))
    center = v_bus**2 / dev.x_coupling
    radius_sq = (dev.vc_max * v_bus / dev.x_coupling) ** 2 - p_now**2
    if radius_sq < 0.0:
        return QCapability(0.0, 0.0, feasible=False)
    radius = math.sqrt(radius_sq)
    q_max = min(rating, -center + radius)
    q_min = max(-rating, -center - radius)
    if q_min > q_max:
        return QCapability(0.0, 0.0, feasible=False)
    return QCapability(q_min, q_max)


def capability_violation(dev: Device, p_now, q, v_bus):
    """Largest constraint overshoot of (p_now, q) at voltage ``v_bus``; 0 if inside.

    Works elementwise on equal-shaped arrays too, e.g. one entry per hour.
    """
    over_rating = p_now**2 + q**2 - dev.s_rated**2
    center = v_bus**2 / dev.x_coupling
    lhs = (q + center) ** 2 + p_now**2
    rhs = (dev.vc_max * v_bus / dev.x_coupling) ** 2
    return np.maximum(np.maximum(over_rating, lhs - rhs), 0.0)
