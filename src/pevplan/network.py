"""Network data model and node admittance matrix.

Buses and branches are stored in per-unit on a single system base; unit
conversion happens only in the case-file layer.  A built ``Network`` is
immutable and safe to share between concurrent solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

BusKind = Literal["slack", "load"]

DEFAULT_V_MIN = 0.95
DEFAULT_V_MAX = 1.05


class ValidationError(ValueError):
    """Structural problem in network data (bad reference, wrong topology, ...)."""


@dataclass(frozen=True)
class Bus:
    """One node of the feeder.

    Attributes:
        id: 1-based bus number as used in the source data.
        kind: "slack" for the substation bus, "load" otherwise.
        normal_load_p: active power of the normal (non-PEV) load, pu.
        normal_load_q: reactive power of the normal load, pu.
        v_min: lower voltage limit, pu.
        v_max: upper voltage limit, pu.
    """

    id: int
    kind: BusKind = "load"
    normal_load_p: float = 0.0
    normal_load_q: float = 0.0
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX

    def __post_init__(self) -> None:
        if self.kind not in ("slack", "load"):
            raise ValidationError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not (math.isfinite(self.normal_load_p) and math.isfinite(self.normal_load_q)):
            raise ValidationError(f"bus {self.id}: non-finite normal load")
        if not self.v_min < self.v_max:
            raise ValidationError(
                f"bus {self.id}: v_min {self.v_min} must be below v_max {self.v_max}"
            )


@dataclass(frozen=True)
class Branch:
    """Series R+jX element between two buses.

    ``current_cap`` is the thermal ampacity in pu of the system current base.
    """

    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    current_cap: float = float("inf")

    def __post_init__(self) -> None:
        name = f"branch {self.from_bus}-{self.to_bus}"
        if self.from_bus == self.to_bus:
            raise ValidationError(f"{name}: self-loop")
        if not (math.isfinite(self.resistance) and math.isfinite(self.reactance)):
            raise ValidationError(f"{name}: non-finite impedance {self.impedance}")
        if self.resistance < 0.0:
            raise ValidationError(f"{name}: negative resistance {self.resistance}")
        if self.reactance <= 0.0:
            raise ValidationError(
                f"{name}: reactance must be positive, got {self.reactance}"
            )
        if not self.current_cap > 0.0:
            raise ValidationError(f"{name}: current_cap must be positive")

    @property
    def impedance(self) -> complex:
        return complex(self.resistance, self.reactance)


def _check_base(base_mva: float, base_kv: float) -> None:
    """Raise unless both system base values are positive and finite."""
    for name, value in (("base_mva", base_mva), ("base_kv", base_kv)):
        if not 0 < value < math.inf:
            raise ValidationError(f"system {name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Network:
    """Validated feeder model: ordered buses, branches, and the pu base."""

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_mva: float = 10.0
    base_kv: float = 12.66
    radial: bool = True
    # id -> position lookup and the slack's position, filled in __post_init__
    _index: dict[int, int] = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _slack: int = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    # the power-flow solvers' arrays (Ybus, Z factor, sweep tree, branch and
    # limit arrays), built by them on first use (two concurrent first solves
    # may both build them; either copy is right); out of __init__, so a
    # dataclasses.replace copy builds its own
    _arrays: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        _check_base(self.base_mva, self.base_kv)
        index: dict[int, int] = {}
        for pos, bus in enumerate(self.buses):
            if bus.id in index:
                raise ValidationError(f"duplicate bus id {bus.id}")
            index[bus.id] = pos
        object.__setattr__(self, "_index", index)

        slacks = [pos for pos, b in enumerate(self.buses) if b.kind == "slack"]
        if len(slacks) != 1:
            ids = [self.buses[pos].id for pos in slacks]
            raise ValidationError(
                f"exactly one slack bus required, found {len(slacks)}: {ids}"
            )
        object.__setattr__(self, "_slack", slacks[0])
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in index:
                    raise ValidationError(
                        f"branch {br.from_bus}-{br.to_bus} references "
                        f"nonexistent bus {end}"
                    )
        self._check_connected()
        if self.radial and len(self.branches) != len(self.buses) - 1:
            raise ValidationError(
                f"radial network needs {len(self.buses) - 1} branches, "
                f"found {len(self.branches)}"
            )

    def _check_connected(self) -> None:
        adjacency: dict[int, list[int]] = {b.id: [] for b in self.buses}
        for br in self.branches:
            adjacency[br.from_bus].append(br.to_bus)
            adjacency[br.to_bus].append(br.from_bus)
        seen = {self.slack_id}
        stack = [self.slack_id]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        missing = sorted(set(adjacency) - seen)
        if missing:
            raise ValidationError(
                f"buses {missing} are not connected to the slack bus"
            )

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def slack_id(self) -> int:
        return self.buses[self._slack].id

    @property
    def slack_index(self) -> int:
        return self._slack

    def index_of(self, bus_id: int) -> int:
        """Position of a bus id in the internal ordering."""
        try:
            return self._index[bus_id]
        except KeyError:
            raise KeyError(f"no bus with id {bus_id}") from None

    def __contains__(self, bus_id: object) -> bool:
        """Whether the network has a bus with id ``bus_id``."""
        return bus_id in self._index

    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    def load_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Normal-load P and Q per bus position, pu."""
        p = np.array([b.normal_load_p for b in self.buses], dtype=float)
        q = np.array([b.normal_load_q for b in self.buses], dtype=float)
        return p, q

    def voltage_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([b.v_min for b in self.buses], dtype=float)
        hi = np.array([b.v_max for b in self.buses], dtype=float)
        return lo, hi


def build_ybus(net: Network) -> np.ndarray:
    """The dense bus admittance matrix, complex and read-only.

    Off-diagonals are the negated series admittance of the connecting
    branch, diagonals the sum of incident branch admittances.  No shunt
    elements are modeled, so every row sums to zero.
    """
    n = net.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        i = net.index_of(br.from_bus)
        j = net.index_of(br.to_bus)
        y_series = 1.0 / br.impedance
        y[i, j] -= y_series
        y[j, i] -= y_series
        y[i, i] += y_series
        y[j, j] += y_series
    y.setflags(write=False)
    return y
