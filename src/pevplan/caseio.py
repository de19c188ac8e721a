"""Case-file and profile-file input.

Two interchangeable on-disk forms are read, chosen by the file suffix
(``.json`` is read as JSON, anything else as grid text):

* ``grid`` — line-oriented text.  Sections ``[SYSTEM]``, ``[BUS]``,
  ``[BRANCH]``, ``[DEVICE]``; ``#`` starts a comment; each table section
  opens with a mandatory header line.  Columns:

  - ``[SYSTEM]``: ``key = value`` pairs (base_mva, base_kv, v_min, v_max,
    radial) rather than a table.
  - ``[BUS]``: ``id,kind,p_load_kw,q_load_kvar``
  - ``[BRANCH]``: ``from,to,r_ohm,x_ohm,i_cap_a``
  - ``[DEVICE]``: ``bus,type,s_rated_kva,x_coupling_pu,vc_max_pu,profile_id``
    with optional trailing ``n_pev,cost_per_pev`` for parking lots.

* ``json`` — the same content as one structured object, all quantities
  already per-unit, for programmatic use.

Loading converts engineering units to per-unit exactly once.  Nothing
writes cases or profiles.

Profiles live in a separate CSV (``profile_id,h0..h23``) holding per-unit
(of device rating) values; ``bind_devices`` joins them with device rows.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .devices import (
    DEFAULT_COST_PER_PEV,
    DEFAULT_N_PEV,
    DEFAULT_VC_MAX,
    DEFAULT_X_COUPLING,
    HOURS,
    Device,
    HourlyProfile,
    PevLot,
    PvUnit,
)
from .network import (
    DEFAULT_V_MAX,
    DEFAULT_V_MIN,
    Branch,
    Bus,
    Network,
    ValidationError,
    _check_base,
)

_BUS_HEADER = ["id", "kind", "p_load_kw", "q_load_kvar"]
_BRANCH_HEADER = ["from", "to", "r_ohm", "x_ohm", "i_cap_a"]
_DEVICE_HEADER = ["bus", "type", "s_rated_kva", "x_coupling_pu", "vc_max_pu", "profile_id"]
_DEVICE_HEADER_LOT = _DEVICE_HEADER + ["n_pev", "cost_per_pev"]
_SYSTEM_KEYS = {"base_mva", "base_kv", "v_min", "v_max", "radial"}
_DEVICE_TYPES = ("pv", "pevlot")


class CaseParseError(ValueError):
    """A case or profile file failed to parse; message carries file and line."""


@dataclass(frozen=True)
class DeviceSpec:
    """One device table row, engineering units, not yet bound to a profile."""

    bus: int
    type: str
    s_rated_kva: float
    x_coupling_pu: float
    vc_max_pu: float
    profile_id: str
    n_pev: int = DEFAULT_N_PEV
    cost_per_pev: float = DEFAULT_COST_PER_PEV

    def __post_init__(self) -> None:
        if self.type not in _DEVICE_TYPES:
            raise ValidationError(
                f"device at bus {self.bus}: unknown type {self.type!r}"
            )


@dataclass(frozen=True)
class Case:
    """A parsed case: the bare network plus its device table.

    Every device sits on a bus of the network, and no two devices of one
    type share a bus: they would share one setpoint label (``pv@7``).
    """

    network: Network
    devices: tuple[DeviceSpec, ...]

    def __post_init__(self) -> None:
        buses = set(self.network.bus_ids())
        seen = set()
        for spec in self.devices:
            if spec.bus not in buses:
                raise ValidationError(f"device references nonexistent bus {spec.bus}")
            if (spec.type, spec.bus) in seen:
                raise ValidationError(f"two {spec.type} devices at bus {spec.bus}")
            seen.add((spec.type, spec.bus))


class _Scales:
    """Per-unit conversion divisors for one (base_mva, base_kv) pair."""

    def __init__(self, base_mva: float, base_kv: float) -> None:
        self.power_kw = 1000.0 * base_mva
        self.impedance_ohm = base_kv**2 / base_mva
        self.current_a = base_mva * 1e3 / (math.sqrt(3.0) * base_kv)


# ---------------------------------------------------------------------------
# text ("grid") format


def _parse_bool(token: str, where: str) -> bool:
    if token.lower() in ("true", "1", "yes"):
        return True
    if token.lower() in ("false", "0", "no"):
        return False
    raise CaseParseError(f"{where}: expected boolean, got {token!r}")


def _parse_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise CaseParseError(f"{where}: expected number, got {token!r}") from None


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CaseParseError(f"{where}: expected integer, got {token!r}") from None


def _content_lines(text: str, source: str) -> Iterator[tuple[str, str]]:
    """Each line of ``text`` that holds more than a ``#`` comment, stripped
    of its comment, with its place ``source:lineno``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line, f"{source}:{lineno}"


def _key_value(line: str, where: str) -> tuple[str, str]:
    """The lower-cased key and the value of a ``key = value`` line."""
    if "=" not in line:
        raise CaseParseError(f"{where}: expected 'key = value'")
    key, _, value = line.partition("=")
    return key.strip().lower(), value.strip()


def _read_grid_text(text: str, source: str) -> Case:
    system: dict[str, str] = {}
    bus_rows: list[tuple[list[str], str]] = []
    branch_rows: list[tuple[list[str], str]] = []
    device_rows: list[tuple[list[str], str]] = []
    device_has_lot_columns = False

    section: str | None = None
    header_done = False
    for line, where in _content_lines(text, source):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().upper()
            if section not in ("SYSTEM", "BUS", "BRANCH", "DEVICE"):
                raise CaseParseError(f"{where}: unknown section [{section}]")
            header_done = section == "SYSTEM"
            continue
        if section is None:
            raise CaseParseError(f"{where}: content before any section header")

        if section == "SYSTEM":
            key, value = _key_value(line, where)
            if key not in _SYSTEM_KEYS:
                raise CaseParseError(f"{where}: unknown system key {key!r}")
            system[key] = value
            continue

        cells = [c.strip() for c in line.split(",")]
        if not header_done:
            expected = {
                "BUS": [_BUS_HEADER],
                "BRANCH": [_BRANCH_HEADER],
                "DEVICE": [_DEVICE_HEADER, _DEVICE_HEADER_LOT],
            }[section]
            lowered = [c.lower() for c in cells]
            if lowered not in expected:
                raise CaseParseError(
                    f"{where}: bad [{section}] header {cells!r}; "
                    f"expected {' or '.join(','.join(h) for h in expected)}"
                )
            device_has_lot_columns = section == "DEVICE" and lowered == _DEVICE_HEADER_LOT
            header_done = True
            continue

        target = {"BUS": bus_rows, "BRANCH": branch_rows, "DEVICE": device_rows}[section]
        target.append((cells, where))

    base_mva = _parse_float(system.get("base_mva", str(Network.base_mva)),
                            f"{source}:[SYSTEM] base_mva")
    base_kv = _parse_float(system.get("base_kv", str(Network.base_kv)),
                           f"{source}:[SYSTEM] base_kv")
    v_min = _parse_float(system.get("v_min", str(DEFAULT_V_MIN)), f"{source}:[SYSTEM] v_min")
    v_max = _parse_float(system.get("v_max", str(DEFAULT_V_MAX)), f"{source}:[SYSTEM] v_max")
    radial = _parse_bool(system.get("radial", "true"), f"{source}:[SYSTEM] radial")
    # the scales divide by the base, so it is checked before they are built
    _check_base(base_mva, base_kv)
    scales = _Scales(base_mva, base_kv)

    buses = []
    for cells, where in bus_rows:
        if len(cells) != len(_BUS_HEADER):
            raise CaseParseError(f"{where}: expected {len(_BUS_HEADER)} bus columns")
        buses.append(
            Bus(
                id=_parse_int(cells[0], where),
                kind=cells[1],
                normal_load_p=_parse_float(cells[2], where) / scales.power_kw,
                normal_load_q=_parse_float(cells[3], where) / scales.power_kw,
                v_min=v_min,
                v_max=v_max,
            )
        )

    branches = []
    for cells, where in branch_rows:
        if len(cells) != len(_BRANCH_HEADER):
            raise CaseParseError(f"{where}: expected {len(_BRANCH_HEADER)} branch columns")
        branches.append(
            Branch(
                from_bus=_parse_int(cells[0], where),
                to_bus=_parse_int(cells[1], where),
                resistance=_parse_float(cells[2], where) / scales.impedance_ohm,
                reactance=_parse_float(cells[3], where) / scales.impedance_ohm,
                current_cap=_parse_float(cells[4], where) / scales.current_a,
            )
        )

    devices = []
    n_cols = len(_DEVICE_HEADER_LOT if device_has_lot_columns else _DEVICE_HEADER)
    for cells, where in device_rows:
        if len(cells) != n_cols:
            raise CaseParseError(f"{where}: expected {n_cols} device columns")
        extra = {}
        if device_has_lot_columns:
            extra = {
                "n_pev": _parse_int(cells[6], where),
                "cost_per_pev": _parse_float(cells[7], where),
            }
        devices.append(
            DeviceSpec(
                bus=_parse_int(cells[0], where),
                type=cells[1],
                s_rated_kva=_parse_float(cells[2], where),
                x_coupling_pu=_parse_float(cells[3], where),
                vc_max_pu=_parse_float(cells[4], where),
                profile_id=cells[5],
                **extra,
            )
        )

    net = Network(buses=buses, branches=branches, base_mva=base_mva, base_kv=base_kv, radial=radial)
    return Case(network=net, devices=tuple(devices))


# ---------------------------------------------------------------------------
# structured-object ("json") format — everything already per-unit


def _json_int(value, field: str) -> int:
    """A JSON integer field's value; a bool or any other type is refused, as
    the grid reader's :func:`_parse_int` refuses a non-integer token."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CaseParseError(f"malformed case object: {field} must be an integer, got {value!r}")
    return value


def _json_number(value, field: str) -> int | float:
    """A JSON number field's value; a bool or any other type is refused, as
    the grid reader's :func:`_parse_float` refuses a non-number token."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseParseError(f"malformed case object: {field} must be a number, got {value!r}")
    return value


def case_from_dict(data: dict) -> Case:
    try:
        sysd = data["system"]
        buses = [
            Bus(
                id=_json_int(b["id"], "bus id"),
                kind=b["kind"],
                normal_load_p=_json_number(b["p_load"], "bus p_load"),
                normal_load_q=_json_number(b["q_load"], "bus q_load"),
                v_min=_json_number(b.get("v_min", DEFAULT_V_MIN), "bus v_min"),
                v_max=_json_number(b.get("v_max", DEFAULT_V_MAX), "bus v_max"),
            )
            for b in data["buses"]
        ]
        branches = [
            Branch(
                from_bus=_json_int(br["from"], "branch from"),
                to_bus=_json_int(br["to"], "branch to"),
                resistance=_json_number(br["r"], "branch r"),
                reactance=_json_number(br["x"], "branch x"),
                current_cap=_json_number(br.get("i_cap", math.inf), "branch i_cap"),
            )
            for br in data["branches"]
        ]
        devices = tuple(
            DeviceSpec(
                bus=_json_int(d["bus"], "device bus"),
                type=d["type"],
                s_rated_kva=_json_number(d["s_rated_kva"], "device s_rated_kva"),
                x_coupling_pu=_json_number(d.get("x_coupling_pu", DEFAULT_X_COUPLING),
                                           "device x_coupling_pu"),
                vc_max_pu=_json_number(d.get("vc_max_pu", DEFAULT_VC_MAX), "device vc_max_pu"),
                profile_id=d["profile_id"],
                n_pev=_json_int(d.get("n_pev", DEFAULT_N_PEV), "device n_pev"),
                cost_per_pev=_json_number(d.get("cost_per_pev", DEFAULT_COST_PER_PEV),
                                          "device cost_per_pev"),
            )
            for d in data.get("devices", [])
        )
        bases = {key: _json_number(sysd.get(key, getattr(Network, key)), f"system {key}")
                 for key in ("base_mva", "base_kv")}
        radial = sysd.get("radial", True)
        if not isinstance(radial, bool):
            raise CaseParseError(
                f"malformed case object: system radial must be true or false, got {radial!r}"
            )
        net = Network(buses=buses, branches=branches, radial=radial, **bases)
    except (AttributeError, KeyError, TypeError) as exc:
        raise CaseParseError(f"malformed case object: {exc}") from exc
    return Case(network=net, devices=devices)


# ---------------------------------------------------------------------------
# public entry points


def load_case(path: str | Path) -> Case:
    """Parse a case file into a validated :class:`Case`.

    A ``.json`` suffix is read as JSON, anything else as grid text.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"case file not found: {path}")
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CaseParseError(f"{path}: invalid JSON: {exc}") from exc
        return case_from_dict(data)
    return _read_grid_text(text, str(path))


def load_profiles(path: str | Path) -> dict[str, HourlyProfile]:
    """Read a ``profile_id,h0..h23`` CSV into profiles keyed by id."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"profile file not found: {path}")
    expected = ["profile_id"] + [f"h{i}" for i in range(HOURS)]
    profiles: dict[str, HourlyProfile] = {}
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows)
        except StopIteration:
            raise CaseParseError(f"{path}: empty profile file") from None
        if [h.strip().lower() for h in header] != expected:
            raise CaseParseError(f"{path}: bad profile header; expected {','.join(expected)}")
        for lineno, row in enumerate(rows, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != HOURS + 1:
                raise CaseParseError(f"{path}:{lineno}: expected {HOURS + 1} columns")
            pid = row[0].strip()
            if pid in profiles:
                raise CaseParseError(f"{path}:{lineno}: duplicate profile id {pid!r}")
            values = [_parse_float(tok, f"{path}:{lineno}") for tok in row[1:]]
            try:
                profiles[pid] = HourlyProfile(pid, tuple(values))
            except ValueError as exc:
                raise CaseParseError(f"{path}:{lineno}: {exc}") from exc
    return profiles


def bind_devices(
    case: Case, profiles: dict[str, HourlyProfile]
) -> list[Device]:
    """Join device rows with their profiles and convert ratings to per-unit.

    Profile values are per-unit of the device rating; the bound device
    carries absolute per-unit (system base) hourly powers.
    """
    net = case.network
    devices: list[Device] = []
    scales = _Scales(net.base_mva, net.base_kv)
    for spec in case.devices:
        profile = profiles.get(spec.profile_id)
        if profile is None:
            raise CaseParseError(
                f"device at bus {spec.bus}: profile {spec.profile_id!r} not found"
            )
        s_pu = spec.s_rated_kva / scales.power_kw
        hourly = profile.scaled(s_pu)
        if spec.type == "pv":
            kind, own = PvUnit, {"p_profile": hourly}
        else:
            kind, own = PevLot, {"charge_profile": hourly, "n_pev": spec.n_pev,
                                 "cost_per_pev": spec.cost_per_pev}
        devices.append(kind(bus=spec.bus, s_rated=s_pu, x_coupling=spec.x_coupling_pu,
                            vc_max=spec.vc_max_pu, **own))
    return devices


def builtin_path(name: str) -> Path:
    """Filesystem path of a bundled data file (case or profile CSV)."""
    path = Path(__file__).with_name("data") / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


def load_builtin(case_name: str = "bus33.grid", profile_name: str = "profiles33.csv"):
    """Bundled case and profiles: ``(Case, profiles dict)``."""
    case = load_case(builtin_path(case_name))
    profiles = load_profiles(builtin_path(profile_name))
    return case, profiles
