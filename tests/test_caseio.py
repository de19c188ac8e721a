from __future__ import annotations

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from pevplan.caseio import (
    CaseParseError,
    DeviceSpec,
    builtin_path,
    case_from_dict,
    load_builtin,
    load_case,
    load_profiles,
)
from pevplan.network import ValidationError

MINIMAL_GRID = """\
[SYSTEM]
base_mva = 10.0
base_kv = 12.66

[BUS]
id,kind,p_load_kw,q_load_kvar
1,slack,0.0,0.0
2,load,100.0,60.0   # inline comment

[BRANCH]
from,to,r_ohm,x_ohm,i_cap_a
1,2,0.0922,0.0470,400.0
"""


# One feeder twice: engineering units in grid text, per-unit in JSON.  The
# bases are 10 MVA and 12.66 kV, so power divides by 1e4 kW, impedance by
# 16.02756 ohm and current by 456.0428666584722 A.
CROSS_GRID = """\
[SYSTEM]
base_mva = 10.0
base_kv = 12.66
v_min = 0.94
v_max = 1.06
radial = true

[BUS]
id,kind,p_load_kw,q_load_kvar
1,slack,0.0,0.0
2,load,100.0,60.0
3,load,90.0,40.0

[BRANCH]
from,to,r_ohm,x_ohm,i_cap_a
1,2,0.0922,0.0470,400.0
2,3,0.4930,0.2511,300.0

[DEVICE]
bus,type,s_rated_kva,x_coupling_pu,vc_max_pu,profile_id,n_pev,cost_per_pev
2,pv,500.0,0.04,1.15,pv-a,1,1.0
3,pevlot,600.0,0.05,1.1,lot-a,60,0.05
"""

CROSS_JSON = {
    "system": {"base_mva": 10.0, "base_kv": 12.66, "radial": True},
    "buses": [
        {"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0,
         "v_min": 0.94, "v_max": 1.06},
        {"id": 2, "kind": "load", "p_load": 0.01, "q_load": 0.006,
         "v_min": 0.94, "v_max": 1.06},
        {"id": 3, "kind": "load", "p_load": 0.009, "q_load": 0.004,
         "v_min": 0.94, "v_max": 1.06},
    ],
    "branches": [
        {"from": 1, "to": 2, "r": 0.005752591161723931, "x": 0.002932448856844086,
         "i_cap": 0.8771105289528794},
        {"from": 2, "to": 3, "r": 0.03075951673242839, "x": 0.0156667639990117,
         "i_cap": 0.6578328967146596},
    ],
    "devices": [
        {"bus": 2, "type": "pv", "s_rated_kva": 500.0, "x_coupling_pu": 0.04,
         "vc_max_pu": 1.15, "profile_id": "pv-a", "n_pev": 1, "cost_per_pev": 1.0},
        {"bus": 3, "type": "pevlot", "s_rated_kva": 600.0, "x_coupling_pu": 0.05,
         "vc_max_pu": 1.1, "profile_id": "lot-a", "n_pev": 60, "cost_per_pev": 0.05},
    ],
}


def write_case(tmp_path, text, name="case.grid"):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- bundled data ------------------------------------------------------------


def test_builtin_case_shape(bus33):
    net = bus33.network
    assert net.n_bus == 33
    assert len(net.branches) == 32
    assert net.base_mva == 10.0
    assert net.base_kv == 12.66
    assert net.slack_id == 1
    # total feeder load: 3715 kW / 2300 kvar
    p, q = net.load_vectors()
    assert p.sum() * 10_000 == pytest.approx(3715.0)
    assert q.sum() * 10_000 == pytest.approx(2300.0)


def test_builtin_devices(bus33, profiles33):
    kinds = sorted((d.type, d.bus) for d in bus33.devices)
    assert [k for k, _ in kinds].count("pv") == 3
    assert [k for k, _ in kinds].count("pevlot") == 2
    assert set(profiles33) >= {d.profile_id for d in bus33.devices}


def test_builtin_path_missing_name():
    with pytest.raises(FileNotFoundError):
        builtin_path("nope.grid")


def test_builtin_twobus_case():
    case, _ = load_builtin(case_name="twobus.grid")
    assert case.network.n_bus == 2
    assert case.devices == ()


# -- grid text parsing -------------------------------------------------------


def test_parse_minimal_grid(tmp_path):
    case = load_case(write_case(tmp_path, MINIMAL_GRID))
    net = case.network
    assert net.n_bus == 2
    load = net.buses[net.index_of(2)]
    assert load.normal_load_p == pytest.approx(0.01)
    assert load.normal_load_q == pytest.approx(0.006)
    br = net.branches[0]
    assert br.resistance == pytest.approx(0.0922 / (12.66**2 / 10.0))
    assert br.current_cap == pytest.approx(400.0 / (10.0 * 1e3 / (math.sqrt(3.0) * 12.66)))


def test_parse_error_reports_file_and_line(tmp_path):
    bad = MINIMAL_GRID.replace("2,load,100.0,60.0   # inline comment", "2,load,oops,60.0")
    path = write_case(tmp_path, bad)
    with pytest.raises(CaseParseError, match=rf"{path.name}:8: expected number, got 'oops'"):
        load_case(path)


def test_parse_rejects_unknown_section(tmp_path):
    path = write_case(tmp_path, "[GENERATOR]\n")
    with pytest.raises(CaseParseError, match=r"unknown section \[GENERATOR\]"):
        load_case(path)


def test_parse_rejects_content_before_section(tmp_path):
    path = write_case(tmp_path, "1,slack,0,0\n")
    with pytest.raises(CaseParseError, match="content before any section"):
        load_case(path)


def test_parse_rejects_missing_header(tmp_path):
    bad = MINIMAL_GRID.replace("id,kind,p_load_kw,q_load_kvar\n", "")
    with pytest.raises(CaseParseError, match=r"bad \[BUS\] header"):
        load_case(write_case(tmp_path, bad))


def test_parse_rejects_wrong_column_count(tmp_path):
    bad = MINIMAL_GRID + "0.5\n"
    with pytest.raises(CaseParseError, match="expected 5 branch columns"):
        load_case(write_case(tmp_path, bad))


_DEVICE_ROWS = ("\n[DEVICE]\nbus,type,s_rated_kva,x_coupling_pu,vc_max_pu,profile_id\n"
                "2,pv,500.0,0.05,1.1\n")


@pytest.mark.parametrize("old, new, message", [
    ("2,load,100.0", "7.5,load,100.0", r"case.grid:8: expected integer, got '7.5'"),
    ("base_kv = 12.66", "base_kv = 12.66\nradial = maybe",
     r"case.grid:\[SYSTEM\] radial: expected boolean, got 'maybe'"),
    ("base_kv = 12.66", "base_kv 12.66", r"case.grid:3: expected 'key = value'"),
    ("2,load,100.0,60.0", "2,load,100.0", r"case.grid:8: expected 4 bus columns"),
    ("400.0\n", "400.0\n" + _DEVICE_ROWS, r"case.grid:16: expected 6 device columns"),
], ids=["non-integer id", "radial", "system line", "bus columns", "device columns"])
def test_parse_rejects_a_malformed_line(tmp_path, old, new, message):
    bad = MINIMAL_GRID.replace(old, new)
    assert bad != MINIMAL_GRID
    with pytest.raises(CaseParseError, match=message):
        load_case(write_case(tmp_path, bad))


def test_parse_reads_radial_no_as_false(tmp_path):
    text = MINIMAL_GRID.replace("base_kv = 12.66", "base_kv = 12.66\nradial = no")
    assert load_case(write_case(tmp_path, text)).network.radial is False


def test_parse_rejects_unknown_system_key(tmp_path):
    bad = MINIMAL_GRID.replace("base_kv = 12.66", "frequency = 50")
    with pytest.raises(CaseParseError, match="unknown system key 'frequency'"):
        load_case(write_case(tmp_path, bad))


def test_parse_rejects_unknown_device_type(tmp_path):
    bad = MINIMAL_GRID + (
        "\n[DEVICE]\nbus,type,s_rated_kva,x_coupling_pu,vc_max_pu,profile_id\n"
        "2,windmill,500.0,0.05,1.1,some-profile\n"
    )
    with pytest.raises(ValidationError, match="unknown type 'windmill'"):
        load_case(write_case(tmp_path, bad))


def test_parse_rejects_device_on_missing_bus(tmp_path):
    bad = MINIMAL_GRID + (
        "\n[DEVICE]\nbus,type,s_rated_kva,x_coupling_pu,vc_max_pu,profile_id\n"
        "7,pv,500.0,0.05,1.1,some-profile\n"
    )
    with pytest.raises(ValidationError, match="nonexistent bus 7"):
        load_case(write_case(tmp_path, bad))


def test_case_from_dict_rejects_device_on_missing_bus():
    # the JSON reader builds the same Case, so it runs the same check
    data = copy.deepcopy(CROSS_JSON)
    data["devices"][0]["bus"] = 7
    with pytest.raises(ValidationError, match="nonexistent bus 7"):
        case_from_dict(data)


@pytest.mark.parametrize("kind, bus", [("pv", 2), ("pevlot", 3)])
def test_two_devices_of_one_type_on_one_bus_are_rejected(tmp_path, kind, bus):
    # they would share one setpoint label (pv@2), so the dispatch could not
    # tell their setpoints apart; a PV and a lot may share a bus
    data = copy.deepcopy(CROSS_JSON)
    twin = next(d for d in data["devices"] if d["type"] == kind)
    data["devices"].append(dict(twin, s_rated_kva=250.0))
    with pytest.raises(ValidationError, match=f"two {kind} devices at bus {bus}"):
        case_from_dict(data)
    row = next(line for line in CROSS_GRID.splitlines() if f",{kind}," in line)
    with pytest.raises(ValidationError, match=f"two {kind} devices at bus {bus}"):
        load_case(write_case(tmp_path, CROSS_GRID + row.replace("500.0", "250.0") + "\n"))
    data["devices"][-1]["type"] = "pevlot" if kind == "pv" else "pv"
    assert len(case_from_dict(data).devices) == 3


def test_missing_case_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_case(tmp_path / "absent.grid")


# -- the two readers against each other -------------------------------------


def assert_same_case(a, b):
    """Equal cases, with per-unit floats equal to 1e-15 relative."""
    na, nb = a.network, b.network
    assert (na.base_mva, na.base_kv, na.radial) == (nb.base_mva, nb.base_kv, nb.radial)
    for rows_a, rows_b in ((na.buses, nb.buses), (na.branches, nb.branches)):
        assert len(rows_a) == len(rows_b)
        for row_a, row_b in zip(rows_a, rows_b):
            for f in dataclasses.fields(row_a):
                x, y = getattr(row_a, f.name), getattr(row_b, f.name)
                if isinstance(x, float):
                    assert x == pytest.approx(y, rel=1e-15, abs=0.0), (row_a, f.name)
                else:
                    assert x == y, (row_a, f.name)
    assert a.devices == b.devices


def test_json_and_grid_readers_agree(tmp_path):
    grid = load_case(write_case(tmp_path, CROSS_GRID))
    as_json = load_case(write_case(tmp_path, json.dumps(CROSS_JSON), "case.json"))
    assert_same_case(grid, as_json)
    assert_same_case(grid, case_from_dict(CROSS_JSON))
    lot = as_json.devices[1]
    assert (lot.type, lot.n_pev, lot.cost_per_pev) == ("pevlot", 60, 0.05)


def test_case_from_dict_rejects_malformed():
    with pytest.raises(CaseParseError, match="malformed case object"):
        case_from_dict({"system": {}, "buses": [{"id": 1}], "branches": []})


def test_case_from_dict_checks_system_types():
    # radial must be a JSON boolean and the bases JSON numbers; a JSON
    # boolean is not a number
    data = copy.deepcopy(CROSS_JSON)
    data["system"] = {"base_mva": 10, "base_kv": 12.66, "radial": False}
    net = case_from_dict(data).network
    assert net.radial is False and net.base_mva == 10
    for system, field in (
        ({"radial": "false"}, "radial"),
        ({"radial": 0}, "radial"),
        ({"base_mva": True}, "base_mva"),
        ({"base_kv": None}, "base_kv"),
    ):
        data["system"] = system
        with pytest.raises(CaseParseError, match=f"malformed case object: system {field} must be"):
            case_from_dict(data)


@pytest.mark.parametrize("section, row, key, field", [
    ("buses", 1, "id", "bus id"),
    ("branches", 0, "from", "branch from"),
    ("branches", 1, "to", "branch to"),
    ("devices", 0, "bus", "device bus"),
    ("devices", 1, "n_pev", "device n_pev"),
])
@pytest.mark.parametrize("value", ["2", 2.0, 1.5, True, None])
def test_case_from_dict_requires_integer_ids(section, row, key, field, value):
    # the grid reader parses these fields as integers; a JSON case must give
    # JSON integers, not text, floats or booleans, or its ids name no bus
    data = copy.deepcopy(CROSS_JSON)
    data[section][row][key] = value
    with pytest.raises(CaseParseError,
                       match=f"malformed case object: {field} must be an integer, got"):
        case_from_dict(data)


@pytest.mark.parametrize("section, row, key, field", [
    ("buses", 1, "p_load", "bus p_load"),
    ("buses", 2, "q_load", "bus q_load"),
    ("buses", 1, "v_min", "bus v_min"),
    ("buses", 2, "v_max", "bus v_max"),
    ("branches", 0, "r", "branch r"),
    ("branches", 1, "x", "branch x"),
    ("branches", 0, "i_cap", "branch i_cap"),
    ("devices", 1, "s_rated_kva", "device s_rated_kva"),
    ("devices", 1, "x_coupling_pu", "device x_coupling_pu"),
    ("devices", 0, "vc_max_pu", "device vc_max_pu"),
    ("devices", 1, "cost_per_pev", "device cost_per_pev"),
])
@pytest.mark.parametrize("value", ["0.05", True, None])
def test_case_from_dict_requires_numbers(section, row, key, field, value):
    # the grid reader parses these fields as numbers; a JSON case must give
    # JSON numbers, not text or booleans (true would load as 1.0), and the
    # refusal names the field
    data = copy.deepcopy(CROSS_JSON)
    data[section][row][key] = value
    with pytest.raises(CaseParseError,
                       match=f"malformed case object: {field} must be a number, got"):
        case_from_dict(data)


def test_case_from_dict_takes_integer_numbers():
    data = copy.deepcopy(CROSS_JSON)
    data["devices"][1]["s_rated_kva"] = 600
    data["branches"][0]["i_cap"] = 1
    case = case_from_dict(data)
    assert case.devices[1].s_rated_kva == 600.0
    assert case.network.branches[0].current_cap == 1.0


def test_format_inference_and_override(tmp_path):
    # the suffix alone picks the reader: .json is JSON, anything else grid
    text = json.dumps(CROSS_JSON)
    assert_same_case(load_case(write_case(tmp_path, text, "case.JSON")),
                     load_case(write_case(tmp_path, CROSS_GRID, "case.txt")))
    with pytest.raises(CaseParseError):
        load_case(write_case(tmp_path, text, "case.dat"))  # JSON read as grid text
    with pytest.raises(CaseParseError, match="invalid JSON"):
        load_case(write_case(tmp_path, CROSS_GRID, "case.json"))


# -- profiles ----------------------------------------------------------------


def test_load_builtin_profiles(profiles33):
    assert set(profiles33) == {"pv-south", "lot-commuter", "load-weekday"}
    pv = profiles33["pv-south"]
    assert len(pv.values) == 24
    assert max(pv.values) == pytest.approx(0.85)
    assert pv.values[0] == 0.0  # no sun at midnight


def test_profile_header_is_checked(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("profile_id," + ",".join(f"hour{i}" for i in range(24)) + "\n")
    with pytest.raises(CaseParseError, match="bad profile header"):
        load_profiles(p)


def test_empty_profile_file_rejected(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("")
    with pytest.raises(CaseParseError, match="empty profile file"):
        load_profiles(p)


def test_blank_profile_rows_are_skipped(tmp_path):
    header = "profile_id," + ",".join(f"h{i}" for i in range(24))
    row = "flat," + ",".join("0.5" for _ in range(24))
    p = tmp_path / "p.csv"
    p.write_text("\n".join([header, "", row, "   ", ""]) + "\n")
    assert list(load_profiles(p)) == ["flat"]


def test_profile_duplicate_id_rejected(tmp_path):
    header = "profile_id," + ",".join(f"h{i}" for i in range(24))
    row = "flat," + ",".join("1.0" for _ in range(24))
    p = tmp_path / "p.csv"
    p.write_text("\n".join([header, row, row]) + "\n")
    with pytest.raises(CaseParseError, match="duplicate profile id 'flat'"):
        load_profiles(p)


def test_profile_wrong_width_rejected(tmp_path):
    header = "profile_id," + ",".join(f"h{i}" for i in range(24))
    p = tmp_path / "p.csv"
    p.write_text(header + "\nshort,1.0,2.0\n")
    with pytest.raises(CaseParseError, match="expected 25 columns"):
        load_profiles(p)


def test_profile_negative_value_rejected(tmp_path):
    header = "profile_id," + ",".join(f"h{i}" for i in range(24))
    row = "neg," + ",".join("-1.0" if i == 3 else "0.5" for i in range(24))
    p = tmp_path / "p.csv"
    p.write_text(header + "\n" + row + "\n")
    with pytest.raises(CaseParseError):
        load_profiles(p)


# -- device binding ----------------------------------------------------------


def test_bind_devices_scales_by_rating(bus33, profiles33, devices33):
    spec = next(d for d in bus33.devices if d.type == "pv")
    bound = next(d for d in devices33 if d.bus == spec.bus)
    s_pu = spec.s_rated_kva / (1000.0 * bus33.network.base_mva)
    assert bound.s_rated == pytest.approx(s_pu)
    shape = profiles33[spec.profile_id]
    got = [bound.p_at(h) for h in range(24)]
    np.testing.assert_allclose(got, [v * s_pu for v in shape.values])


def test_bind_devices_missing_profile(bus33):
    with pytest.raises(CaseParseError, match="profile 'pv-south' not found"):
        from pevplan.caseio import bind_devices

        bind_devices(bus33, {})


def test_device_spec_round_trips_lot_columns(tmp_path):
    text = MINIMAL_GRID + (
        "\n[DEVICE]\n"
        "bus,type,s_rated_kva,x_coupling_pu,vc_max_pu,profile_id,n_pev,cost_per_pev\n"
        "2,pevlot,600.0,0.05,1.1,lot-a,60,0.05\n"
        "2,pv,500.0,0.04,1.15,pv-a,1,1.0\n"
    )
    case = load_case(write_case(tmp_path, text))
    lot, pv = case.devices
    assert lot == DeviceSpec(2, "pevlot", 600.0, 0.05, 1.1, "lot-a", 60, 0.05)
    assert pv.n_pev == 1
    # the JSON reader carries the same columns into the same rows
    data = copy.deepcopy(CROSS_JSON)
    data["devices"] = [
        {"bus": 2, "type": "pevlot", "s_rated_kva": 600.0, "x_coupling_pu": 0.05,
         "vc_max_pu": 1.1, "profile_id": "lot-a", "n_pev": 60, "cost_per_pev": 0.05},
        {"bus": 2, "type": "pv", "s_rated_kva": 500.0, "x_coupling_pu": 0.04,
         "vc_max_pu": 1.15, "profile_id": "pv-a", "n_pev": 1, "cost_per_pev": 1.0},
    ]
    assert case_from_dict(data).devices == case.devices
