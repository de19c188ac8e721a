from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pevplan
from pevplan import cli
from pevplan.caseio import CaseParseError, bind_devices, builtin_path, load_builtin
from pevplan.cli import main
from pevplan.dispatch import _MODE_ALIASES, MODES, Scenario, canonical_mode
from pevplan.network import ValidationError
from pevplan.nsga import InfeasibleConfigError
from pevplan.objective import DayEvaluator
from pevplan.powerflow import (InjectionSet, NonConvergence, PowerFlowSolution,
                               SingularJacobian, solve)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# Well above the fraction of a second that importing pevplan takes, so that
# only a hung child process fails on it.
SCRIPT_TIMEOUT_S = 120

BAD_GRID = """\
[SYSTEM]
base_mva = ten
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ----------------------------------------------------------------


def test_validate_bundled_case(capsys):
    code, out, err = run(capsys, "validate")
    assert code == 0
    assert "33 buses, 32 branches, 5 devices" in out
    assert "radial=true" in out
    assert "ybus_symmetric=true" in out
    assert err == ""


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--case", str(tmp_path / "gone.grid"))
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("row, bad, name", [
    ("6,7,0.1872,0.6188,400.0", "6,7,nan,0.6188,400.0", "branch 6-7"),
    ("6,7,0.1872,0.6188,400.0", "6,7,0.1872,nan,400.0", "branch 6-7"),
    ("6,7,0.1872,0.6188,400.0", "6,7,0.1872,inf,400.0", "branch 6-7"),
    ("7,load,200.0,100.0", "7,load,nan,100.0", "bus 7"),
], ids=["r_ohm-nan", "x_ohm-nan", "x_ohm-inf", "p_load_kw-nan"])
def test_non_finite_network_data_is_rejected(capsys, tmp_path, command, row, bad, name):
    text = builtin_path("bus33.grid").read_text()
    assert text.count(f"\n{row}\n") == 1
    case = tmp_path / "bad.grid"
    case.write_text(text.replace(f"\n{row}\n", f"\n{bad}\n"))
    code, out, err = run(capsys, command, "--case", str(case))
    assert code == 5
    assert name in err and "non-finite" in err


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("key", ["base_mva", "base_kv"])
def test_zero_system_base_is_rejected(capsys, tmp_path, command, key):
    text = builtin_path("bus33.grid").read_text()
    assert text.count(f"\n{key} = ") == 1
    case = tmp_path / "zero.grid"
    case.write_text(text.replace(f"\n{key} = ", f"\n{key} = 0 # "))
    code, out, err = run(capsys, command, "--case", str(case))
    assert code == 5
    assert f"system {key} must be positive and finite, got 0.0" in err
    assert out == ""


@pytest.mark.parametrize(
    "system",
    [[], {"base_mva": "10"}, {"base_mva": True}, {"radial": "false"}],
    ids=["list", "text-base", "bool-base", "text-radial"],
)
def test_malformed_json_system_is_a_parse_error(capsys, tmp_path, system):
    data = {
        "system": system,
        "buses": [{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0},
                  {"id": 2, "kind": "load", "p_load": 0.01, "q_load": 0.006}],
        "branches": [{"from": 1, "to": 2, "r": 0.0058, "x": 0.0029, "i_cap": 0.88}],
    }
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--case", str(case))
    assert code == 4
    assert "malformed case object" in err


def test_json_case_with_text_ids_is_a_parse_error(capsys, tmp_path):
    # ids given as JSON strings name no bus of the network: the case is
    # refused as it is read, before a command can look a lot's bus up
    data = {
        "system": {},
        "buses": [{"id": "1", "kind": "slack", "p_load": 0.0, "q_load": 0.0},
                  {"id": "2", "kind": "load", "p_load": 0.01, "q_load": 0.006}],
        "branches": [{"from": "1", "to": "2", "r": 0.0058, "x": 0.0029, "i_cap": 0.88}],
        "devices": [{"bus": "2", "type": "pevlot", "s_rated_kva": 600.0,
                     "profile_id": "lot-commuter", "n_pev": 60}],
    }
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, "simulate", "--mode", "dgq", "--case", str(case))
    assert code == 4
    assert "bus id must be an integer, got '1'" in err and out == ""


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--mode", "dgq"]])
@pytest.mark.parametrize("section, key, value", [
    ("devices", "s_rated_kva", "600"),
    ("devices", "x_coupling_pu", "0.05"),
    ("devices", "vc_max_pu", None),
    ("devices", "cost_per_pev", True),
    ("buses", "v_min", True),
    ("buses", "p_load", "0.01"),
    ("branches", "x", True),
    ("branches", "r", "0.0058"),
])
def test_json_case_with_non_number_fields_is_a_parse_error(capsys, tmp_path, command,
                                                           section, key, value):
    # before the reader checked them, the device fields passed validate and
    # crashed simulate with a TypeError, and true loaded as 1.0
    data = {
        "system": {},
        "buses": [{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0},
                  {"id": 2, "kind": "load", "p_load": 0.01, "q_load": 0.006}],
        "branches": [{"from": 1, "to": 2, "r": 0.0058, "x": 0.0029, "i_cap": 0.88}],
        "devices": [{"bus": 2, "type": "pevlot", "s_rated_kva": 600.0,
                     "profile_id": "lot-commuter", "n_pev": 60}],
    }
    data[section][-1][key] = value
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, *command, "--case", str(case))
    assert code == 4
    assert f"{key} must be a number, got {value!r}" in err and out == ""


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--mode", "dgq"]])
@pytest.mark.parametrize("devices, message", [
    ([(7, "pv")], "nonexistent bus 7"),
    ([(2, "pv"), (2, "pv")], "two pv devices at bus 2"),
], ids=["missing-bus", "twin-pv"])
def test_json_case_device_errors_are_validation_errors(capsys, tmp_path, command,
                                                        devices, message):
    # both readers build their Case through the same checks, so a JSON case
    # fails validation as the grid text does, before any command runs
    data = {
        "system": {},
        "buses": [{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0},
                  {"id": 2, "kind": "load", "p_load": 0.01, "q_load": 0.006}],
        "branches": [{"from": 1, "to": 2, "r": 0.0058, "x": 0.0029, "i_cap": 0.88}],
        "devices": [{"bus": bus, "type": kind, "s_rated_kva": 100.0,
                     "profile_id": "pv-south"} for bus, kind in devices],
    }
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, *command, "--case", str(case))
    assert code == 5
    assert message in err and out == ""


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--mode", "dgq"]])
@pytest.mark.parametrize("edit, code, message", [
    (lambda rows: [r for r in rows if not r.startswith("pv-south,")], 4,
     "device at bus 7: profile 'pv-south' not found"),
    (lambda rows: rows[:1], 4, "device at bus 7: profile 'pv-south' not found"),
    (lambda rows: [",".join(["pv-south"] + ["60.0"] * 24) if r.startswith("pv-south,")
                   else r for r in rows], 5,
     "device at bus 7: p_profile outside [0, s_rated] at hours "
     f"{list(range(24))}"),
], ids=["row-missing", "header-only", "pv-over-rating"])
def test_validate_refuses_the_profiles_simulate_refuses(capsys, tmp_path, command,
                                                        edit, code, message):
    rows = builtin_path("profiles33.csv").read_text().splitlines()
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("\n".join(edit(rows)) + "\n")
    assert run(capsys, *command, "--profiles", str(profiles)) == (
        code, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--mode", "dgq"]])
def test_a_json_case_is_bound_to_the_bundled_profiles(capsys, tmp_path, command):
    # without --profiles a case's devices are bound to the bundled file
    data = {
        "system": {},
        "buses": [{"id": 1, "kind": "slack", "p_load": 0.0, "q_load": 0.0},
                  {"id": 2, "kind": "load", "p_load": 0.01, "q_load": 0.006}],
        "branches": [{"from": 1, "to": 2, "r": 0.0058, "x": 0.0029, "i_cap": 0.88}],
        "devices": [{"bus": 2, "type": "pv", "s_rated_kva": 100.0,
                     "profile_id": "pv-north"}],
    }
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    assert run(capsys, *command, "--case", str(case)) == (
        4, "", "error: device at bus 2: profile 'pv-north' not found\n")


def test_validate_parse_failure(capsys, tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_text(BAD_GRID)
    code, out, err = run(capsys, "validate", "--case", str(bad))
    assert code == 4
    assert "expected number" in err


# -- solve -------------------------------------------------------------------


def test_solve_prints_bus_table(capsys):
    code, out, _ = run(capsys, "solve")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bus,v_pu,angle_deg"
    assert len([l for l in lines if not l.startswith("#")]) == 34
    assert any(l.startswith("# converged in") for l in lines)


@pytest.fixture(scope="module")
def solved33(bus33):
    net = bus33.network
    return net, solve(net, InjectionSet.from_loads(*net.load_vectors()))


def test_bus_table_shape(solved33):
    net, sol = solved33
    lines = cli._bus_table(net, sol)
    assert lines[0] == "bus,v_pu,angle_deg"
    assert len(lines) == net.n_bus + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(1.0)


def test_branch_table_parses_back(solved33):
    net, sol = solved33
    lines = cli._branch_table(net, sol)
    assert lines[0] == "branch,from,to,i_pu,p_from_pu,q_from_pu,loss_pu"
    assert len(lines) == len(net.branches) + 1
    total = sum(float(row.split(",")[6]) for row in lines[1:])
    assert total == pytest.approx(sol.total_losses, abs=1e-6)


def test_solve_sweep_cross_check(capsys):
    code, out, _ = run(capsys, "solve", "--check-sweep")
    assert code == 0
    gap_line = next(l for l in out.splitlines() if "sweep cross-check" in l)
    gap = float(gap_line.rsplit("gap", 1)[1].split()[0])
    assert gap < 1e-6


def test_solve_sweep_cross_check_sees_an_angle_error(capsys, monkeypatch):
    # a sweep whose voltages are rotated keeps every magnitude, so only the
    # phasor gap shows the error
    sweep = cli.solve_sweep

    def rotated(net, inj):
        sol = sweep(net, inj)
        return replace(sol, v_complex=sol.v_complex * np.exp(1e-4j))

    monkeypatch.setattr(cli, "solve_sweep", rotated)
    code, out, _ = run(capsys, "solve", "--check-sweep")
    assert code == 0
    gap_line = next(l for l in out.splitlines() if "sweep cross-check" in l)
    assert re.fullmatch(r"# sweep cross-check: max voltage gap \S+ pu", gap_line)
    assert float(gap_line.rsplit("gap", 1)[1].split()[0]) > 1e-6


def test_solve_writes_artifacts(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--out", str(tmp_path / "run1"))
    assert code == 0
    sol = (tmp_path / "run1" / "solution.csv").read_text()
    br = (tmp_path / "run1" / "branches.csv").read_text()
    assert sol.startswith("bus,v_pu,angle_deg\n")
    assert br.startswith("branch,from,to,i_pu,p_from_pu,q_from_pu,loss_pu\n")
    assert len(br.strip().splitlines()) == 33


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    # a lone surrogate cannot be encoded, so the write fails after the
    # temporary file was made
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(tmp_path / "out" / "solution.csv", "bus\ud800\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_solve_nonconvergent_case_exit_code(capsys, tmp_path):
    hopeless = tmp_path / "hopeless.grid"
    hopeless.write_text(
        "[SYSTEM]\nbase_mva = 10.0\nbase_kv = 12.66\n\n"
        "[BUS]\nid,kind,p_load_kw,q_load_kvar\n"
        "1,slack,0.0,0.0\n2,load,900000.0,400000.0\n\n"
        "[BRANCH]\nfrom,to,r_ohm,x_ohm,i_cap_a\n1,2,1.0,2.0,400.0\n"
    )
    code, _, err = run(capsys, "solve", "--case", str(hopeless))
    assert code == 6
    assert "diverged=" in err


# -- twobus ------------------------------------------------------------------


def test_twobus_output(capsys):
    code, out, _ = run(
        capsys, "twobus", "--v1", "1.02", "--v2", "1.00",
        "--delta2", "-2", "--r", "0.05", "--x", "0.1",
    )
    assert code == 0
    assert "p12 = 0.368865319 pu" in out
    assert "q12 = 0.025780905 pu" in out
    assert "active flow: 1->2" in out
    assert "reactive flow: 1->2" in out


def test_twobus_direction_reverse(capsys):
    code, out, _ = run(
        capsys, "twobus", "--v1", "0.98", "--v2", "1.02",
        "--delta1", "-1", "--x", "0.1",
    )
    assert code == 0
    assert "active flow: 2->1" in out
    assert "reactive flow: 2->1" in out


def test_twobus_rejects_bad_impedance(capsys):
    code, _, err = run(capsys, "twobus", "--v1", "1.0", "--v2", "1.0", "--x", "0")
    assert code == 5
    assert "impedance" in err


# -- simulate ----------------------------------------------------------------


def test_simulate_requires_mode(capsys):
    code, _, err = run(capsys, "simulate")
    assert code == 5
    assert "requires --mode" in err


@pytest.mark.parametrize("command", ["simulate", "solve"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_unusable_tolerance_is_rejected(capsys, command, tol):
    # no solve can meet the first three: every hour would diverge, or Newton
    # would run out of iterations on a converged state; an infinite one
    # would pass the flat start as the answer
    mode = ["--mode", "none"] if command == "simulate" else []
    code, out, err = run(capsys, command, *mode, "--tol", tol)
    assert code == 5
    assert "tol" in err


def test_simulate_day_without_a_converged_hour(capsys, tmp_path):
    profiles = tmp_path / "profiles.csv"
    bundled = builtin_path("profiles33.csv").read_text().rstrip("\n")
    profiles.write_text(bundled + "\noverload," + ",".join(["60.0"] * 24) + "\n")
    code, out, err = run(
        capsys, "simulate", "--mode", "none", "--profiles", str(profiles),
        "--load-profile", "overload", "--out", str(tmp_path / "run"),
    )
    assert code == 6
    assert "no hour of the day converged" in err
    assert out == ""
    assert not (tmp_path / "run").exists()


def test_simulate_mode_none_artifacts(capsys, tmp_path):
    code, out, _ = run(
        capsys, "simulate", "--mode", "none",
        "--load-profile", "load-weekday", "--out", str(tmp_path),
    )
    assert code == 0
    volt = (tmp_path / "voltages.csv").read_text().splitlines()
    disp = (tmp_path / "dispatch.csv").read_text().splitlines()
    assert volt[0] == "hour,bus,scenario,v_pu"
    assert len(volt) == 1 + 24 * 33
    assert volt[1].startswith("0,1,none,")
    assert disp[0] == "hour,device,bus,p_pu,q_pu"
    assert len(disp) == 1 + 24 * 5
    # idle mode: every reactive setpoint is exactly zero
    assert all(line.endswith(",0.000000000") for line in disp[1:])
    # evening peak sags under the band without support
    assert "mode=none" in out and "feasible=false" in out


def test_simulate_computes_its_day_once(capsys, monkeypatch):
    built = []

    class Recorded(DayEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(cli, "DayEvaluator", Recorded)
    code, out, _ = run(capsys, "simulate", "--mode", "dgq+v2gq",
                       "--load-profile", "load-weekday")
    assert code == 0
    assert [ev.stats.days for ev in built] == [1]
    # the breakdown is the one evaluate() gives
    case, profiles = load_builtin()
    sc = Scenario(mode="dgq+v2gq", load_profile_id="load-weekday")
    fresh = DayEvaluator(case.network, bind_devices(case, profiles), profiles, sc)
    assert f"scalar={fresh.evaluate().breakdown.scalar:.6f} " in out


def test_simulate_dgq_improves_and_is_reproducible(capsys, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    code_a, out_a, _ = run(
        capsys, "simulate", "--mode", "dgq",
        "--load-profile", "load-weekday", "--out", str(a_dir),
    )
    code_b, out_b, _ = run(
        capsys, "simulate", "--mode", "dgq",
        "--load-profile", "load-weekday", "--out", str(b_dir),
    )
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "feasible=true" in out_a
    # byte-identical artifacts across reruns
    for name in ("voltages.csv", "dispatch.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    # accepts the alias spelling for the combined mode
    code_alias, out_alias, _ = run(
        capsys, "simulate", "--mode", "dgq-v2gq",
        "--load-profile", "load-weekday", "--out", str(tmp_path / "c"),
    )
    assert code_alias == 0
    assert "mode=dgq+v2gq" in out_alias


# -- optimize ----------------------------------------------------------------


def test_optimize_small_run(capsys, tmp_path):
    code, out, _ = run(
        capsys, "optimize", "--mode", "none", "--lots", "1",
        "--candidates", "5,12,22", "--pop", "4", "--gens", "2",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0
    assert "best_lot_buses=" in out
    assert "evaluations=" in out
    lines = (tmp_path / "placements.csv").read_text().splitlines()
    assert lines[0] == "rank,lot_buses,v_dev,loss,cost,scalar,feasible"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("5", "12", "22")
    assert first[6] in ("true", "false")


def test_optimize_infeasible_configuration(capsys):
    code, _, err = run(
        capsys, "optimize", "--lots", "5", "--candidates", "6,7",
        "--pop", "4", "--gens", "1",
    )
    assert code == 7
    assert "cannot host" in err


def test_optimize_zero_lots(capsys):
    code, _, err = run(capsys, "optimize", "--lots", "0", "--pop", "4", "--gens", "1")
    assert code == 7
    assert "no lots to place" in err


def test_optimize_bad_candidates_flag(capsys):
    code, _, err = run(
        capsys, "optimize", "--lots", "1", "--candidates", "5,x",
        "--pop", "4", "--gens", "1",
    )
    assert code == 5
    assert "bad candidate list" in err


def test_bad_weights_flag(capsys):
    code, _, err = run(capsys, "simulate", "--mode", "none", "--weights", "1,2")
    assert code == 5
    assert "three comma-separated" in err


def test_weights_that_are_not_numbers_are_refused(capsys):
    code, out, err = run(capsys, "simulate", "--mode", "none", "--weights", "a,b,c")
    assert (code, out) == (5, "")
    assert "bad weights 'a,b,c'" in err


@pytest.mark.parametrize("command", ["simulate", "optimize"])
@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_non_finite_weights_are_rejected(capsys, command, weight):
    # a tiny search, so that a run that accepts the weights ends quickly
    search = ["--lots", "1", "--candidates", "5,12", "--pop", "4", "--gens", "1"]
    code, out, err = run(capsys, command, "--mode", "none", "--weights", f"{weight},0.1,0.3",
                         *(search if command == "optimize" else []))
    assert code == 5
    assert "weights" in err and out == ""


# -- config file -------------------------------------------------------------


def test_config_supplies_defaults_but_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = {builtin_path('twobus.grid')}\n# comment line\n")
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert code == 0
    assert "2 buses, 1 branches" in out
    # explicit flag beats the config value
    code2, out2, _ = run(
        capsys, "validate", "--config", str(cfg),
        "--case", str(builtin_path("bus33.grid")),
    )
    assert code2 == 0
    assert "33 buses" in out2


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = yes\n")
    code, _, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 4
    assert "unknown config key" in err


def test_config_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--config", str(tmp_path / "no.cfg"))
    assert code == 3


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "mode", "dgq_v2gq"),
    ("optimize", "mode", "dgq_v2gq"),
    ("optimize", "lots", "two"),
    ("simulate", "tol", "tight"),
])
def test_config_value_is_checked_as_its_flag_is(capsys, tmp_path, command, key, value):
    # a bad value exits 2 with the message the same flag gets on the command line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    errors = []
    for argv in (["--config", str(cfg)], [f"--{key}", value]):
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert f"argument --{key}: invalid" in errors[0]


# -- parser plumbing ---------------------------------------------------------


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def accepts(mode: str) -> bool:
    try:
        canonical_mode(mode)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_mode_choices_are_the_spellings_canonical_mode_accepts(capsys, command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (mode,) = [a for a in sub.choices[command]._actions if a.dest == "mode"]
    # canonical_mode strips and lower-cases; the parser takes the clean spellings
    near_misses = ["", "None", "dgq v2gq", "dgq_v2gq", "v2gq", "dgq+v2g", "dgq+v2gq+"]
    spellings = {*MODES, *_MODE_ALIASES, *mode.choices, *near_misses}
    assert sorted(mode.choices) == sorted(
        s for s in spellings if accepts(s) and s == s.strip().lower())
    assert {canonical_mode(m) for m in mode.choices} == set(MODES)
    with pytest.raises(SystemExit) as exc:
        main([command, "--mode", "dgq_v2gq"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _source_env() -> dict[str, str]:
    """The environment with the imported pevplan's source first on
    ``PYTHONPATH``, so a subprocess runs the code under test however pytest
    was started."""
    src = str(Path(pevplan.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited] if inherited else [src])}


def test_help_documents_exit_codes():
    proc = subprocess.run(
        [sys.executable, "-m", "pevplan.cli", "--help"],
        capture_output=True, text=True, env=_source_env(),
    )
    assert proc.returncode == 0
    assert "exit codes:" in proc.stdout
    assert "3  a referenced file is missing or cannot be read or written" in proc.stdout
    assert "7  requested optimization is infeasible" in proc.stdout
    rows = proc.stdout.split("exit codes:\n", 1)[1].splitlines()
    assert [int(row.split()[0]) for row in rows] == [0, 2, 3, 4, 5, 6, 7]


_STUCK = PowerFlowSolution(np.ones(2, dtype=complex), np.zeros(1, dtype=complex),
                           50, 1.0, False, diverged=True, _branches=())


@pytest.mark.parametrize("error, code, suffix", [
    (FileNotFoundError("case file not found: gone.grid"), 3, ""),
    (CaseParseError("bad.grid:3: expected number"), 4, ""),
    (ValidationError("bus 7 repeats"), 5, ""),
    (ValueError("tolerance out of range"), 5, ""),
    (NonConvergence("no convergence after 50 iterations", _STUCK), 6, " (diverged=true)"),
    (SingularJacobian(2, 1e17), 6, ""),
    (InfeasibleConfigError("3 lots but only 2 candidate buses"), 7, ""),
], ids=["FileNotFoundError", "CaseParseError", "ValidationError", "ValueError",
        "NonConvergence", "SingularJacobian", "InfeasibleConfigError"])
def test_each_error_exits_with_the_code_of_its_nearest_class(capsys, monkeypatch, error,
                                                              code, suffix):
    # a subclass takes its own row (4, 7) over its base's (ValueError's 5)
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_validate", failing)
    assert run(capsys, "validate") == (code, "", f"error: {error}{suffix}\n")


def test_an_error_without_a_code_propagates(monkeypatch):
    def failing(args):
        raise KeyError("lot")

    monkeypatch.setattr(cli, "cmd_validate", failing)
    with pytest.raises(KeyError):
        main(["validate"])


@pytest.mark.parametrize("argv, reason", [
    (["validate", "--case", "{dir}"], "Is a directory"),
    (["validate", "--profiles", "{dir}"], "Is a directory"),
    (["simulate", "--config", "{dir}"], "Is a directory"),
    (["solve", "--out", "{file}"], "File exists"),
    (["solve", "--out", "{file}/sub"], "Not a directory"),
], ids=["validate-case", "validate-profiles", "simulate-config", "solve-out", "solve-out-sub"])
def test_a_path_of_the_wrong_kind_exits_3(capsys, tmp_path, argv, reason):
    (tmp_path / "file").write_text("")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: [Errno ") and reason in err


def test_no_scipy_module_is_loaded():
    # pevplan's runtime needs numpy alone: scipy, a test-only dependency,
    # must not load on import nor in a command
    code = (
        "import json, runpy, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "import pevplan\n"
        "loaded = {'import': scipy_modules()}\n"
        "sys.argv = ['pevplan', 'validate']\n"
        "try:\n"
        "    runpy.run_module('pevplan.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    loaded['exit'] = exc.code\n"
        "loaded['validate'] = scipy_modules()\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=SCRIPT_TIMEOUT_S,
                          env=_source_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": [], "exit": 0, "validate": []}


def test_every_exported_name_resolves():
    assert [name for name in pevplan.__all__ if not hasattr(pevplan, name)] == []


def _run_version(argv, **kwargs):
    proc = subprocess.run(
        [*argv, "--version"], capture_output=True, text=True,
        timeout=SCRIPT_TIMEOUT_S, **kwargs,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pevplan ")


def test_console_script_entry_point():
    # An installed `pevplan` script, wherever one is on the PATH.
    installed = shutil.which("pevplan")
    if installed is not None:
        _run_version([installed])

    # What pip's generated wrapper runs, taken from the declared entry point,
    # so a checkout that was never installed checks it too.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pevplan"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    _run_version([sys.executable, "-c", code], env=_source_env())
