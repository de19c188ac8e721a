"""Command-line interface.

Subcommands: ``solve`` (single power flow), ``twobus`` (closed-form transfer
check), ``simulate`` (24-hour scenario run), ``optimize`` (parking-lot
placement search), ``validate`` (loads and binds the inputs as ``simulate``
and ``optimize`` do, then checks the network).  All angles entered on the
command line are degrees; all file contents are per-unit or engineering
units as documented in the case-format description.

Each exit code is stated once, in ``_EXITS``, with its meaning, which the
``--help`` epilog lists, and the error classes ``main`` maps to it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .caseio import (
    Case,
    CaseParseError,
    _content_lines,
    _key_value,
    bind_devices,
    builtin_path,
    load_case,
    load_profiles,
)
from .devices import Device, HourlyProfile, p_injection
from .dispatch import _MODE_ALIASES, MODES, Scenario
from .network import Network, ValidationError, build_ybus
from .nsga import GaParams, InfeasibleConfigError, optimize_placement
from .objective import DayEvaluator
from .powerflow import (
    DEFAULT_TOL,
    InjectionSet,
    NonConvergence,
    PowerFlowError,
    PowerFlowSolution,
    check_limits,
    solve,
)
from .twobus import TwoBusState, classify_direction, transfer_power_general
from .sweep import solve_sweep

EXIT_OK = 0

# (code, meaning, error classes); 2 is argparse's own usage exit
_EXITS = (
    (EXIT_OK, "success", ()),
    (2, "command-line usage error", ()),
    (3, "a referenced file is missing or cannot be read or written", (OSError,)),
    (4, "case or profile file failed to parse", (CaseParseError,)),
    (5, "case data failed validation", (ValueError,)),
    (6, "power flow failed to converge", (PowerFlowError,)),
    (7, "requested optimization is infeasible (e.g. more lots than candidate buses)",
     (InfeasibleConfigError,)),
)
_EXIT_OF = {cls: code for code, _, classes in _EXITS for cls in classes}


def _atomic_write(path: Path, text: str) -> None:
    """Write via temp file + rename so readers never see partial output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _save(args: argparse.Namespace, files: dict[str, list[str]]) -> None:
    """Write each CSV, given as its lines by file name, into ``--out`` if set."""
    if args.out:
        for name, lines in files.items():
            _atomic_write(Path(args.out) / name, "\n".join(lines) + "\n")


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    return dict(_key_value(line, where) for line, where in _content_lines(p.read_text(), str(p)))


# the flags a config file may set, by destination
_CONFIG_KEYS = frozenset({
    "case", "profiles", "mode", "weights", "lots", "candidates", "pop", "gens",
    "seed", "tol", "out", "load_profile",
})


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    config = _read_config(getattr(args, "config", None))
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in _CONFIG_KEYS:
            raise CaseParseError(f"unknown config key {key!r}")
        if hasattr(args, dest) and getattr(args, dest) is None:
            # parsed as its flag is: the flag's type and choices, and on a
            # bad value the command line's message and exit code 2
            flag = "--" + dest.replace("_", "-")
            parsed = parser.parse_args([args.command, f"{flag}={value}"])
            setattr(args, dest, getattr(parsed, dest))


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValidationError("weights must be three comma-separated numbers")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"bad weights {text!r}") from None
    return (a, b, c)


def _parse_candidates(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValidationError(f"bad candidate list {text!r}") from None


def _resolve_case_paths(args: argparse.Namespace) -> tuple[Path, Path]:
    case = Path(args.case) if args.case else builtin_path("bus33.grid")
    profiles = Path(args.profiles) if args.profiles else builtin_path("profiles33.csv")
    return case, profiles


def _load_inputs(args: argparse.Namespace
                 ) -> tuple[Path, Case, dict[str, HourlyProfile], list[Device]]:
    """The case file's path, the case, the profiles and the case's devices
    bound to them: what ``simulate``, ``optimize`` and ``validate`` read."""
    case_path, profile_path = _resolve_case_paths(args)
    case = load_case(case_path)
    profiles = load_profiles(profile_path)
    return case_path, case, profiles, bind_devices(case, profiles)


def _scenario(args: argparse.Namespace, default_mode: str = "none") -> Scenario:
    return Scenario(
        mode=args.mode or default_mode,
        weights=_parse_weights(args.weights) if args.weights else Scenario.weights,
        load_profile_id=args.load_profile,
        pf_tol=args.tol if args.tol is not None else DEFAULT_TOL,
    )


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _bus_table(net: Network, sol: PowerFlowSolution) -> list[str]:
    """CSV lines of per-bus results: ``bus,v_pu,angle_deg``."""
    return ["bus,v_pu,angle_deg"] + [
        f"{bus.id},{sol.v_mag[pos]:.9f},{math.degrees(sol.v_ang[pos]):.6f}"
        for pos, bus in enumerate(net.buses)
    ]


def _branch_table(net: Network, sol: PowerFlowSolution) -> list[str]:
    """CSV lines of per-branch results.

    Columns: ``branch,from,to,i_pu,p_from_pu,q_from_pu,loss_pu``.
    """
    lines = ["branch,from,to,i_pu,p_from_pu,q_from_pu,loss_pu"]
    for k, br in enumerate(net.branches):
        i = abs(sol.branch_current[k])
        flow = sol.branch_flow_from[k]
        loss = (i**2) * br.resistance
        lines.append(
            f"{k + 1},{br.from_bus},{br.to_bus},"
            f"{i:.9f},{flow.real:.9f},{flow.imag:.9f},{loss:.9f}"
        )
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    case_path, _ = _resolve_case_paths(args)
    case = load_case(case_path)
    net = case.network
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    p_load, q_load = net.load_vectors()
    inj = InjectionSet.from_loads(p_load, q_load)
    sol = solve(net, inj, tol=tol)
    bus_lines = _bus_table(net, sol)
    print("\n".join(bus_lines))
    report = check_limits(net, sol)
    print(
        f"# converged in {sol.iterations} iterations, mismatch {sol.max_mismatch:.3e}, "
        f"loss {sol.total_losses:.6f} pu, min V {sol.v_min:.6f}, "
        f"violations {len(report.voltage_violations) + len(report.thermal_violations)}"
    )
    if args.check_sweep:
        ref = solve_sweep(net, inj)
        gap = float(np.max(np.abs(ref.v_complex - sol.v_complex)))
        print(f"# sweep cross-check: max voltage gap {gap:.3e} pu")
    _save(args, {"solution.csv": bus_lines, "branches.csv": _branch_table(net, sol)})
    return EXIT_OK


def cmd_twobus(args: argparse.Namespace) -> int:
    state = TwoBusState.from_impedance(
        v1=args.v1,
        v2=args.v2,
        delta1=math.radians(args.delta1),
        delta2=math.radians(args.delta2),
        r=args.r,
        x=args.x,
    )
    p12, q12 = transfer_power_general(state)
    p_dir, q_dir = classify_direction(state)
    print(f"p12 = {_fmt(p12)} pu")
    print(f"q12 = {_fmt(q12)} pu")
    print(f"active flow: {p_dir.value}  (angle rule)")
    print(f"reactive flow: {q_dir.value}  (magnitude rule)")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    _, case, profiles, devices = _load_inputs(args)
    scenario = _scenario(args)
    if args.mode is None:
        raise ValidationError("simulate requires --mode")
    evaluator = DayEvaluator(case.network, devices, profiles, scenario)
    day = evaluator.hours()
    live = np.flatnonzero(day.live).tolist()
    if not live:
        raise PowerFlowError("no hour of the day converged")

    volt_lines = ["hour,bus,scenario,v_pu"]
    disp_lines = ["hour,device,bus,p_pu,q_pu"]
    min_v, max_v = math.inf, -math.inf
    for hour in live:
        v_mag = np.abs(day.v[hour])
        min_v, max_v = min(min_v, float(v_mag.min())), max(max_v, float(v_mag.max()))
        for pos, bus in enumerate(case.network.buses):
            volt_lines.append(f"{hour},{bus.id},{scenario.mode},{_fmt(v_mag[pos])}")
        for dev, q in zip(evaluator.devices, day.q[:, hour].tolist()):
            # load-style sign: lot charging positive, PV generation negative
            p = -p_injection(dev)[hour]
            disp_lines.append(f"{hour},{dev.label},{dev.bus},{_fmt(p)},{_fmt(q)}")

    _save(args, {"voltages.csv": volt_lines, "dispatch.csv": disp_lines})
    bd = day.breakdown
    print(
        f"mode={scenario.mode} min_v={min_v:.6f} max_v={max_v:.6f} "
        f"v_dev={bd.v_dev:.6f} loss={bd.loss:.6f} scalar={bd.scalar:.6f} "
        f"feasible={str(bd.feasible).lower()}"
    )
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    _, case, profiles, devices = _load_inputs(args)
    scenario = _scenario(args, default_mode="dgq+v2gq")
    params = GaParams(
        population=args.pop if args.pop is not None else GaParams.population,
        generations=args.gens if args.gens is not None else GaParams.generations,
        seed=args.seed if args.seed is not None else GaParams.seed,
        n_lots=args.lots,
        candidates=_parse_candidates(args.candidates) if args.candidates else None,
    )
    result = optimize_placement(case.network, devices, profiles, scenario, params)

    lines = ["rank,lot_buses,v_dev,loss,cost,scalar,feasible"]
    for rank, entry in enumerate(result.archive.entries):
        buses = "+".join(str(b) for b in entry.genome.lot_buses)
        lines.append(
            f"{rank},{buses},{_fmt(entry.v_dev)},{_fmt(entry.loss)},"
            f"{_fmt(entry.cost)},{_fmt(entry.scalar)},{str(entry.feasible).lower()}"
        )
    _save(args, {"placements.csv": lines})

    best = result.best_genome.lot_buses
    bd = result.best_breakdown
    print(
        f"best_lot_buses={'+'.join(str(b) for b in best)} "
        f"scalar={bd.scalar:.6f} v_dev={bd.v_dev:.6f} loss={bd.loss:.6f} "
        f"cost={bd.cost:.6f} feasible={str(bd.feasible).lower()} "
        f"evaluations={result.evaluations}"
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    case_path, case, _, _ = _load_inputs(args)
    net = case.network
    y = build_ybus(net)
    row_residual = float(np.max(np.abs(y.sum(axis=1))))
    print(
        f"{case_path.name}: {net.n_bus} buses, {len(net.branches)} branches, "
        f"{len(case.devices)} devices; radial={str(net.radial).lower()}, "
        f"ybus_symmetric={str(np.array_equal(y, y.T)).lower()}, "
        f"row_sum_residual={row_residual:.3e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *, profiles: bool = True) -> None:
    p.add_argument("--case", help="case file (default: bundled 33-bus feeder)")
    if profiles:
        p.add_argument("--profiles", help="profile CSV (default: bundled profiles)")
    p.add_argument("--tol", type=float, help="power-flow mismatch tolerance (default 1e-8)")
    p.add_argument("--out", help="output directory for CSV artifacts")
    p.add_argument("--config", help="key=value config file; command-line flags win")


def _add_scenario(p: argparse.ArgumentParser, mode_help: str) -> None:
    p.add_argument("--mode", choices=[*MODES, *_MODE_ALIASES], help=mode_help)
    p.add_argument("--weights", help="objective weights a,b,c (default 0.6,0.1,0.3)")
    p.add_argument("--load-profile", dest="load_profile",
                   help="profile id scaling normal loads per hour")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pevplan",
        description="Radial-feeder planning toolkit: power flow, converter "
        "reactive dispatch, and parking-lot placement search.",
        epilog="exit codes:\n" + "".join(f"  {code}  {meaning}\n" for code, meaning, _ in _EXITS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single snapshot power flow at normal load")
    _add_common(p, profiles=False)
    p.add_argument("--profiles", help=argparse.SUPPRESS)
    p.add_argument("--check-sweep", action="store_true",
                   help="cross-check voltages against the sweep solver")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("twobus", help="closed-form two-bus transfer and flow direction")
    p.add_argument("--v1", type=float, required=True, help="sending voltage, pu")
    p.add_argument("--v2", type=float, required=True, help="receiving voltage, pu")
    p.add_argument("--delta1", type=float, default=0.0, help="sending angle, degrees")
    p.add_argument("--delta2", type=float, default=0.0, help="receiving angle, degrees")
    p.add_argument("--r", type=float, default=0.0, help="series resistance, pu")
    p.add_argument("--x", type=float, required=True, help="series reactance, pu")
    p.set_defaults(func=cmd_twobus)

    p = sub.add_parser("simulate", help="24-hour run of one scenario mode")
    _add_common(p)
    _add_scenario(p, "reactive-support participation")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="search parking-lot buses with the GA")
    _add_common(p)
    _add_scenario(p, "scenario during evaluation (default dgq+v2gq)")
    p.add_argument("--lots", type=int,
                   help="number of lots to place (default: lot rows in the case; "
                   "the fleet is truncated or extended by cloning to match)")
    p.add_argument("--candidates", help="comma-separated candidate bus ids")
    p.add_argument("--pop", type=int, help="population size (default 40)")
    p.add_argument("--gens", type=int, help="generations (default 60)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", help="load and bind the inputs as simulate does; check the network")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        return args.func(args)
    except Exception as exc:
        # the nearest class in the MRO, so a subclass's row wins over its base's
        code = next((_EXIT_OF[cls] for cls in type(exc).__mro__ if cls in _EXIT_OF), None)
        if code is None:
            raise
        diverged = (f" (diverged={str(exc.solution.diverged).lower()})"
                    if isinstance(exc, NonConvergence) else "")
        print(f"error: {exc}{diverged}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
