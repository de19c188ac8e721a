"""Radial-feeder planning toolkit.

Power flow (Newton and sweep solvers), converter reactive-capability
modeling, per-hour reactive dispatch, and multi-objective siting of PEV
parking lots on distribution networks.
"""

__version__ = "0.1.0"

from .caseio import (
    Case,
    CaseParseError,
    DeviceSpec,
    bind_devices,
    builtin_path,
    load_builtin,
    load_case,
    load_profiles,
)
from .devices import (
    HourlyProfile,
    PevLot,
    PvUnit,
    QCapability,
    q_capability,
)
from .dispatch import DispatchResult, Scenario, dispatch_q
from .network import (
    Branch,
    Bus,
    Network,
    ValidationError,
    build_ybus,
)
from .nsga import (
    GaParams,
    InfeasibleConfigError,
    OptimizeResult,
    ParetoArchive,
    PlacementGenome,
    crowding_distance,
    nondominated_sort,
    optimize_placement,
)
from .objective import DayEvaluator, DayHours, DayResult, ObjectiveBreakdown
from .powerflow import (
    InjectionSet,
    LimitReport,
    NonConvergence,
    PowerFlowError,
    PowerFlowSolution,
    SingularJacobian,
    check_limits,
    solve,
)
from .sweep import solve_sweep
from .twobus import (
    FlowDirection,
    TwoBusState,
    classify_direction,
    transfer_power_general,
    transfer_power_reactive_line,
)

__all__ = [
    "Branch",
    "Bus",
    "Case",
    "CaseParseError",
    "DayEvaluator",
    "DayHours",
    "DayResult",
    "DeviceSpec",
    "DispatchResult",
    "FlowDirection",
    "GaParams",
    "HourlyProfile",
    "InfeasibleConfigError",
    "InjectionSet",
    "LimitReport",
    "Network",
    "NonConvergence",
    "ObjectiveBreakdown",
    "OptimizeResult",
    "ParetoArchive",
    "PevLot",
    "PlacementGenome",
    "PowerFlowError",
    "PowerFlowSolution",
    "PvUnit",
    "QCapability",
    "Scenario",
    "SingularJacobian",
    "TwoBusState",
    "ValidationError",
    "bind_devices",
    "build_ybus",
    "builtin_path",
    "check_limits",
    "classify_direction",
    "crowding_distance",
    "dispatch_q",
    "load_builtin",
    "load_case",
    "load_profiles",
    "nondominated_sort",
    "optimize_placement",
    "q_capability",
    "solve",
    "solve_sweep",
    "transfer_power_general",
    "transfer_power_reactive_line",
]
