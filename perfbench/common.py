"""Shared set-up for the pevplan benchmark scripts.

Every script imports pevplan from the ``src/`` tree of the checkout that
holds this directory, never from an installed copy, so the benchmark always
measures the source next to it.  BLAS is pinned to one thread before numpy
loads: the matrices are 64 x 64 at most, and one process with one BLAS
thread keeps the load on a shared machine predictable.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import combinations
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

CASE = "bus33.grid"
PROFILES = "profiles33.csv"
LOAD_PROFILE = "load-weekday"
GOLDEN_MODES = ("dgq+v2gq", "none")


class MissingProgram(RuntimeError):
    """The checkout holds no pevplan source to measure."""


def import_pevplan():
    """Import pevplan from ``<checkout>/src``; refuse any other copy."""
    init = SRC / "pevplan" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no pevplan source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import pevplan

    if Path(pevplan.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported pevplan from {pevplan.__file__}, not from src/")
    return pevplan


def load_bundle(pevplan):
    """The bundled bus33 feeder: ``(network, bound devices, profiles)``."""
    case, profiles = pevplan.load_builtin(CASE, PROFILES)
    return case.network, pevplan.bind_devices(case, profiles), profiles


def all_pairs(net) -> list[tuple[int, int]]:
    """Every two-lot placement over the non-slack buses, ascending."""
    buses = [b for b in net.bus_ids() if b != net.slack_id]
    return list(combinations(sorted(buses), 2))


def pair_key(pair) -> str:
    return ",".join(str(b) for b in pair)


def optimum(table: dict) -> tuple[tuple[int, ...], dict]:
    """Best placement of a golden table: feasible first, then lowest scalar."""
    key = min(table, key=lambda k: (not table[k]["feasible"], table[k]["scalar"], k))
    return tuple(int(b) for b in key.split(",")), table[key]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
