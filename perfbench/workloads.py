"""Workload definitions shared by run.py, its worker and its checks.

Standard library only: the worker imports this module before it starts the
set-up clock, so it must not pull in numpy or stswall.
"""
from __future__ import annotations

import configparser
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
FINE_GRID_INI = os.path.join(HERE, "fine_grid.ini")

DAY_S = 86400.0
DURATION_UNITS = {"min": 60.0, "d": DAY_S, "h": 3600.0, "s": 1.0}


def _seconds(text: str) -> float:
    """A duration of the INI (``600s``, ``1h``, ...) in seconds."""
    text = text.strip()
    for unit, scale in DURATION_UNITS.items():
        if text.endswith(unit):
            return float(text[:-len(unit)]) * scale
    return float(text)


def _fine_grid_inputs() -> dict:
    """Grid spacing, pinned base step and horizon of the fine-grid INI."""
    ini = configparser.ConfigParser()
    if not ini.read(FINE_GRID_INI, encoding="utf-8"):
        raise FileNotFoundError(FINE_GRID_INI)
    return {"dx": float(ini["grid"]["dx"]), "dt_exp": _seconds(ini["time"]["dt_exp"]),
            "tau": _seconds(ini["time"]["tau"])}


FINE_GRID = _fine_grid_inputs()

# Horizons.  Each round of a workload marches to this final time once; they
# are short enough that a run holds several rounds and long enough that the
# marching, not process start-up, dominates a round.
VERIFY_TAU = 0.05           # dimensionless
DRYING_TAU_S = 1.0 * DAY_S  # seconds
FINE_GRID_TAU_S = FINE_GRID["tau"]  # seconds; the INI's own horizon

WORKLOADS = ("verify", "drying", "fine-grid")

# Marches each round runs, as the checks count them.  verify: the four table
# schemes plus the program's Euler reference at dt/10 and its Richardson
# cross-check at dt/20.  drying: one rkl march per layout.  fine-grid: the
# three table schemes on the single layout.
MARCHES = {
    "verify": ("euler", "df", "rkc", "rkl", "reference", "richardson"),
    "drying": ("drying-ins_re", "drying-re_ins", "drying-re"),
    "fine-grid": ("df", "rkc", "rkl"),
}

# Unperturbed initial values of the presets.
VERIFY_U0 = 1.0
VERIFY_V0 = 1.0
PHYSICAL_T0 = 291.3
PHYSICAL_V0 = {"re": 0.53, "ins": 0.053}


def perturbation(workload: str, seed: int) -> dict:
    """Initial values for ``seed``: a small, spatially uniform offset.

    Seed 0 gives the presets' own values.  Other seeds shift each initial
    field by at most 5% (verify) or 1 K and 3% of the moisture content
    (physical workloads), which stays well inside the admissible boxes and
    leaves every pinned step size, and hence every step count, unchanged.
    """
    rng = random.Random(f"{workload}:{seed}")
    a, b, c = (0.0, 0.0, 0.0) if seed == 0 else (rng.uniform(-1, 1) for _ in range(3))
    if workload == "verify":
        return {"u0": VERIFY_U0 + 0.05 * a, "v0": VERIFY_V0 + 0.05 * b}
    return {
        "t0": PHYSICAL_T0 + 1.0 * a,
        "v0": {"re": PHYSICAL_V0["re"] * (1.0 + 0.03 * b),
               "ins": PHYSICAL_V0["ins"] * (1.0 + 0.03 * c)},
    }
