"""Output checks of one benchmark round, run outside the timed region.

Every check reads what a round wrote (``comparison.csv``, ``manifest.json``,
the profile and drying CSVs, and the final states the worker saved) and
compares it with the independent reference of :mod:`reference` or with a
property the schemes must have.  Nothing is compared with a stored copy of
an earlier run's output.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import os

import numpy as np

import reference
import workloads

# Bounds on the max-norm final-state error against the independent reference,
# per scheme as (u, v).  Each is about five times the largest error measured
# over seeds 0-12 at the benchmark's horizons, and far above the reference's
# own solver tolerance.  The verify "oracle" row bounds the program's Euler
# reference at dt/10, whose first-order error is a tenth of the Euler row's.
FINAL_STATE_BOUNDS = {
    "verify": {"euler": (2e-5, 2e-5), "df": (1e-2, 3e-3), "rkc": (2e-2, 8e-2),
               "rkl": (3e-3, 3e-3), "oracle": (2e-6, 2e-6)},
    "drying": {"rkl": (3e-2, 7e-5)},
    "fine-grid": {"df": (0.25, 6e-2), "rkc": (0.1, 1.5e-4), "rkl": (4e-2, 2.5e-4)},
}
# Bound on the rammed-earth moisture content at the final time (m of water
# column), per drying layout.
THETA_TOT_BOUND = 5e-5

# Pinned schedule base step of each workload.
DT_EXP = {"verify": 1.0 / 28000.0, "drying": 3.4e-2 * 60.0,
          "fine-grid": workloads.FINE_GRID["dt_exp"]}
GRID_DX = {"drying": 5e-3, "fine-grid": workloads.FINE_GRID["dx"]}
# Schemes of each workload's comparison table, and the drying layouts.
TABLE_SCHEMES = {"verify": ("euler", "df", "rkc", "rkl"), "drying": ("rkl",),
                 "fine-grid": ("df", "rkc", "rkl")}
DRYING_LAYOUTS = ("ins_re", "re_ins", "re")
HORIZON = {"verify": workloads.VERIFY_TAU, "drying": workloads.DRYING_TAU_S,
           "fine-grid": workloads.FINE_GRID_TAU_S}


def read_comparison(out_dir) -> dict:
    with open(os.path.join(out_dir, "comparison.csv"), newline="", encoding="utf-8") as fh:
        return {row["scheme"]: row for row in csv.DictReader(fh)}


def march_seconds(out_dir) -> float:
    """Sum of the ``cpu_s`` column of the round's comparison table."""
    return sum(float(row["cpu_s"]) for row in read_comparison(out_dir).values() if row["cpu_s"])


def read_climate(path):
    """(time, T_out, theta_out, T_in, theta_in) columns of a climate CSV."""
    return tuple(np.loadtxt(path, delimiter=",", skiprows=2, unpack=True))


def compute_reference(workload, seed, out_dir) -> dict:
    """Independent final states for the seed's inputs.

    The physical workloads take their boundary data from the climate file
    the program wrote in ``out_dir``.
    """
    init = workloads.perturbation(workload, seed)
    tau = HORIZON[workload]
    if workload == "verify":
        return {"verify": reference.verify_reference(init["u0"], init["v0"], tau)}
    climate = read_climate(os.path.join(out_dir, "synthetic_climate.csv"))
    layouts = DRYING_LAYOUTS if workload == "drying" else ("ins_re",)
    return {name: reference.physical_reference(name, init["t0"], init["v0"], tau,
                                               GRID_DX[workload], climate)
            for name in layouts}


def _final_state_check(states, key, ref_u, ref_v, bound):
    err_u = float(np.max(np.abs(states[f"{key}_u"] - ref_u)))
    err_v = float(np.max(np.abs(states[f"{key}_v"] - ref_v)))
    ok = err_u <= bound[0] and err_v <= bound[1]
    return ok, f"max|du|={err_u:.3g} (<= {bound[0]:g}), max|dv|={err_v:.3g} (<= {bound[1]:g})"


def _step_check(workload, run, scheme, tau):
    """Step-count properties of one run of the manifest."""
    dt, n_steps = run["dt"], run["n_steps"]
    ratio = tau / dt
    want_steps = round(ratio) if abs(ratio - round(ratio)) < 1e-9 * ratio else math.ceil(ratio)
    problems = []
    if n_steps != want_steps:
        problems.append(f"n_steps={n_steps}, want ceil(tau/dt)={want_steps}")
    if scheme in ("rkc", "rkl"):
        n_s, dt_exp = run["n_s"], run["dt_exp"]
        gain = n_s * n_s if scheme == "rkc" else (n_s * n_s + n_s) / 2
        if abs(dt_exp - DT_EXP[workload]) > 1e-12 * DT_EXP[workload]:
            problems.append(f"dt_exp={dt_exp!r}, want {DT_EXP[workload]!r}")
        if abs(dt - gain * dt_exp) > 1e-12 * dt:
            problems.append(f"dt_super={dt!r}, want {gain:g} * dt_exp")
        if run["rhs_evals"] != n_s * n_steps:
            problems.append(f"rhs_evals={run['rhs_evals']}, want N_S * n_steps = {n_s * n_steps}")
    return not problems, "; ".join(problems) or f"n_steps={n_steps}, rhs_evals={run['rhs_evals']}"


def _theta_tot_final(out_dir, layout) -> float:
    series = np.loadtxt(os.path.join(out_dir, f"theta_tot_{layout}.csv"),
                        delimiter=",", skiprows=1, ndmin=2)
    return float(series[-1, 1])


class Diverged(Exception):
    """A check whose input is the output of a march that diverged."""


DIVERGED = "diverged: "


def check_round(workload, out_dir, ref, failures) -> tuple:
    """(marches, checks) of one round, each a list of (name, ok, detail).

    ``ref`` is what :func:`compute_reference` returned, or the exception it
    raised.  The names do not depend on what the round wrote: a march that
    diverged or an output that is missing fails its checks instead of
    dropping them, so every round attempts the same operations.  The detail
    of a check that failed only because its march diverged starts with
    ``DIVERGED``.
    """
    @functools.cache
    def manifest():
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            return json.load(fh)

    @functools.cache
    def states():
        with np.load(os.path.join(out_dir, "states.npz")) as data:
            return dict(data)

    def reference_of(key):
        if isinstance(ref, Exception):
            raise RuntimeError(f"no reference: {type(ref).__name__}: {ref}")
        return ref[key]

    def run(name, check):
        try:
            ok, detail = check()
        except Diverged as exc:
            ok, detail = False, f"{DIVERGED}{exc}"
        except Exception as exc:  # a missing or malformed output fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return name, ok, detail

    def march(name):
        def check():
            if name in failures:
                return False, failures[name]
            if name.startswith("drying-"):
                layout = name[len("drying-"):]
                return os.path.exists(os.path.join(out_dir, f"theta_tot_{layout}.csv")), ""
            if name in ("reference", "richardson"):
                gap = manifest()["reference"]["richardson_gap"] if name == "richardson" else 0.0
                return "reference_u" in states() and gap is not None and math.isfinite(gap), ""
            return bool(read_comparison(out_dir)[name]["cpu_s"]), ""
        return run(f"march.{name}", check)

    def diverged(*names):
        for name in names:
            if name in failures:
                raise Diverged(f"{name}: {failures[name]}")

    def steps(scheme):
        diverged(scheme)
        return _step_check(workload, manifest()["runs"][scheme], scheme, HORIZON[workload])

    def box():
        violations = {s: r["flags"].get("box_violations", 0) for s, r in manifest()["runs"].items()}
        return all(v == 0 for v in violations.values()), f"box_violations={violations}"

    def final_state(scheme, key, ref_key):
        diverged(scheme)
        _, ref_u, ref_v = reference_of(ref_key)
        return _final_state_check(states(), key, ref_u, ref_v, FINAL_STATE_BOUNDS[workload][scheme])

    schemes = TABLE_SCHEMES[workload]
    marches = [march(name) for name in workloads.MARCHES[workload]]
    checks = [run(f"steps.{scheme}", lambda s=scheme: steps(s)) for scheme in schemes]
    checks.append(run("box", box))
    ref_key = "verify" if workload == "verify" else "ins_re"
    checks += [run(f"ref.{scheme}", lambda s=scheme: final_state(s, s, ref_key)) for scheme in schemes]
    if workload == "verify":
        checks.append(run("ref.oracle", lambda: final_state("oracle", "reference", ref_key)))
    if workload == "drying":
        def theta_tot(layout):
            diverged(f"drying-{layout}")
            x, _, v = reference_of(layout)
            final = _theta_tot_final(out_dir, layout)
            want = reference.re_moisture(layout, x, v)
            err = abs(final - want)
            return err <= THETA_TOT_BOUND, (f"theta_tot={final:.6g}, reference {want:.6g}, "
                                            f"|diff|={err:.3g} (<= {THETA_TOT_BOUND:g})")

        def order():
            diverged("drying-ins_re", "drying-re")
            ins_re, re = _theta_tot_final(out_dir, "ins_re"), _theta_tot_final(out_dir, "re")
            return ins_re > re, f"ins_re {ins_re:.4f} > re {re:.4f}"

        checks += [run(f"ref.theta_tot.{layout}", lambda name=layout: theta_tot(name))
                   for layout in DRYING_LAYOUTS]
        checks.append(run("order.theta_tot", order))
    return marches, checks
