"""Golden outputs: reruns reproduce the recorded CSV numbers and manifests.

Each case runs through its public runner and is reduced to a snapshot: every
CSV it writes, parsed to numbers, plus ``manifest.json`` and, for the
verification case, the dumped frozen matrix ``operator_matrix.txt``.  Timing-derived
data are left out (the ``cpu`` columns and fields, and ``created_at``).
Floats are compared at 1e-12 relative; integers (``n_steps``,
``rhs_evals``, ``schedule_rebuilds``, ``box_violations``, ``N_t``) and
strings exactly.

The recorded snapshots live in ``tests/golden/``.  To re-record them after a
change that is meant to move the numbers::

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
import tempfile

import pytest

from stswall.cases import (
    physical_preset, run_ns_sweep, run_physical_case, run_verification_case,
    verification_preset,
)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL = 1e-12
SKIPPED_FILES = {"synthetic_climate.csv"}   # an input, regenerated by the run


def _verify_case(out_dir):
    """Verification preset, all four schemes, shortened to tau = 0.005, with
    the frozen matrix dumped."""
    cfg = verification_preset()
    cfg.tau = 0.005
    cfg.dump_matrix = True
    run_verification_case(cfg, out_dir)


def _physical_case(out_dir):
    """Six hours of the drying study: rkl drying on all three layouts, and
    df/rkc/rkl on the nonlinear two-layer ins_re wall.  dt_df = 70 s stays
    inside the admissible box and leaves a 40 s landing remainder."""
    cfg = physical_preset()
    cfg.tau = 6 * 3600.0
    cfg.schemes = ["df", "rkc", "rkl"]
    cfg.dt_df = 70.0
    run_physical_case(cfg, out_dir)


def _sweep_case(out_dir):
    """Super-step count sweep on the verification preset at tau = 0.005:
    rkc and rkl at n_s = 4 and 8."""
    cfg = verification_preset()
    cfg.tau = 0.005
    cfg.sweep_ns = [4, 8]
    run_ns_sweep(cfg, out_dir=out_dir)


def _euler_case(out_dir):
    """Six hours of forward Euler on the ins_re wall, as its drying run."""
    cfg = physical_preset()
    cfg.tau = 6 * 3600.0
    cfg.schemes = ["euler"]
    cfg.physical_configurations = ["ins_re"]
    cfg.drying_scheme = "euler"
    run_physical_case(cfg, out_dir)


CASES = {"verify": _verify_case, "physical": _physical_case,
         "sweep": _sweep_case, "euler_ins_re": _euler_case}


def _scrub(obj):
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items() if k != "created_at" and "cpu" not in k}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if "cpu" not in name]
    return [[rows[0][i] for i in keep]] + [[_cell(row[i]) for i in keep] for row in rows[1:]]


def snapshot(name):
    """Outputs of case ``name`` with the timing data removed."""
    with tempfile.TemporaryDirectory() as out_dir:
        CASES[name](out_dir)
        snap = {}
        for fname in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, fname)
            if fname == "manifest.json":
                with open(path, encoding="utf-8") as fh:
                    snap[fname] = _scrub(json.load(fh))
            elif fname.endswith(".csv") and fname not in SKIPPED_FILES:
                snap[fname] = _read_csv(path)
            elif fname == "operator_matrix.txt":
                with open(path, encoding="utf-8") as fh:
                    snap[fname] = [[_cell(tok) for tok in line.split()] for line in fh]
    return snap


def _compare(got, want, where):
    assert type(got) is type(want) or {type(got), type(want)} <= {int, float}, (
        f"{where}: {got!r} != {want!r}")
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name):
    with open(_golden_path(name), encoding="utf-8") as fh:
        want = json.load(fh)
    _compare(snapshot(name), want, name)


def test_golden_runs_stay_in_box():
    with open(_golden_path("physical"), encoding="utf-8") as fh:
        runs = json.load(fh)["manifest.json"]["runs"]
    assert runs["df"]["flags"]["box_violations"] == 0
    assert runs["df"]["flags"]["remainder_substeps"] > 0
    assert all(run["flags"]["box_violations"] == 0 for run in runs.values())


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in (sys.argv[1:] or sorted(CASES)):
        with open(_golden_path(case), "w", encoding="utf-8") as fh:
            json.dump(snapshot(case), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {_golden_path(case)}")
