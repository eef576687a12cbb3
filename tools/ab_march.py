"""Interleaved A/B timing of two stswall source trees in one process.

    python3 tools/ab_march.py BASE_SRC NEW_SRC [--pairs 10] [--seed 1] [--workloads verify,drying,fine-grid]

BASE_SRC and NEW_SRC are the ``src`` directories of two checkouts, for
example a ``git archive`` of the parent commit and this tree's ``src``.  Each
tree is imported under its own package name, so both live in one process.
Every pair runs one round of each tree on the benchmark's workload config
(``build_config`` of ``perfbench/worker.py``, used read-only), the tree that
goes first alternating from pair to pair, after one untimed warm-up round
each.  A round's march time is the summed ``cpu_s`` of the runner's reports,
the sum the benchmark's ``march_s`` takes before its host-speed scaling; its
wall time is the runner call's, which also holds the work outside the table
marches (the verify reference and its self-check, the output writing).

Separate benchmark runs see the host's speed change between them; pairs of
rounds taken back to back see nearly the same speed, so their ratios can
resolve a change of a few percent.  For each workload it prints the median
and quartiles of the new/base march-time and wall-time ratios, the pairs the
new tree won on each, whether every final state (and the verify reference,
the physical moisture totals and drying rates) is byte-equal between the
trees, and whether every file the runner wrote is: ``manifest.json`` without
``created_at`` and its cpu keys, each CSV without its cpu columns.  Exits 1
when some state or file differs.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time

# Single-threaded numpy, as in the benchmark (set before numpy loads).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
import worker  # noqa: E402  (perfbench/worker.py: build_config)
import workloads  # noqa: E402


def load_tree(src: str, alias: str):
    """Import the ``stswall`` package under ``src`` as the package ``alias``."""
    pkg = os.path.join(os.path.abspath(src), "stswall")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    if spec is None:
        raise SystemExit(f"no stswall package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cases"), importlib.import_module(f"{alias}.config")


def run_round(tree, workload: str, seed: int):
    """(march seconds, wall seconds, final arrays, output files) of one round of ``workload``."""
    cases, config = tree
    cfg = worker.build_config(workload, seed, cases, config.load_config)
    runner = cases.run_verification_case if workload == "verify" else cases.run_physical_case
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        result = runner(cfg, out)
        wall = time.perf_counter() - start
        files = {name: _output(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    arrays = {scheme: np.asarray(report.final_state) for scheme, report in result.reports.items()}
    if workload == "verify":
        arrays["reference"] = np.asarray(result.reference)
    else:
        for name in result.totals:
            arrays[f"totals.{name}"] = result.totals[name]
            arrays[f"rates.{name}"] = result.rates[name]
    march = sum(report.cpu_s for report in result.reports.values())
    return march, wall, {key: _as_bytes(value) for key, value in arrays.items()}, files


def _output(path) -> bytes:
    """The bytes of an output file without its timings: a manifest without
    ``created_at`` and its cpu keys, a CSV without its cpu columns."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("manifest.json"):
        return json.dumps(_untimed(json.loads(data)), sort_keys=True).encode()
    if not path.endswith(".csv"):
        return data
    lines = data.decode().splitlines(keepends=True)
    cpu = {k for k, name in enumerate(lines[0].rstrip("\r\n").split(",")) if "cpu" in name}
    out = []
    for line in lines:
        cells = line.rstrip("\r\n")
        out.append(",".join(c for k, c in enumerate(cells.split(",")) if k not in cpu) + line[len(cells):])
    return "".join(out).encode()


def _untimed(obj):
    if isinstance(obj, dict):
        return {k: _untimed(v) for k, v in obj.items() if k != "created_at" and "cpu" not in k}
    if isinstance(obj, list):
        return [_untimed(v) for v in obj]
    return obj


def _as_bytes(value) -> bytes:
    if isinstance(value, tuple):
        return b"|".join(np.asarray(part, dtype=float).tobytes() for part in value)
    return np.asarray(value, dtype=float).tobytes()


def _ratios(label: str, base: list, new: list) -> str:
    """Medians of both trees' times and the new/base ratio summary of ``label``."""
    ratios = [n / b for b, n in zip(base, new)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    won = sum(r < 1.0 for r in ratios)
    return (f"{label} median base {statistics.median(base):.4f} s, new {statistics.median(new):.4f} s; "
            f"new/base median {median:.3f} [quartiles {q1:.3f}, {q3:.3f}], "
            f"new faster in {won}/{len(ratios)} pairs")


def compare(trees, workload: str, pairs: int, seed: int) -> bool:
    for tree in trees:
        run_round(tree, workload, seed)       # warm-up
    marches, walls, equal, same_files = ([], []), ([], []), True, True
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        states, files = [None, None], [None, None]
        for i in order:
            march, wall, states[i], files[i] = run_round(trees[i], workload, seed)
            marches[i].append(march)
            walls[i].append(wall)
        equal = equal and states[0] == states[1]
        same_files = same_files and files[0] == files[1]
    print(f"{workload}: {_ratios('march', *marches)}; {_ratios('wall', *walls)}; "
          f"final states byte-equal: {'yes' if equal else 'NO'}; "
          f"outputs byte-equal: {'yes' if same_files else 'NO'}", flush=True)
    return equal and same_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("new_src")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs must be >= 1")
    trees = [load_tree(args.base_src, "stswall_base"), load_tree(args.new_src, "stswall_new")]
    equal = [compare(trees, name, args.pairs, args.seed) for name in names]
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main())
