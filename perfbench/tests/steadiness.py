"""Steadiness self-test of the benchmark.

    python3 perfbench/tests/steadiness.py [--runs 10] [--sets 2]

Runs the command of ``BENCHMARK.json`` untraced ``--runs`` times on each of
its workloads, with seeds 1 to ``--runs`` and its ``run_seconds``, and does
so ``--sets`` times over the same seeds.  For each workload and end-to-end
metric it prints each set's median, quartiles and spread (the distance
between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``), and whether

* every spread stays within the metric's bound (the target is a third of
  it), and
* each later set's median is within the bound of the first set's, faster
  or slower,

and whether the share of failed operations is the same in every set.  Exits
with 1 when any of these fails.  Run it from the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)

    seeds = range(1, args.runs + 1)
    metrics = bench["end_to_end"]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(args.sets):
            results = [run_once(bench["command"], workload, seed, bench["run_seconds"])
                       for seed in seeds]
            sets.append(results)
            for seed, res in zip(seeds, results):
                values = " ".join(f"{n}={m['value']:.5g}" for n, m in res["metrics"].items())
                print(f"{workload} set {k} seed {seed}: {values} "
                      f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}",
                      flush=True)
        shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets}
        correct = all(r["correct"] for s in sets for r in s)
        if len(shares) != 1 or not correct:
            ok = False
        print(f"{workload}: failed share per set {sorted(shares)}, all correct {correct}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            summaries = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
            first = summaries[0][0]
            for k, (median, q1, q3, spread) in enumerate(summaries):
                drift = (median - first) / first
                spread_ok = spread <= bound
                drift_ok = abs(drift) <= bound
                ok = ok and spread_ok and drift_ok
                print(f"  {name:14s} set {k}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {spread:.4f} (bound {bound}, target {bound / 3:.4f}"
                      f"{'' if spread_ok else ', OVER'}) change from set 0 {drift:+.4f}"
                      f"{'' if drift_ok else ' OVER'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
