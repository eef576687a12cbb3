"""stswall benchmark: one run of one workload.

    python3 perfbench/run.py --workload {verify,drying,fine-grid} --seed N --seconds S --trace {0,1}

Runs rounds of one workload, each in a fresh worker process, one process at
a time with single-threaded numpy, until the next round would end past
``--seconds`` of measuring (at least one round).  Each round is followed by
``SETUP_ONLY_RUNS`` set-up-only processes, so set-up time gets several samples
per round.  After the rounds, and outside the measured time, every round's
outputs are checked against an independent reference computed for the
seed's inputs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``march_s``
summed over the rounds and scaled by the host-speed probe each round times
after its runner returns, ``setup_s`` as the 90th percentile of the set-up
samples and ``peak_rss_mib`` as the median over the rounds.
``--trace 1`` pairs every untraced round with a traced one and reports the
per-layer metrics (medians over the traced rounds) plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Single-threaded numpy here and in every worker (set before numpy loads).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = os.path.join(HERE, "_runs")

# Set-up-only processes after each round; with the round's own set-up they
# give SETUP_ONLY_RUNS + 1 set-up samples per round.
SETUP_ONLY_RUNS = 3

# wall_s and march_s are scaled to a host on which one speed probe takes this
# long (about its time on the 2.1 GHz machine the benchmark was built on).
PROBE_REFERENCE_S = 0.25


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, out_dir, trace=False, setup_only=False):
    """Run one worker to completion and return its JSON line."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--out", out_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    log_path = os.path.join(out_dir, "worker.log")
    with open(log_path, "w+", encoding="utf-8") as log:
        code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode
        log.seek(0)
        text = log.read()
    lines = [ln for ln in text.splitlines() if ln.startswith("{")]
    if code != 0 or not lines:
        raise WorkerError(f"worker exited with {code}:\n{text[-3000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, run_dir):
    """Run rounds for about ``seconds``; returns the list of round records."""
    # Untimed warm-up: compiles the program's byte code once per checkout.
    run_worker(workload, seed, os.path.join(run_dir, "warmup"), setup_only=True)
    rounds = []
    spent = 0.0
    while True:
        start = time.perf_counter()
        k = len(rounds)
        out = os.path.join(run_dir, f"round{k}")
        line = run_worker(workload, seed, out)
        setup = [line["setup_s"]]
        for j in range(SETUP_ONLY_RUNS):
            setup_dir = os.path.join(run_dir, f"setup{k}-{j}")
            setup.append(run_worker(workload, seed, setup_dir, setup_only=True)["setup_s"])
        rec = {"out": out, "line": line, "setup": setup}
        if trace:
            traced_out = os.path.join(run_dir, f"traced{k}")
            rec["traced"] = run_worker(workload, seed, traced_out, trace=True)
            rec["traced_out"] = traced_out
        rounds.append(rec)
        spent += time.perf_counter() - start
        if spent + spent / len(rounds) > seconds:
            return rounds


def check_rounds(workload, seed, rounds):
    """Check every round's outputs; returns (attempted, failed, correct, report lines)."""
    try:
        ref = checks.compute_reference(workload, seed, rounds[0]["out"])
    except Exception as exc:  # every reference check of the run then fails
        ref = exc
    attempted = failed = 0
    correct = True
    lines = []
    for k, rec in enumerate(rounds):
        outs = [(rec["out"], rec["line"])]
        if "traced" in rec:
            outs.append((rec["traced_out"], rec["traced"]))
        for out, line in outs:
            marches, results = checks.check_round(workload, out, ref, line["failures"])
            attempted += len(marches) + len(results)
            failed += sum(not ok for _, ok, _ in marches + results)
            # A diverged march fails, and so do the checks of its outputs,
            # but those say nothing about the outputs that were written.
            correct = correct and all(ok or detail.startswith(checks.DIVERGED)
                                      for _, ok, detail in results)
            if k == 0 or not all(ok for _, ok, _ in marches + results):
                for name, ok, detail in marches + results:
                    lines.append(f"  {os.path.basename(out)} {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return attempted, failed, correct, lines


def sample_count(name, values, rounds) -> str:
    """How many samples a printed value rests on, and how."""
    n = len(rounds)
    if name == "setup_s":
        return f"90th percentile of {(SETUP_ONLY_RUNS + 1) * n} set-ups"
    if name in ("wall_s", "march_s"):
        return f"sum of {n} rounds x {PROBE_REFERENCE_S:g} s / their probe time"
    layer, _, stat = name.rpartition(".")
    if stat.endswith("us_per_call"):
        return f"median of {n} rounds x {values[layer + '.calls']:g} calls"
    if stat == "us_per_rhs":
        return f"median of {n} rounds x {values['operator.rhs.calls']:g} calls"
    if stat == "self_us_per_step":
        return f"median of {n} rounds x {values['integrators.steps']:g} steps"
    return f"median of {n} rounds"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stswall", "__init__.py")):
        print(f"error: no stswall sources under {ROOT}/src", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        attempted, failed, correct, lines = check_rounds(args.workload, args.seed, rounds)
        march = [checks.march_seconds(r["out"]) for r in rounds]
        if args.trace:
            shutil.copy(os.path.join(rounds[-1]["traced_out"], "trace.json"),
                        os.path.join(RUNS_DIR, f"trace-{args.workload}-{args.seed}.json"))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds, "
          f"trace {args.trace}")
    print("\n".join(lines))
    for k, r in enumerate(rounds):
        traced = f" traced wall_s {r['traced']['wall_s']:.4f}" if args.trace else ""
        print(f"  round {k}: wall_s {r['line']['wall_s']:.4f} march_s {march[k]:.4f} "
              f"probe_s {r['line']['probe_s']:.4f} "
              f"setup_s {' '.join(f'{x:.4f}' for x in r['setup'])} "
              f"peak_rss_mib {r['line']['peak_rss_mib']:.3f}{traced}")
    median = statistics.median
    if args.trace:
        untraced = median(r["line"]["wall_s"] for r in rounds)
        traced = median(r["traced"]["wall_s"] for r in rounds)
        names = [n for n in per_layer if n in rounds[0]["traced"]["layers"]]
        values = {n: median(r["traced"]["layers"][n] for r in rounds) for n in names}
        values["trace.untraced_wall_s"] = untraced
        values["trace.traced_wall_s"] = traced
        values["trace.overhead_s"] = traced - untraced
        units = per_layer
    else:
        # This host's speed swings by up to 2.7x, within a second and over
        # minutes.  Times summed over the rounds are divided by the probe
        # time summed over the same rounds, which cancels most of that; the
        # set-ups take their 90th percentile (see the README).
        setups = [s for r in rounds for s in r["setup"]]
        scale = PROBE_REFERENCE_S / sum(r["line"]["probe_s"] for r in rounds)
        values = {
            "setup_s": statistics.quantiles(setups, n=10, method="inclusive")[8],
            "wall_s": sum(r["line"]["wall_s"] for r in rounds) * scale,
            "march_s": sum(march) * scale,
            "peak_rss_mib": median(r["line"]["peak_rss_mib"] for r in rounds),
        }
        units = end_to_end
    print(f"  {'metric':44s} {'value':>14s} {'unit':5s} samples")
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]:5s} {sample_count(name, values, rounds)}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
