"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Imports stswall from the checkout's ``src`` directory, builds the case
config (timed together as ``setup_s``), runs the case runner (``wall_s``) and
then, outside the timed region, times the host-speed probe and saves the
final states the checks need to ``DIR/states.npz``.  Prints one JSON line.
With ``--trace`` the layers are wrapped by :mod:`tracing` first and the line
carries the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (standard library only)


def build_config(workload, seed, cases, load_config):
    """Case config of ``workload`` with the seed's initial values."""
    init = workloads.perturbation(workload, seed)
    if workload == "verify":
        cfg = cases.verification_preset()
        cfg.tau = cfg.tau_days = workloads.VERIFY_TAU
        cfg.initial_u = init["u0"]
        cfg.initial_v = init["v0"]
        return cfg
    if workload == "drying":
        # Same as `stswall physical --scheme rkl --tau 1d`.
        cfg = cases.physical_preset()
        cfg.schemes = ["rkl"]
        cfg.tau = workloads.DRYING_TAU_S
        cfg.tau_days = cfg.tau / workloads.DAY_S
    else:
        cfg = load_config(workloads.FINE_GRID_INI)
    # run_physical_case takes each layout's initial fields from these module
    # constants, not from the config.
    cases.PHYSICAL_INITIAL_T = init["t0"]
    cases.PHYSICAL_INITIAL_V = dict(init["v0"])
    return cfg


def speed_probe() -> float:
    """Seconds this host takes for a fixed piece of work, now.

    Three kernels, one for each kind of work the workloads do: an
    interpreter-bound loop over 128-element arrays (the verify and drying
    RHS), vector operations on 2002 elements (the fine-grid RHS) and dense
    2002 x 2002 matrix builds (the Du Fort-Frankel frozen matrix).  It uses
    numpy only, so no change to stswall moves it.
    """
    import numpy as np
    acc = 0.0
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 128)
    for i in range(15000):
        acc += float(np.minimum(x * 1.0001 + 0.5, 2.0)[i & 127]) + (i % 7) * 0.5
    x = np.linspace(0.0, 1.0, 2002)
    for i in range(15000):
        acc += float(np.minimum(x * 1.0001 + 0.5, 2.0)[i & 1023])
    idx = np.arange(2001)
    for i in range(12):
        m = np.zeros((2002, 2002))
        m[idx, idx + 1] = 1.0
        m[idx + 1, idx] = 2.0
        m += 1e-3
        acc += float(m[i, i])
    return time.perf_counter() - t0


def peak_rss() -> float:
    """Peak resident set size of this process image, in MiB.

    Read from ``VmHWM``: unlike ``ru_maxrss``, it does not carry over the
    parent's resident size from before ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import stswall
    if os.path.dirname(os.path.dirname(os.path.abspath(stswall.__file__))) != src:
        print(f"stswall imported from {stswall.__file__}, not from {src}", file=sys.stderr)
        return 3
    from stswall import cases, config

    tracer = None
    load_config = config.load_config
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
        load_config = tracer.wrap("config.load_config", load_config)
    cfg = build_config(args.workload, args.seed, cases, load_config)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = cases.run_verification_case if args.workload == "verify" else cases.run_physical_case
    if tracer is not None:
        runner = tracer.wrap("cases.run", runner)
    t1 = time.perf_counter()
    result = runner(cfg, args.out)
    wall_s = time.perf_counter() - t1
    peak_rss_mib = peak_rss()  # before the probe's 32 MB matrices
    probe_s = speed_probe()

    import numpy as np
    states = {}
    for scheme, report in result.reports.items():
        states[f"{scheme}_u"] = report.final_state.u
        states[f"{scheme}_v"] = report.final_state.v
    if args.workload == "verify":
        states["reference_u"] = result.reference.u
        states["reference_v"] = result.reference.v
    np.savez(os.path.join(args.out, "states.npz"), **states)

    line = {"setup_s": setup_s, "wall_s": wall_s, "probe_s": probe_s, "peak_rss_mib": peak_rss_mib,
            "failures": dict(result.failures)}
    if tracer is not None:
        line["layers"] = tracer.layer_metrics(result.reports.values())
        tracer.dump(os.path.join(args.out, "trace.json"))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
