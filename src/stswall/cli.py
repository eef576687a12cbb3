"""Command-line entry point.

Subcommands: ``verify``, ``physical``, ``sweep``; each runs its built-in
preset, or the case file given with ``--config``.  ``--scheme``, ``--dx``,
``--dt`` and ``--tau`` set their case-file keys, read as for the case's
kind (durations with units only for physical cases).  Exit codes: 0 on full
success (and after ``--help``), 2 when a scheme (partial results written) or
the reference (nothing written) diverged, 1 on usage and configuration errors.
"""
from __future__ import annotations

import argparse
import logging
import sys

from .cases import (
    physical_preset, run_ns_sweep, run_physical_case, run_verification_case, verification_preset,
)
from .config import load_config, parse_int_list, set_key
from .errors import ConfigError, DivergenceError, StswallError


def _add_common(parser: argparse.ArgumentParser, default_out: str) -> None:
    parser.add_argument("--config", help="INI case file overriding the preset")
    parser.add_argument("--out", default=default_out, help="output directory")
    parser.add_argument("--scheme", help="comma list of schemes (euler,df,rkc,rkl)")
    parser.add_argument("--ns", help="super-step counts as rkc,rkl (e.g. 10,20); "
                        "for sweep, the counts to sweep")
    parser.add_argument("--dx", help="grid spacing override")
    parser.add_argument("--dt", help="Euler time step override (physical: s/min/h/d suffixes)")
    parser.add_argument("--tau", help="final time override (physical: s/min/h/d suffixes)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stswall",
        description="Coupled heat-and-moisture wall simulator with super-time-stepping",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("verify", help="dimensionless verification comparison"), "out_verify")
    _add_common(sub.add_parser("physical", help="rammed-earth drying study"), "out_physical")
    _add_common(sub.add_parser("sweep", help="super-step count sweep"), "out_sweep")
    return parser


def _apply_overrides(cfg, args) -> None:
    """Set the options over ``cfg`` as the case-file keys they stand for."""
    for value, section, key in ((args.scheme, "schemes", "run"), (args.dx, "grid", "dx"),
                                (args.dt, "time", "dt_euler"), (args.tau, "time", "tau")):
        if value is not None:
            set_key(cfg, section, key, value)
    if args.ns is not None:
        vals = parse_int_list(args.ns)
        if args.command == "sweep":
            cfg.sweep_ns = vals
        elif not 1 <= len(vals) <= 2:
            raise ConfigError(f"--ns takes one or two counts (rkc,rkl), got {args.ns.strip()!r}; "
                              "lists of counts are for sweep")
        else:
            cfg.ns = {"rkc": vals[0], "rkl": vals[-1]}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        preset = physical_preset if args.command == "physical" else verification_preset
        cfg = load_config(args.config) if args.config else preset()
        _apply_overrides(cfg, args)
        if args.command == "verify":
            result = run_verification_case(cfg, args.out)
            _print_records(result.records)
        elif args.command == "physical":
            result = run_physical_case(cfg, args.out)
            _print_records(result.records)
            for scheme, info in result.policy_counts.items():
                print(f"policy @365d {scheme}: dt={info['dt_s']:g} s, N_t={info['n_t']}")
        else:
            result = run_ns_sweep(cfg, out_dir=args.out)
            for scheme in cfg.sweep_schemes:
                slope = result.slopes.get(scheme)
                if slope is None:
                    print(f"{scheme}: no error slope vs N_S (fewer than two ok rows with positive errors)")
                else:
                    print(f"{scheme}: error slope vs N_S  solution={slope['solution']:.3f}  "
                          f"u={slope['u']:.3f}  v={slope['v']:.3f}")
    except StswallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DivergenceError) else 1
    if result.failures:
        for name, msg in result.failures.items():
            print(f"FAILED {name}: {msg}", file=sys.stderr)
        return 2
    return 0


def _print_records(records) -> None:
    for rec in records:
        parts = [f"{rec.scheme:>6}", f"dt={rec.dt:.4g}", f"N_t={rec.n_t}",
                 f"rho_Ndt={rec.rho_ndt_pct:.3g}%"]
        if rec.epsinf_u is not None:
            parts.append(f"epsinf(u)={rec.epsinf_u:.3g} epsinf(v)={rec.epsinf_v:.3g}")
            parts.append(f"scd(u)={rec.scd_u:.2f} scd(v)={rec.scd_v:.2f}")
        parts.append(f"cpu={rec.cpu_s:.3g}s rho_cpu={rec.rho_cpu_pct:.3g}%")
        if rec.status != "ok":
            parts.append(f"[{rec.status}]")
        print("  ".join(parts))


if __name__ == "__main__":
    sys.exit(main())
