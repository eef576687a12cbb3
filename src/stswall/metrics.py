"""Error norms, accuracy digits, scheme-comparison ratios, and the
moisture post-processing quantities (total content and drying rate).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .integrators import RunReport
from .model import Grid1D

SCD_CAP = 16.0

COMPARISON_COLUMNS = (
    "scheme", "dt", "N_t", "rho_Ndt_pct",
    "eps2_u", "eps2_v", "epsinf_u", "epsinf_v",
    "scd_u", "scd_v", "cpu_s", "rho_cpu_pct", "rho_cpu_day_s",
)


def error_norms(num, ref, dx: float):
    """(eps2, epsinf) between nodal fields on spacing ``dx``, reduced over
    the last axis.

    eps2 carries the quadrature weight sqrt(dx * sum d^2) so values are
    comparable across resolutions; epsinf is the raw maximum difference.
    Two 1D fields give floats; stacked fields such as ``(u, v)`` against a
    ``(2, n)`` state give one value per row.
    """
    a = np.asarray(num, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"field shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    eps2 = np.sqrt(dx * np.add.reduce(d * d, axis=-1))
    epsinf = np.abs(d).max(axis=-1, initial=0.0)
    if d.ndim == 1:
        return float(eps2), float(epsinf)
    return eps2, epsinf


def scd_value(epsinf: float, ref_norm: float) -> float:
    """Significant correct digits: -log10 of the relative uniform error
    ``epsinf / ref_norm``.

    Capped at 16 for exact agreement; raises on a zero reference norm.
    """
    if ref_norm == 0.0:
        raise ConfigError("scd needs a reference with non-zero uniform norm")
    err = epsinf / ref_norm
    if err == 0.0:
        return SCD_CAP
    return min(SCD_CAP, -math.log10(err))


@dataclass
class ComparisonRecord:
    """One row of the scheme-comparison table."""

    scheme: str
    dt: float
    n_t: int
    rho_ndt_pct: float
    eps2_u: Optional[float] = None
    eps2_v: Optional[float] = None
    epsinf_u: Optional[float] = None
    epsinf_v: Optional[float] = None
    scd_u: Optional[float] = None
    scd_v: Optional[float] = None
    cpu_s: float = 0.0
    rho_cpu_pct: float = 0.0
    rho_cpu_day_s: float = 0.0
    status: str = "ok"

    def row(self) -> list:
        def fmt(x):
            return "" if x is None else repr(float(x))
        return [
            self.scheme, repr(float(self.dt)), str(self.n_t), repr(float(self.rho_ndt_pct)),
            fmt(self.eps2_u), fmt(self.eps2_v), fmt(self.epsinf_u), fmt(self.epsinf_v),
            fmt(self.scd_u), fmt(self.scd_v),
            repr(float(self.cpu_s)), repr(float(self.rho_cpu_pct)), repr(float(self.rho_cpu_day_s)),
        ]


def ratios(report: RunReport, euler_report: RunReport, tau_days: float) -> ComparisonRecord:
    """Comparison record of a run against the Euler baseline.

    Step and CPU ratios come from executed step counts and marching-loop
    timings; the error columns are left for the caller to fill.
    """
    if euler_report.n_steps <= 0 and report.n_steps > 0:
        raise ConfigError("Euler baseline has no steps")
    if abs(report.tau - euler_report.tau) > 1e-9 * max(1.0, euler_report.tau):
        raise ConfigError("runs cover different final times")
    rho_ndt = (100.0 * report.n_steps / euler_report.n_steps
               if euler_report.n_steps > 0 else 100.0)
    return ComparisonRecord(
        scheme=report.scheme,
        dt=report.dt,
        n_t=report.n_t,
        rho_ndt_pct=rho_ndt,
        cpu_s=report.cpu_s,
        rho_cpu_pct=(100.0 * report.cpu_s / euler_report.cpu_s
                     if euler_report.cpu_s > 0 else 0.0),
        rho_cpu_day_s=report.cpu_s / tau_days if tau_days > 0 else 0.0,
    )


def failure_record(scheme: str, dt: float, n_t: int, euler_report: Optional[RunReport]) -> ComparisonRecord:
    """Row of a diverged scheme; its step ratio counts its ``n_t`` regular nodes."""
    rho = 0.0
    if euler_report is not None and euler_report.n_steps > 0:
        rho = 100.0 * n_t / euler_report.n_steps
    return ComparisonRecord(scheme=scheme, dt=dt, n_t=n_t, rho_ndt_pct=rho, status="failed")


def write_comparison_csv(records, path) -> None:
    """Comparison table with the fixed column order (failed rows keep
    their metric cells empty)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_COLUMNS)
        for rec in records:
            row = rec.row()
            if rec.status != "ok":
                row = row[:4] + [""] * 9
            writer.writerow(row)


def total_moisture(v, grid: Grid1D, material_domain) -> float:
    """Trapezoidal integral of the moisture field ``v`` over a node range.

    ``material_domain`` is an inclusive (first_node, last_node) pair.
    """
    v = np.asarray(v, dtype=float)
    a, b = material_domain
    if not (0 <= a < b < grid.node_count):
        raise ConfigError(f"empty or out-of-range material domain {material_domain}")
    seg = v[a:b + 1]
    return float(grid.spacing * (np.sum(seg) - 0.5 * (seg[0] + seg[-1])))


def drying_rate(times, totals):
    """Time derivative of a sampled total-moisture series.

    Centered differences at interior samples, one-sided at the ends.
    Returns an array aligned with ``times``.
    """
    t = np.asarray(times, dtype=float)
    q = np.asarray(totals, dtype=float)
    if t.ndim != 1 or t.size < 2 or t.shape != q.shape:
        raise ConfigError("drying_rate needs two aligned 1D series with >= 2 samples")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ConfigError("sample times must be strictly increasing (no duplicates)")
    return np.gradient(q, t)
