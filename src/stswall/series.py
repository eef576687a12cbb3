"""Boundary time series: CSV ingestion, linear interpolation, and the
synthetic annual climate shipped for the drying study.

The climate file is *synthetic* (the measured data behind the original
drying study are not public): temperature is a sinusoidal annual cycle
plus a diurnal ripple between 271 K and 301 K, and the surface moisture
content follows an annual cycle between 0.25 and 0.53 derived from a
relative-humidity-like seasonal swing.  The generator is deterministic.
"""
from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import IngestionError

DAY_S = 86400.0
YEAR_S = 365.0 * DAY_S

SYNTHETIC_COLUMNS = ("t_s", "T_out", "theta_out", "T_in", "theta_in")


@dataclass(frozen=True)
class BoundarySeries:
    """Strictly increasing sample times plus named value columns."""

    time: np.ndarray
    columns: dict

    @property
    def span(self) -> tuple:
        return float(self.time[0]), float(self.time[-1])

    def require_span(self, t0: float, t1: float) -> None:
        lo, hi = self.span
        if lo > t0 + 1e-9 or hi < t1 - 1e-9:
            raise IngestionError(
                f"series spans [{lo:g}, {hi:g}] but the run needs [{t0:g}, {t1:g}]"
            )

    def interpolator(self, name: str):
        """Linear interpolant of one column as a callable of time.

        It gives ``np.interp(at, time, column)`` bit for bit (the end values
        outside the span) in Python floats: the bracket of the last call is
        tried first, then a bisection.
        """
        if name not in self.columns:
            raise IngestionError(f"series has no column {name!r}; has {sorted(self.columns)}")
        t = self.time.tolist()
        y = self.columns[name].tolist()
        slope = (np.diff(self.columns[name]) / np.diff(self.time)).tolist()
        first, last = t[0], t[-1]
        j = 0               # the last bracket: t[j] <= at < t[j + 1]

        def fn(at: float) -> float:
            nonlocal j
            if not t[j] <= at < t[j + 1]:
                if at < first:
                    return y[0]
                if at >= last:
                    return y[-1]
                j = bisect.bisect_right(t, at) - 1
            if at == t[j]:
                return y[j]
            return slope[j] * (at - t[j]) + y[j]

        return fn


def ingest_boundary_series(path) -> BoundarySeries:
    """Read and validate a headered CSV time series.

    The first column is time; remaining columns are named quantities.
    Lines starting with '#' are comments.  Raises
    :class:`~stswall.errors.IngestionError` naming the path for a missing or
    unreadable file, and with a 1-based line number for non-numeric or
    non-finite cells, ragged rows, or non-monotone time.
    """
    rows = []
    header = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeError, csv.Error) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise IngestionError(f"cannot read series file {str(path)!r}: {reason}") from None
    for lineno, raw in enumerate(lines, start=1):
        if not raw or (raw[0].lstrip().startswith("#")):
            continue
        if header is None:
            header = [c.strip() for c in raw]
            if len(header) < 2:
                raise IngestionError(f"{path}: line {lineno}: need a time column plus data columns")
            continue
        if len(raw) != len(header):
            raise IngestionError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(raw)}"
            )
        try:
            rows.append((lineno, [float(c) for c in raw]))
        except ValueError as exc:
            raise IngestionError(f"{path}: line {lineno}: non-numeric cell ({exc})") from None
    if header is None:
        raise IngestionError(f"{path}: no header row found")
    if len(rows) < 2:
        raise IngestionError(f"{path}: need at least two data rows, got {len(rows)}")
    data = np.array([vals for _, vals in rows])
    for i, k in np.argwhere(~np.isfinite(data))[:1]:         # the first NaN or inf cell
        raise IngestionError(f"{path}: line {rows[i][0]}: non-finite {header[k]} {data[i, k]:g}")
    t = data[:, 0]
    for i in np.flatnonzero(t[1:] <= t[:-1])[:1] + 1:    # the first non-increasing time
        raise IngestionError(
            f"{path}: line {rows[i][0]}: time {t[i]:g} not greater than previous {t[i-1]:g}"
        )
    columns = {name: data[:, k].copy() for k, name in enumerate(header[1:], start=1)}
    return BoundarySeries(time=t.copy(), columns=columns)


def synthetic_climate_values(t_s):
    """Synthetic boundary values at time(s) t_s seconds after installation.

    Returns (T_out, theta_out, T_in, theta_in).  Installation is set at
    midsummer: the exterior starts warm and dry and turns cold and wet in
    winter; the interior is near-constant and moderately humid.  The
    exterior surface is the dominant drying route (its moisture level sits
    well below the interior one through the first season), which is what
    makes an exterior insulation layer the drying bottleneck.
    """
    t = np.asarray(t_s, dtype=float)
    # Midsummer installation: the exterior is warmest and driest at t = 0
    # and coldest and wettest in midwinter.
    annual = np.cos(2.0 * np.pi * t / YEAR_S)
    diurnal = np.cos(2.0 * np.pi * t / DAY_S)
    t_out = 286.0 + 12.0 * annual + 3.0 * diurnal
    theta_out = 0.35 - 0.10 * annual
    t_in = 293.0 + 2.0 * annual
    # Indoor humidity of the unoccupied new build: holds near the wall's own
    # construction level through the warm season, then falls to its
    # ventilated autumn level around day 80 (the quartic shoulder keeps the
    # drop smooth but late).
    theta_in = 0.31 + 0.22 * np.exp(-((t / (80.0 * DAY_S)) ** 4))
    return t_out, theta_out, t_in, theta_in


def write_synthetic_climate(path, days: float = 366.0, step_hours: float = 1.0) -> None:
    """Write the synthetic climate CSV covering [0, days]."""
    n = int(math.floor(days * 24.0 / step_hours)) + 1
    t = np.arange(n) * step_hours * 3600.0
    # The bytes csv.writer would give: comma-separated, CRLF line ends.
    rows = zip(*(col.tolist() for col in (t, *synthetic_climate_values(t))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# synthetic annual climate (not measured data); hourly samples\n")
        fh.write(",".join(SYNTHETIC_COLUMNS) + "\r\n")
        fh.write("".join(map("%.1f,%.6f,%.8f,%.6f,%.8f\r\n".__mod__, rows)))
