"""Built-in case presets and the config-driven runners.

Three entry points mirror the two studies plus a parameter sweep; each
runs its preset or a case file of its kind (``verification`` for the
first and the last, ``physical`` for the second):

* :func:`run_verification_case` -- the schemes on a dimensionless case
  (the preset: a constant-coefficient two-layer wall under periodic Robin
  forcing) against a reference solution on the same grid.
* :func:`run_physical_case` -- dimensional rammed-earth drying over a year
  for three layer configurations under Dirichlet climate data.
* :func:`run_ns_sweep` -- super-step count sweep on the verification setup.

Both presets pin the Euler step (and the schedule base step) to the
published values rather than deriving them from the operator's stability
estimate: the published step is what reproduces the reported step counts.
Dimensional runs reuse the dimensionless machinery with unit
diffusion-rate groups, a unit moisture/temperature cross factor, and the
latent heat as the heat-equation cross factor.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .config import PHYSICAL_LAYOUTS, CaseConfig, parse_time_function
from .errors import ConfigError, DivergenceError, StswallError
from .integrators import (_ExactStep, _march, _Monitor, build_schedule, dufort_frankel_run, euler_run,
                          node_count, rk4_run, sts_run)
from .metrics import (
    ComparisonRecord, drying_rate, error_norms, failure_record, ratios,
    scd_value, write_comparison_csv,
)
from .model import (BiotSet, BoundaryForcing, DimensionlessGroups, Grid1D, SideForcing, StateField,
                    WallAssembly, builtin_material)
from .operator import SemiDiscreteOperator
from .series import DAY_S, YEAR_S, BoundarySeries, ingest_boundary_series, write_synthetic_climate

logger = logging.getLogger(__name__)

# Verification preset constants (step sizes exactly reproduce the reported
# temporal node counts; the Euler step is the reported CFL-limited value).
VERIFICATION_DT_EULER = 1.0 / 28000.0
VERIFICATION_DT_DF = 1.0e-3

# Physical preset policy: pinned Euler step of 3.4e-2 minutes; super steps
# are the schedule gains applied to the same base.
PHYSICAL_DT_EULER_S = 3.4e-2 * 60.0

MAX_NODES = 10_001     # ten times fine-grid's 1001; the oracle's ~1000 (2, n) samples take 160 MB


def verification_preset() -> CaseConfig:
    """Dimensionless two-material verification case, all four schemes."""
    cfg = CaseConfig(
        kind="verification",
        title="two-layer dimensionless verification",
        dx=1e-2,
        tau=1.0,
        schemes=["euler", "df", "rkc", "rkl"],
        ns={"rkc": 10, "rkl": 20},
        damping_rkc=0.0,
        dt_euler=VERIFICATION_DT_EULER,
        dt_df=VERIFICATION_DT_DF,
        dt_exp_base=VERIFICATION_DT_EULER,
        groups=DimensionlessGroups(
            fo_m=9e-2, fo_t=7e-2, gamma=7e-2, delta=5e-2, alpha=0.0,
            biot_left=BiotSet(m_theta=25.5, t_t=50.5, t_theta=4.96e-1, t_g=0.0),
            biot_right=BiotSet(m_theta=51.8, t_t=19.8, t_theta=6.73e-1, t_g=0.0),
        ),
        materials={"mat1": builtin_material("table1_mat1"),
                   "mat2": builtin_material("table1_mat2")},
        layers=[("mat1", 0.6), ("mat2", 0.4)],
        initial_u=1.0,
        initial_v=1.0,
        forcing_left=SideForcing.robin(
            parse_time_function("1 + (3/5)*sin(2*pi*t/5)**2"),
            parse_time_function("1 + (1/5)*sin(2*pi*t/2)**2"),
        ),
        forcing_right=SideForcing.robin(
            parse_time_function("1 + (1/2)*sin(2*pi*t/3)**2"),
            parse_time_function("1 + (9/10)*sin(2*pi*t/6)**2"),
        ),
        admissible_box=(0.5, 2.5, 0.0, 2.0),
    )
    cfg.description = {"preset": "verification", "title": cfg.title}
    return cfg


def physical_preset() -> CaseConfig:
    """Dimensional rammed-earth drying case with Dirichlet climate data, over a year."""
    cfg = CaseConfig(
        kind="physical",
        title="rammed-earth wall drying, three insulation layouts",
        dx=5e-3,
        tau=YEAR_S,
        schemes=["euler", "rkc", "rkl"],
        ns={"rkc": 10, "rkl": 20},
        damping_rkc=0.0,
        dt_euler=PHYSICAL_DT_EULER_S,
        dt_df=None,
        dt_exp_base=PHYSICAL_DT_EULER_S,
        groups=None,  # built per run: unit groups, delta = latent heat
        materials={"re": builtin_material("table3_re"),
                   "ins": builtin_material("table3_ins")},
        layers=[("re", 0.5)],
        admissible_box=(240.0, 320.0, 0.0, 0.6),
    )
    cfg.description = {"preset": "physical", "title": cfg.title}
    return cfg


PHYSICAL_INITIAL_V = {"re": 0.53, "ins": 0.053}
PHYSICAL_INITIAL_T = 291.3


def _tau_days(cfg: CaseConfig) -> float:
    """The final time in days of a physical case; a dimensionless case's own ``tau``."""
    return cfg.tau / DAY_S if cfg.kind == "physical" else cfg.tau


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------

@dataclass
class _Domain:
    """What a case's marches share: config, wall, grid, forcing, groups, initial state."""

    cfg: CaseConfig
    wall: WallAssembly
    grid: Grid1D
    forcing: BoundaryForcing
    groups: DimensionlessGroups
    state0: np.ndarray      # (2, n) initial state: row 0 u, row 1 v
    spans: list             # each layer's inclusive (first, last) node, WallAssembly.node_spans
    seams: tuple = ()       # walls side by side: the operator's seams (see _composite_drying)

    def operator(self) -> SemiDiscreteOperator:
        """A fresh operator (marches must not share one)."""
        return SemiDiscreteOperator(self.wall, self.grid, self.groups, self.forcing,
                                    admissible_box=self.cfg.admissible_box, seams=self.seams)


def _build_domain(cfg: CaseConfig, forcing, groups) -> _Domain:
    """The domain of the config's layers under ``forcing``."""
    wall = WallAssembly([(cfg.materials[name], th) for name, th in cfg.layers])
    length = wall.total_length
    n_float = length / cfg.dx
    if n_float > MAX_NODES - 0.5:       # checked before round(inf) or a huge linspace
        raise ConfigError(f"dx={cfg.dx} on the wall length {length} makes {n_float + 1:.4g} nodes, "
                          f"more than {MAX_NODES}")
    n_steps = round(n_float)
    if abs(n_steps - n_float) > 1e-9 * max(1.0, n_float):
        raise ConfigError(f"dx={cfg.dx} does not divide the wall length {length}")
    grid = Grid1D(length, n_steps + 1)
    spans = wall.node_spans(grid)
    u0 = _initial_field("u", cfg.initial_u, spans)
    v0 = _initial_field("v", cfg.initial_v, spans)
    state0 = np.array([u0, v0])
    # the march's divergence limits, checked before any coefficient is evaluated at the state
    _Monitor(cfg.admissible_box, None, None, 1).check(0, 0.0, state0)
    # the RHS divides by the storage: each layer's c_t must be positive at every node it touches
    for (model, _), (a, b) in zip(wall.layers, spans):
        c = 0.0
        for ck in model.poly[2][::-1]:      # c_t, by Horner's rule
            c = c * v0[a:b + 1] + ck
        if not np.all(c > 0):
            raise ConfigError(f"material {model.name!r}: c_t must be positive at the initial state, "
                              f"got {np.min(c)}")
    return _Domain(cfg, wall, grid, forcing, groups, state0, spans)


def _dimensionless_domain(cfg: CaseConfig) -> _Domain:
    """The validated domain of a verify or sweep run: the config's
    dimensionless groups and its forcing on both sides."""
    cfg.validate()
    if cfg.groups is None:
        raise ConfigError(f"{cfg.kind} config has no [groups] section; "
                          "dimensionless runs need dimensionless groups")
    if cfg.forcing_left is None or cfg.forcing_right is None:
        raise ConfigError("dimensionless runs need [forcing.left] and [forcing.right]")
    return _build_domain(cfg, BoundaryForcing(cfg.forcing_left, cfg.forcing_right), cfg.groups)


def _initial_field(name, value, spans) -> np.ndarray:
    """Initial field ``name``: a scalar everywhere, or one finite value per
    layer filled right to left, so that an interface node keeps the left
    layer's value."""
    vals = [float(value)] * len(spans) if np.ndim(value) == 0 else [float(x) for x in value]
    if len(vals) != len(spans):
        raise ConfigError(f"per-layer initial values need {len(spans)} entries, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"initial field {name} must be finite, got {value}")
    out = np.empty(spans[-1][1] + 1)
    for val, (a, b) in zip(vals[::-1], spans[::-1]):
        out[a:b + 1] = val
    return out


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------

def emit_outputs(out_dir, manifest: dict, records=None, tables=None) -> list:
    """Write the manifest, the comparison table of ``records`` and one CSV per
    entry of ``tables`` (name -> (header, rows)); returns the file list.
    Every CSV uses '.' decimals; table rows end in LF, and comparison.csv
    (csv.writer) rows in CRLF.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)

    if records is not None:
        path = os.path.join(out_dir, "comparison.csv")
        write_comparison_csv(records, path)
        written.append(path)

    for name, (header, rows) in (tables or {}).items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(map(str, row)) + "\n")
        written.append(path)
    return written


def _manifest_stub(cfg: CaseConfig, extra: Optional[dict] = None) -> dict:
    manifest = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "case": dict(cfg.description),
        "parameters": {
            "dx": cfg.dx, "tau": cfg.tau, "tau_days": _tau_days(cfg),
            "schemes": list(cfg.schemes), "ns": dict(cfg.ns),
            "damping_rkc": cfg.damping_rkc,
            "dt_euler": cfg.dt_euler, "dt_df": cfg.dt_df,
            "dt_exp_base": cfg.dt_exp_base,
            "initial_u": cfg.initial_u, "initial_v": cfg.initial_v,
            "admissible_box": cfg.admissible_box,
        },
    }
    if cfg.kind != "physical":      # a physical run marches the layouts of "configurations"
        manifest["parameters"]["layers"] = [[name, th] for name, th in cfg.layers]
    if cfg.groups is not None:
        manifest["groups"] = asdict(cfg.groups)
    if extra:
        manifest.update(extra)
    return manifest


# ---------------------------------------------------------------------------
# scheme dispatch
# ---------------------------------------------------------------------------

def _scheme_step(scheme, cfg, n_s=None):
    """(regular outer step, schedule) of ``scheme``: ``dt_euler`` or ``dt_df``
    with no schedule, or the super step of its schedule on the base step
    ``dt_exp_base``, else ``dt_euler`` (``n_s`` overrides the config's count)."""
    if scheme == "euler":
        return cfg.dt_euler, None
    if scheme == "df":
        if cfg.dt_df is None:
            raise ConfigError("scheme 'df' needs dt_df in the configuration")
        return cfg.dt_df, None
    if scheme not in ("rkc", "rkl"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    base = cfg.dt_exp_base if cfg.dt_exp_base is not None else cfg.dt_euler
    schedule = build_schedule(scheme, cfg.ns[scheme] if n_s is None else n_s, base,
                              cfg.damping_rkc if scheme == "rkc" else None)
    return schedule.dt_super, schedule


def _schedules(schemes, cfg) -> dict:
    """The description of each rkc or rkl schedule among ``schemes`` on ``cfg``."""
    return {s: _scheme_step(s, cfg)[1].describe() for s in schemes if s in ("rkc", "rkl")}


def _run_one_scheme(scheme, dom, observe=None, observe_every=None, n_s=None):
    """Run one scheme to ``dom.cfg.tau`` on a fresh operator and return its
    report; ``observe_every`` defaults to about _REFERENCE_SAMPLES samples."""
    cfg, op, state0 = dom.cfg, dom.operator(), dom.state0
    dt, schedule = _scheme_step(scheme, cfg, n_s)
    if observe_every is None:
        observe_every = _sample_stride(dt, cfg.tau)
    if scheme == "euler":
        return euler_run(op, state0, dt, cfg.tau, observe=observe, observe_every=observe_every)
    if scheme == "df":
        return dufort_frankel_run(op, state0, dt, cfg.tau, observe=observe, observe_every=observe_every)
    return sts_run(op, state0, schedule, cfg.tau, observe=observe, observe_every=observe_every)


def _compare(dom, runs, trackers=None, reports=None):
    """(records, reports, failures, baseline) of a scheme-comparison table.

    ``runs`` lists (name, scheme, n_s) entries.  Each that ``reports`` does
    not already hold runs, observed by its tracker when ``trackers`` is
    given; one that diverges is recorded as failed.  The records come in run
    order, with ratios against the run named "euler", else the first that ran.
    """
    cfg, done = dom.cfg, reports or {}
    reports, failures = {}, {}
    for name, scheme, n_s in runs:
        if name in done:
            reports[name] = done[name]
            continue
        try:
            reports[name] = _run_one_scheme(scheme, dom, observe=trackers[name] if trackers else None,
                                            n_s=n_s)
        except DivergenceError as exc:
            failures[name] = str(exc)
            logger.warning("scheme %s diverged: %s", name, exc)
    baseline = reports.get("euler") or next(iter(reports.values()), None)
    records = []
    for name, scheme, n_s in runs:
        if name in failures:
            dt = _scheme_step(scheme, cfg, n_s)[0]
            records.append(failure_record(scheme, dt, node_count(dt, cfg.tau), baseline))
            continue
        records.append(ratios(reports[name], baseline, _tau_days(cfg)))
        if trackers:
            trackers[name].fill(records[-1])
    return records, reports, failures, baseline


# ---------------------------------------------------------------------------
# trajectory-wide error measurement
# ---------------------------------------------------------------------------

class _ReferenceTrajectory:
    """Reference states sampled on a uniform time grid, linearly
    interpolable in time."""

    def __init__(self, times, states):
        self.times, self.y = np.array(times, dtype=float), states

    def states_at(self, times) -> np.ndarray:
        """The (m, 2, n) reference states at ``times``.

        Between two samples a state is the linear interpolant; at a sample
        time, or outside the sampled span, it is the stored state (weights
        1 and 0 on one sample, which reproduce it exactly).
        """
        ts, t = self.times, np.asarray(times, dtype=float)
        hi = np.minimum(np.searchsorted(ts, t), len(ts) - 1)
        lo = np.maximum(hi - 1, 0)
        between = (ts[lo] < t) & (t < ts[hi])
        w = np.divide(t - ts[lo], ts[hi] - ts[lo], out=np.zeros_like(t), where=between)[:, None, None]
        return (1.0 - w) * self.y[np.where(between, lo, hi)] + w * self.y[hi]


class _ErrorTracker:
    """Running uniform-in-time error of a run against a reference trajectory.

    Called as an observer at outer nodes; keeps the sup over time of the
    spatial norms, which is the published "global uniform" convention (a
    final-state comparison alone understates schemes whose transient error
    decays).  Samples are stored and reduced ``BLOCK`` at a time: when the
    block is full, at the reference's final time (the march's last sample,
    so its reductions fall inside its ``cpu_s``) and in :meth:`fill`.
    """

    BLOCK = 64

    def __init__(self, reference: _ReferenceTrajectory, dx: float):
        self.reference = reference
        self.dx = dx
        self.block = np.empty((self.BLOCK,) + reference.y.shape[1:])
        self.times = []         # of the pending samples, block[:len(times)]
        # a march's last sample lands on the reference's end within this slack
        self.t_final = reference.times[-1] * (1.0 - 1e-9)
        # rows eps2, epsinf, reference norm; columns u, v
        self.sup = np.zeros((3, 2))

    def __call__(self, t, y):
        i = len(self.times)
        self.block[i] = y
        self.times.append(t)
        if i + 1 == self.BLOCK or t >= self.t_final:
            self.flush()

    def flush(self) -> None:
        """Fold the pending samples into ``sup``: one norm pass over their stack."""
        if not self.times:
            return
        ref = self.reference.states_at(self.times)
        eps2, epsinf = error_norms(self.block[:len(self.times)], ref, self.dx)
        np.maximum(self.sup, np.max((eps2, epsinf, np.abs(ref).max(axis=-1)), axis=1),
                   out=self.sup)
        self.times.clear()

    def fill(self, record: ComparisonRecord) -> None:
        self.flush()
        eps2, epsinf, ref_norm = self.sup.tolist()
        record.eps2_u, record.eps2_v = eps2
        record.epsinf_u, record.epsinf_v = epsinf
        record.scd_u, record.scd_v = map(scd_value, epsinf, ref_norm)


# Time resolution of the stored reference trajectory and of the per-run
# comparison sampling, as a fraction of the final time.
_REFERENCE_SAMPLES = 1000


def _sample_stride(dt: float, tau: float) -> int:
    """Outer-step stride that samples roughly _REFERENCE_SAMPLES times."""
    if tau <= 0 or dt <= 0:
        return 1
    return max(1, round(tau / _REFERENCE_SAMPLES / dt))


# Largest 2n of the exact reference: past it the RK4 reference is cheaper (at
# 700 steps on a 2-core host with single-threaded numpy the exact one took
# 0.55x RK4's time at 2n = 262, 0.76-0.80x at 302 and 1.01-1.10x at 322; its
# dense step costs O(n^2) against RK4's O(n) RHS).
EXPM_MAX_SIZE = 302


def _oracle(dom, check=False):
    """(reference, report, check) of the reference, its states sampled into one
    array every ``_sample_stride(h, tau)`` steps h and at tau.  h divides tau
    into whole steps, an even count of them for :class:`_ExactStep`, no longer
    than h0: twice the Euler step while ``h0 * lambda_max`` stays within 2.5
    (RK4 is stable to 2.785), else the Euler step (h = h0 at tau = 0).  A
    linear wall with two Robin sides, no source terms and 2n at most
    EXPM_MAX_SIZE takes :class:`_ExactStep` ("expm"), exact in time but for the
    forcing's quadrature; any other, RK4 steps.  With ``check``,
    ``{"richardson_gap": gap, "richardson_dt": H}`` (else None) estimates the
    final-state error by step doubling, ``gap = max|y_H - y_h| / |r^4 - 1|``
    for a companion at H = r h: the exact reference's own pairs (r = 2), or an
    RK4 run over the whole horizon at the coarsest step of the 2.5 rule,
    ``tau / ceil(tau lambda / 2.5)``, or at h/2 when that is below 1.25 h.  On
    the verification preset the gap reads about 0.9x the exact reference's
    true error and 1.67x the RK4 one's (h/2: 1.02x)."""
    cfg, op, state0 = dom.cfg, dom.operator(), dom.state0
    if cfg.dt_euler is None:
        raise ConfigError("the reference needs an explicit dt_euler")
    lam = op.gershgorin_lambda_max(state0[1])
    h = 2.0 * cfg.dt_euler if 2.0 * cfg.dt_euler * lam <= 2.5 else cfg.dt_euler
    exact = (op.is_linear and op.source_u is op.source_v is None and 2 * op.n <= EXPM_MAX_SIZE
             and dom.forcing.left.kind == dom.forcing.right.kind == "robin")
    pair = 2 if exact else 1        # the exact reference's companion takes its steps in pairs
    steps = pair * math.ceil(cfg.tau / (pair * h) * (1.0 - 1e-12))
    h = cfg.tau / steps if steps else h
    stride = _sample_stride(h, cfg.tau)
    states, times = np.empty((steps // stride + 2, 2, op.n)), []

    def record(t, y):
        states[len(times)] = y
        times.append(t)

    if exact:
        stepper = _ExactStep(op, h, state0, steps)
        report = _march(op, state0, stepper, cfg.tau, record, stride)
    else:
        report = rk4_run(op, state0, h, cfg.tau, observe=record, observe_every=stride)
    reference = _ReferenceTrajectory(times, states[:len(times)])
    if not check:
        return reference, report, None
    if exact:
        other, richardson_dt = stepper.yz[1], 2.0 * h
    else:
        coarse = cfg.tau / max(1, math.ceil(cfg.tau * lam / 2.5))
        richardson_dt = coarse if coarse >= 1.25 * h else h / 2.0
        other = rk4_run(dom.operator(), state0, richardson_dt, cfg.tau).final_state
    gap = float(np.max(np.abs(np.subtract(np.ravel(other), np.ravel(report.final_state)))))
    gap /= abs((richardson_dt / h) ** 4 - 1.0)
    if gap > 1e-5:
        logger.warning("reference self-check: Richardson gap %.3e exceeds 1e-5", gap)
    return reference, report, {"richardson_gap": gap, "richardson_dt": richardson_dt}


# ---------------------------------------------------------------------------
# verification case
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    records: list
    reports: dict
    reference: StateField
    grid: Grid1D
    manifest: dict
    failures: dict = field(default_factory=dict)


def run_verification_case(cfg: CaseConfig, out_dir) -> VerificationResult:
    """Run the scheme comparison against the reference of :func:`_oracle`,
    self-checked by step doubling: exact in time on a linear wall with two
    Robin sides (as the preset's), RK4 otherwise.  The manifest's
    ``reference`` gives its ``method`` ("expm" or "rk4"), step and check."""
    dom = _dimensionless_domain(cfg)
    grid = dom.grid

    ref_traj, ref_report, richardson = _oracle(dom, check=True)
    trackers = {scheme: _ErrorTracker(ref_traj, grid.spacing) for scheme in cfg.schemes}
    records, reports, failures, _ = _compare(dom, [(s, s, None) for s in cfg.schemes], trackers=trackers)

    profiles = {f"{scheme}_{f}": (f"x,{f}", zip(grid.node_positions.tolist(),
                                                getattr(report.final_state, f).tolist()))
                for scheme, report in reports.items() for f in "uv"}

    manifest = _manifest_stub(cfg, {
        "schedules": _schedules(cfg.schemes, cfg),
        "reference": {"method": ref_report.scheme, "dt": ref_report.dt, **richardson},
        "runs": {name: rep.describe() for name, rep in reports.items()},
        "failures": failures,
    })
    emit_outputs(out_dir, manifest, records=records, tables=profiles)
    if cfg.dump_matrix:
        dom.operator().dump_matrix(os.path.join(out_dir, "operator_matrix.txt"), dom.state0[1])
    return VerificationResult(records=records, reports=reports, reference=ref_report.final_state,
                              grid=grid, manifest=manifest, failures=failures)


# ---------------------------------------------------------------------------
# super-step count sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    rows: list
    slopes: dict
    manifest: dict
    failures: dict = field(default_factory=dict)


def run_ns_sweep(cfg: CaseConfig, out_dir=None) -> SweepResult:
    """Sweep the super-step count ``cfg.sweep_ns`` on the verification setup.

    One row per (scheme, n_s), with ratios against the Euler baseline (or
    the first run that ran); the log-log slope of the uniform error versus
    n_s is reported per scheme and field, fitted on the ok rows whose two
    errors are positive (a scheme with fewer than two such rows has none).
    """
    dom = _dimensionless_domain(cfg)
    ns_values = [int(n) for n in cfg.sweep_ns]
    if not ns_values or min(ns_values) < 1:
        raise ConfigError("sweep needs positive super-step counts")
    if not set(cfg.sweep_schemes) <= {"rkc", "rkl"}:
        raise ConfigError(f"sweep schemes must be rkc or rkl, got {cfg.sweep_schemes}")

    ref_traj = _oracle(dom)[0]
    # the Euler baseline is sampled like the rows, so rho_cpu_pct compares like with like
    runs = [("euler", "euler", None)] + [(f"{s}-{n}", s, n) for s in cfg.sweep_schemes for n in ns_values]
    trackers = {name: _ErrorTracker(ref_traj, dom.grid.spacing) for name, _, _ in runs}
    records, reports, failures, baseline = _compare(dom, runs, trackers=trackers)
    rows = []
    for (name, scheme, n_s), rec in zip(runs[1:], records[1:]):
        if name in failures:
            rows.append([scheme, n_s, rec.dt, "", "", "", "", "", "diverged"])
        else:
            rows.append([scheme, n_s, rec.dt, reports[name].n_steps, rec.rho_ndt_pct,
                         rec.epsinf_u, rec.epsinf_v, rec.rho_cpu_pct, "ok"])

    slopes = {}
    for scheme in cfg.sweep_schemes:
        fit = [row for row in rows if row[0] == scheme and row[-1] == "ok" and row[5] > 0 and row[6] > 0]
        if len(fit) >= 2:
            ns, eu, ev = (np.array([row[k] for row in fit], dtype=float) for k in (1, 5, 6))
            ln, pair = np.log(ns), np.maximum(eu, ev)
            slopes[scheme] = {
                "u": float(np.polyfit(ln, np.log(eu), 1)[0]),
                "v": float(np.polyfit(ln, np.log(ev), 1)[0]),
                # uniform error of the solution pair: the headline scaling
                "solution": float(np.polyfit(ln, np.log(pair), 1)[0]),
            }

    manifest = _manifest_stub(cfg, {
        "sweep": {"ns": ns_values, "schemes": list(cfg.sweep_schemes)},
        "slopes": slopes,
        "failures": failures,
        "baseline": baseline.describe() if baseline else None,
    })
    if out_dir is not None:
        emit_outputs(out_dir, manifest, tables={"sweep": (
            "scheme,N_S,dt,n_steps,rho_Ndt_pct,epsinf_u,epsinf_v,rho_cpu_pct,status", rows)})
    return SweepResult(rows=rows, slopes=slopes, manifest=manifest, failures=failures)


# ---------------------------------------------------------------------------
# physical case
# ---------------------------------------------------------------------------

@dataclass
class PhysicalResult:
    records: list
    reports: dict
    totals: dict           # configuration -> (t_days, theta_tot)
    rates: dict            # configuration -> (t_days, V_dry)
    policy_counts: dict
    manifest: dict
    failures: dict = field(default_factory=dict)


def physical_step_counts(cfg: CaseConfig) -> dict:
    """Step-policy node counts at the 365-day reporting horizon, by formula.

    ``cfg`` needs its Euler step and schedule base set; a config that
    leaves them to the operator estimate gets them from
    :func:`_layout_config`, as :func:`run_physical_case` does.
    """
    if cfg.dt_euler is None and (cfg.dt_exp_base is None or "euler" in cfg.schemes):
        raise ConfigError("step counts need dt_euler or dt_exp; 'auto' steps come from "
                          "a layout's operator estimate")
    dts = {scheme: _scheme_step(scheme, cfg)[0] for scheme in cfg.schemes}
    return {scheme: {"dt_s": dt, "n_t": node_count(dt, YEAR_S)} for scheme, dt in dts.items()}


def _physical_forcing(series: BoundarySeries) -> BoundaryForcing:
    return BoundaryForcing(
        left=SideForcing.dirichlet(series.interpolator("T_out"), series.interpolator("theta_out")),
        right=SideForcing.dirichlet(series.interpolator("T_in"), series.interpolator("theta_in")),
    )


class _MoistureObserver:
    """Collects samples of t and of the total moisture over each span of
    ``spans`` (inclusive node ranges of :meth:`WallAssembly.node_spans`, one
    per wall of the march): each total is :func:`total_moisture`'s, bit for bit."""

    def __init__(self, grid, spans):
        self.dx = grid.spacing
        self.spans = [(a, slice(a, b + 1), b) for a, b in spans]
        self.times = []
        self.totals = []

    def __call__(self, t, y):
        v, dx = y[1], self.dx
        self.times.append(t)
        self.totals.append([float(dx * (np.sum(v[seg]) - 0.5 * (v[a] + v[b]))) for a, seg, b in self.spans])


def run_physical_case(cfg: CaseConfig, out_dir) -> PhysicalResult:
    """Run the drying study and the scheme-comparison table.

    Drying curves are produced per layer configuration with
    ``cfg.drying_scheme``; the comparison table runs every scheme in
    ``cfg.schemes`` on the first configuration.  Step counts at the
    365-day horizon are always reported by formula, whatever ``cfg.tau``
    the marching used.
    """
    if cfg.kind != "physical":
        raise ConfigError("run_physical_case needs a physical case config")
    cfg.validate()
    # read once, so that the manifest records the state every layout starts from
    cfg = dataclasses.replace(cfg, initial_u=PHYSICAL_INITIAL_T, initial_v=dict(PHYSICAL_INITIAL_V))
    os.makedirs(out_dir, exist_ok=True)
    if cfg.climate_path is None:
        climate_path = os.path.join(out_dir, "synthetic_climate.csv")
        write_synthetic_climate(climate_path, days=cfg.tau / DAY_S + 1.0)
    else:
        climate_path = cfg.climate_path
    series = ingest_boundary_series(climate_path)
    series.require_span(0.0, cfg.tau)
    forcing = _physical_forcing(series)
    groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0, gamma=1.0, delta=cfg.latent_heat)

    layouts = {name: PHYSICAL_LAYOUTS[name] for name in cfg.physical_configurations}
    first_name = cfg.physical_configurations[0]
    totals = {}
    rates = {}
    failures = {}
    drying_reports = {}
    domains = {}

    def march(dom, names, spans):
        """The drying march of ``dom``, holding the layouts ``names`` whose re
        layers span ``spans``; their curves go into ``totals`` and ``rates``.
        Walls side by side that rebuilt their schedule (at the largest of
        their bounds, not each at its own) keep nothing and return None."""
        observer = _MoistureObserver(dom.grid, spans)
        stride = max(1, int(cfg.tau / _scheme_step(cfg.drying_scheme, dom.cfg)[0] / 1500))
        report = _run_one_scheme(cfg.drying_scheme, dom, observe=observer, observe_every=stride)
        if dom.seams and report.flags.get("schedule_rebuilds"):
            logger.info("composite drying march of %s rebuilt its schedule: set aside", ", ".join(names))
            return None
        t_days = np.asarray(observer.times) / DAY_S
        for name, theta in zip(names, map(np.array, zip(*observer.totals))):
            totals[name] = (t_days, theta)
            rates[name] = (t_days, drying_rate(t_days, theta))
        return report

    def march_alone(name):
        dom = domains[name]
        try:
            drying_reports[name] = march(dom, [name], [dom.spans[_re_layer(dom)]])
        except DivergenceError as exc:
            failures[f"drying-{name}"] = str(exc)
            logger.warning("drying march of %s diverged: %s", name, exc)

    # The first layout's march is the table's drying_scheme row: it is built
    # and marched first, alone.  The others march as one composite wall where
    # that is exact (see _composite_drying), else one by one.
    domains[first_name] = _layout_config(cfg, layouts[first_name], forcing, groups)
    march_alone(first_name)
    rest = [name for name in layouts if name != first_name]
    for name in rest:
        domains[name] = _layout_config(cfg, layouts[name], forcing, groups)
    try:
        composite = _composite_drying(cfg.drying_scheme, [domains[name] for name in rest])
        marched = composite is not None and march(composite[0], rest, composite[1]) is not None
    except StswallError as exc:     # the walls march one by one: their own failures and messages
        logger.info("composite drying march of %s failed: set aside (%s)", ", ".join(rest), exc)
        marched = False
    if not marched:
        for name in rest:
            march_alone(name)

    # Scheme comparison on the first configuration; the drying run already
    # covers its own scheme there.
    dom = domains[first_name]
    done = {cfg.drying_scheme: drying_reports[first_name]} if first_name in drying_reports else None
    records, reports, table_failures, baseline = _compare(
        dom, [(s, s, None) for s in cfg.schemes], reports=done)
    failures.update(table_failures)

    policy_counts = physical_step_counts(dom.cfg)
    curves = {}
    for name, (t_days, theta) in totals.items():
        curves[f"theta_tot_{name}"] = ("t_days,theta_tot_m", zip(t_days.tolist(), theta.tolist()))
        curves[f"drying_rate_{name}"] = ("t_days,v_dry_m_per_day",
                                         zip(t_days.tolist(), rates[name][1].tolist()))

    manifest = _manifest_stub(cfg, {
        "climate": {"path": os.path.basename(climate_path),
                    "synthetic": cfg.climate_path is None},
        "configurations": {name: layout for name, layout in layouts.items()},
        "policy_counts_365d": policy_counts,
        "schedules": _schedules([*cfg.schemes, cfg.drying_scheme], dom.cfg),
        "runs": {name: rep.describe() for name, rep in reports.items()},
        "failures": failures,
        "ratio_baseline": getattr(baseline, "scheme", None),
    })
    emit_outputs(out_dir, manifest, records=records, tables=curves)
    return PhysicalResult(records=records, reports=reports, totals=totals, rates=rates,
                          policy_counts=policy_counts, manifest=manifest, failures=failures)


def _re_layer(dom) -> int:
    """Index of a physical layout's rammed-earth layer, whose moisture total is its drying curve."""
    return [name for name, _ in dom.cfg.layers].index("re")


def _composite_drying(scheme, doms):
    """(domain, re spans) of the walls of ``doms`` laid side by side for one
    drying march of ``scheme``, or None where that march would not be theirs
    bit for bit.

    Consecutive walls are joined by one seam cell, which the last layer of
    the wall before it spans too, so each wall's nodes, state and layer tables
    are its own at an offset, every real node makes the float operations of
    the wall's own march, and the seam's interface, a Dirichlet node, needs
    no coefficient fix-up.  That takes two or more walls marched by euler, rkc
    or rkl (Du Fort-Frankel's landing reads the Gershgorin bound, on the
    composite the largest of its walls'), the same steps (steps left to each
    layout's own estimate seldom agree) and a grid length whose spacing is
    theirs bit for bit.  The caller marches the walls one by one where this
    march fails or rebuilds its schedule, which each wall would do at its own bound."""
    if (len(doms) < 2 or scheme not in ("euler", "rkc", "rkl")
            or len({(dom.cfg.dt_euler, dom.cfg.dt_exp_base, dom.grid.spacing) for dom in doms}) > 1):
        return None
    dx, counts = doms[0].grid.spacing, [dom.grid.node_count for dom in doms]
    n = sum(counts)
    length = dx * (n - 1)
    if length / (n - 1) != dx:      # the float nearest m dx; no other length's spacing is dx either
        return None
    layers, spans, offset = [], [], 0
    for k, dom in enumerate(doms):
        *rest, (model, th) = dom.wall.layers
        layers += [*rest, (model, th + dx if k < len(doms) - 1 else th)]
        spans.append(tuple(j + offset for j in dom.spans[_re_layer(dom)]))
        offset += dom.grid.node_count
    wall, grid = WallAssembly(layers), Grid1D(length, n)
    seams = tuple((np.cumsum(counts[:-1]) - 1).tolist())
    state0 = np.concatenate([dom.state0 for dom in doms], axis=1)
    return _Domain(doms[0].cfg, wall, grid, doms[0].forcing, doms[0].groups, state0,
                   wall.node_spans(grid), seams), spans


def _layout_config(cfg: CaseConfig, layer_list, forcing, groups) -> _Domain:
    """The domain of one physical layout.

    Its config is a copy of ``cfg`` with the layout's layers and per-layer
    initial moisture.  Steps the config leaves open come from the explicit
    limit ``2 / lambda_max`` of this layout's Gershgorin bound at the
    initial state: the Euler step is 0.9 of the limit, and the schedule
    base is the Euler step when one is set, else the limit with a 10% margin.
    """
    sub = copy.copy(cfg)
    sub.layers = [(name, th) for name, th in layer_list]
    sub.initial_v = [cfg.initial_v[name] for name, _ in layer_list]
    dom = _build_domain(sub, forcing, groups)
    if sub.dt_euler is None or sub.dt_exp_base is None:
        lam = dom.operator().gershgorin_lambda_max(dom.state0[1])
        if not lam > 0:
            raise ConfigError("operator has zero stiffness; set dt_euler or dt_exp explicitly")
        dt_exp = 2.0 / lam
        if sub.dt_exp_base is None:
            sub.dt_exp_base = sub.dt_euler if sub.dt_euler is not None else dt_exp / 1.1
        if sub.dt_euler is None:
            sub.dt_euler = 0.9 * dt_exp
    return dom

