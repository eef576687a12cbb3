"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here, not calibrated elsewhere."""
import math

import numpy as np
import pytest

from stswall.cases import physical_step_counts
from stswall.integrators import amplification_eval, build_schedule, euler_run, sts_run
from stswall.model import (
    BiotSet, BoundaryForcing, CoefficientModel, DimensionlessGroups, Grid1D, SideForcing,
    StateField, WallAssembly,
)
from stswall.operator import SemiDiscreteOperator


def report(number, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {title}")
    for line in failures:
        print(f"       - {line}")
    assert not failures, f"criterion {number} ({title}): " + "; ".join(failures)


def test_criterion_1_super_step_formulas():
    failures = []
    rkc = build_schedule("rkc", 10, dt_exp=1.0, damping=1e-8)
    ratio = rkc.dt_super / rkc.dt_exp
    if abs(ratio - 100.0) / 100.0 > 1e-6:
        failures.append(f"rkc n_s=10 damping=1e-8: dt_super/dt_exp = {ratio!r}, want 100 within 1e-6")
    rkl = build_schedule("rkl", 20, dt_exp=1.0)
    if rkl.dt_super / rkl.dt_exp != 210.0:
        failures.append(f"rkl n_s=20: dt_super/dt_exp = {rkl.dt_super!r}, want exactly 210")
    report(1, "super-step formulas", failures)


def test_criterion_2_verification_step_counts(verification_bundle):
    _, result, _ = verification_bundle
    failures = []
    want_nt = {"euler": 28001, "df": 1001, "rkc": 280, "rkl": 133}
    want_rho = {"euler": (100.0, 1e-9), "df": (3.57, 0.005), "rkc": (1.0, 1e-9)}
    recs = {rec.scheme: rec for rec in result.records}
    for scheme, n_t in want_nt.items():
        got = recs[scheme].n_t
        if abs(got - n_t) > 1:
            failures.append(f"{scheme}: N_t = {got}, want {n_t} +- 1")
    for scheme, (rho, tol) in want_rho.items():
        got = recs[scheme].rho_ndt_pct
        if abs(got - rho) > tol:
            failures.append(f"{scheme}: rho_Ndt = {got}%, want {rho}% +- {tol}")
    rho_rkl = recs["rkl"].rho_ndt_pct
    if not 0.47 <= rho_rkl <= 0.48:
        failures.append(f"rkl: rho_Ndt = {rho_rkl}%, want within [0.47, 0.48]")
    report(2, "verification step counts", failures)


def test_criterion_3_verification_accuracy(verification_bundle):
    _, result, _ = verification_bundle
    failures = []
    recs = {rec.scheme: rec for rec in result.records}
    for scheme in ("df", "rkc", "rkl"):
        rec = recs[scheme]
        for field, eps, scd in (("u", rec.epsinf_u, rec.scd_u),
                                ("v", rec.epsinf_v, rec.scd_v)):
            if not 5e-4 <= eps <= 2e-2:
                failures.append(f"{scheme} epsinf({field}) = {eps:.3e}, want within [5e-4, 2e-2]")
            if not 1.8 <= scd <= 3.0:
                failures.append(f"{scheme} scd({field}) = {scd:.2f}, want within [1.8, 3.0]")
    report(3, "verification accuracy brackets", failures)


def _zero_forcing_linear_operator(n):
    wall = WallAssembly([
        (CoefficientModel.constants("a", 0.3, 2.1, 0.1, 0.5, 0.4), 0.5),
        (CoefficientModel.constants("b", 0.1, 3.2, 0.3, 0.2, 0.1), 0.5),
    ])
    grid = Grid1D(1.0, n)
    groups = DimensionlessGroups(fo_m=9e-2, fo_t=7e-2, gamma=7e-2, delta=5e-2,
                                 biot_left=BiotSet(m_theta=25.5, t_t=50.5, t_theta=0.496),
                                 biot_right=BiotSet(m_theta=51.8, t_t=19.8, t_theta=0.673))
    zero = SideForcing.robin(lambda t: 0.0, lambda t: 0.0)
    return SemiDiscreteOperator(wall, grid, groups, BoundaryForcing(zero, zero))


def test_criterion_4_linear_sts_equivalence():
    failures = []
    rng = np.random.default_rng(42)
    for n_x, scheme, n_s in ((5, "rkc", 10), (5, "rkl", 20), (9, "rkc", 10), (9, "rkl", 20)):
        op = _zero_forcing_linear_operator(n_x)
        a = op.frozen_matrix()
        sch = build_schedule(scheme, n_s, 2.0 / op.gershgorin_lambda_max(),
                             0.0 if scheme == "rkc" else None)
        y0 = 0.5 + rng.random(2 * n_x)
        state = StateField(y0[:n_x].copy(), y0[n_x:].copy())
        run = sts_run(op, state, sch, tau=sch.dt_super)
        got = np.concatenate([run.final_state.u, run.final_state.v])
        eye = np.eye(2 * n_x)
        if scheme == "rkc":
            poly = eye.copy()
            for tau_k in sch.stage_steps:
                poly = (eye - tau_k * a) @ poly
        else:
            y_pp, y_p = eye, eye - sch.rkl_mu_tilde[0] * sch.dt_super * a
            for j in range(2, n_s + 1):
                y_pp, y_p = y_p, (sch.rkl_mu[j - 1] * y_p + sch.rkl_nu[j - 1] * y_pp
                                  - sch.rkl_mu_tilde[j - 1] * sch.dt_super * (a @ y_p))
            poly = y_p
        diff = float(np.max(np.abs(got - poly @ y0)))
        if diff >= 1e-12:
            failures.append(f"{scheme} n_s={n_s} N_x={n_x}: max-abs gap {diff:.2e} >= 1e-12")
    report(4, "one STS cycle equals the stability-polynomial matrix", failures)


def test_criterion_5_stability_polynomial_bound():
    failures = []
    lam_max = 560.0
    lam = np.linspace(0.0, lam_max, 10_000)
    cases = [("rkc", n_s, 0.05) for n_s in (5, 10, 20)] + \
            [("rkl", n_s, None) for n_s in (5, 20, 50)]
    for scheme, n_s, damping in cases:
        sch = build_schedule(scheme, n_s, 2.0 / lam_max, damping)
        peak = float(np.max(np.abs(amplification_eval(sch, lam))))
        if peak > 1.0 + 1e-12:
            failures.append(f"{scheme} n_s={n_s}: max |P| = {peak!r} > 1 + 1e-12")
    report(5, "cycle-end stability bound on a 10^4-point grid", failures)


def test_criterion_6_ns_sweep_scaling(sweep_bundle):
    # The uniform error of a run is taken over the solution pair; the
    # per-field slopes are also reported in the sweep manifest.
    _, result = sweep_bundle
    failures = []
    if result.failures:
        failures.append(f"sweep runs diverged: {sorted(result.failures)}")
    for scheme in ("rkc", "rkl"):
        slope = result.slopes.get(scheme, {}).get("solution")
        if slope is None or not 1.6 <= slope <= 2.4:
            failures.append(f"{scheme} epsinf slope vs N_S = {slope}, want 2.0 +- 0.4")
    report(6, "error grows as the square of the super-step count", failures)


def test_criterion_7_physical_step_counts(physical_week_bundle):
    cfg, result = physical_week_bundle
    failures = []
    targets = {"euler": 15_629_624, "rkc": 156_196, "rkl": 74_379}
    counts = physical_step_counts(cfg)
    for scheme, want in targets.items():
        got = counts[scheme]["n_t"]
        rel = abs(got - want) / want
        if rel > 0.02:
            failures.append(f"{scheme}: N_t(365d) = {got}, want {want} within 2% (off {rel:.2%})")
    for scheme in targets:
        if scheme in result.failures:
            failures.append(f"{scheme}: 7-day marching diverged")
        elif result.reports[scheme].n_steps <= 0:
            failures.append(f"{scheme}: 7-day marching took no steps")
    report(7, "physical-case step counts at the 365-day horizon", failures)


def test_criterion_8_cost_reduction(verification_bundle):
    _, result, _ = verification_bundle
    failures = []
    euler = result.reports["euler"]
    recs = {rec.scheme: rec for rec in result.records}
    for scheme in ("rkc", "rkl"):
        rec = recs[scheme]
        if rec.rho_cpu_pct > 20.0:
            failures.append(f"{scheme}: rho_CPU = {rec.rho_cpu_pct:.1f}%, want <= 20%")
        run = result.reports[scheme]
        # exact integer identity: rhs ratio equals N_S times the step ratio
        if run.rhs_evals != run.n_s * run.n_steps:
            failures.append(f"{scheme}: rhs_evals {run.rhs_evals} != n_s*steps {run.n_s * run.n_steps}")
        if run.rhs_evals * euler.n_steps != run.n_s * run.n_steps * euler.rhs_evals:
            failures.append(f"{scheme}: rhs-eval ratio is not exactly N_S * rho_Ndt")
    report(8, "super-stepping cuts the marching cost", failures)


def test_criterion_9_drying_configuration_ordering(physical_90d_bundle):
    _, result = physical_90d_bundle
    failures = []
    finals = {name: theta[-1] for name, (t, theta) in result.totals.items()}
    if not finals["ins_re"] > finals["re"]:
        failures.append(f"theta_tot(ins_re) = {finals['ins_re']:.4f} "
                        f"not above theta_tot(re) = {finals['re']:.4f}")
    gap_inside = abs(finals["re_ins"] - finals["re"])
    gap_outside = abs(finals["ins_re"] - finals["re"])
    if not gap_inside < gap_outside:
        failures.append(f"|re_ins - re| = {gap_inside:.4f} not below |ins_re - re| = {gap_outside:.4f}")
    report(9, "exterior insulation blocks drying; interior barely changes it", failures)


def _mms_setup(n):
    d_th, d_t, c_t, k_t, k_tm = 0.2, 1.0, 0.4, 0.3, 0.5
    fo_m, fo_t, gam, dlt = 9e-2, 7e-2, 7e-2, 5e-2
    mat = CoefficientModel.constants("mms", d_th, d_t, c_t, k_t, k_tm)
    wall = WallAssembly([(mat, 1.0)])
    grid = Grid1D(1.0, n)
    groups = DimensionlessGroups(fo_m=fo_m, fo_t=fo_t, gamma=gam, delta=dlt)

    def u_exact(x, t):
        return 1.0 + 0.1 * np.sin(np.pi * x) * math.cos(t)

    def v_exact(x, t):
        return 1.0 + 0.1 * np.cos(np.pi * x) * math.sin(t)

    pi2 = np.pi ** 2

    def source_v(x, t):
        u_xx = -0.1 * pi2 * np.sin(np.pi * x) * math.cos(t)
        v_xx = -0.1 * pi2 * np.cos(np.pi * x) * math.sin(t)
        v_t = 0.1 * np.cos(np.pi * x) * math.cos(t)
        return v_t - fo_m * (d_th * v_xx + gam * d_t * u_xx)

    def source_u(x, t):
        u_xx = -0.1 * pi2 * np.sin(np.pi * x) * math.cos(t)
        v_xx = -0.1 * pi2 * np.cos(np.pi * x) * math.sin(t)
        u_t = -0.1 * np.sin(np.pi * x) * math.sin(t)
        return u_t - (fo_t / c_t) * (k_t * u_xx + dlt * k_tm * v_xx)

    forcing = BoundaryForcing(
        SideForcing.dirichlet(lambda t: u_exact(0.0, t), lambda t: v_exact(0.0, t)),
        SideForcing.dirichlet(lambda t: u_exact(1.0, t), lambda t: v_exact(1.0, t)),
    )
    op = SemiDiscreteOperator(wall, grid, groups, forcing,
                              source_u=source_u, source_v=source_v)
    return op, grid, u_exact, v_exact


def _mms_error(n, tau=0.5, dt_factor=0.4, dt=None):
    op, grid, u_exact, v_exact = _mms_setup(n)
    x = grid.node_positions
    state0 = StateField(u_exact(x, 0.0), v_exact(x, 0.0))
    if dt is None:
        dt = dt_factor * 2.0 / op.gershgorin_lambda_max()
    run = euler_run(op, state0, dt, tau)
    du = run.final_state.u - u_exact(x, tau)
    dv = run.final_state.v - v_exact(x, tau)
    dx = grid.spacing
    eps2_u = math.sqrt(dx * float(np.sum(du * du)))
    eps2_v = math.sqrt(dx * float(np.sum(dv * dv)))
    return eps2_u, eps2_v, run.final_state


def test_criterion_10_discretization_verification():
    failures = []
    # spatial order on dx in {1/25, 1/50, 1/100}
    sizes = [26, 51, 101]
    errs_u, errs_v = [], []
    for n in sizes:
        e_u, e_v, _ = _mms_error(n)
        errs_u.append(e_u)
        errs_v.append(e_v)
    dxs = np.array([1.0 / (n - 1) for n in sizes])
    order_u = float(np.polyfit(np.log(dxs), np.log(errs_u), 1)[0])
    order_v = float(np.polyfit(np.log(dxs), np.log(errs_v), 1)[0])
    for name, order in (("u", order_u), ("v", order_v)):
        if order < 1.8:
            failures.append(f"spatial order in {name} = {order:.2f}, want >= 1.8")

    # Euler time order on a fixed grid against a fine-step run
    op, grid, u_exact, v_exact = _mms_setup(51)
    x = grid.node_positions
    state0 = StateField(u_exact(x, 0.0), v_exact(x, 0.0))
    dt0 = 0.8 * 2.0 / op.gershgorin_lambda_max()
    fine = euler_run(op, state0, dt0 / 32.0, 0.5).final_state
    errs = []
    dts = [dt0, dt0 / 2.0, dt0 / 4.0]
    for dt in dts:
        run = euler_run(op, state0, dt, 0.5)
        errs.append(max(float(np.max(np.abs(run.final_state.u - fine.u))),
                        float(np.max(np.abs(run.final_state.v - fine.v)))))
    t_order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    if t_order < 0.9:
        failures.append(f"Euler time order = {t_order:.2f}, want >= 0.9")

    # zero-flux moisture conservation over 1000 explicit steps
    mat = CoefficientModel.constants("cons", 0.3, 0.0, 1.0, 0.2, 0.0)
    wall = WallAssembly([(mat, 1.0)])
    grid = Grid1D(1.0, 41)
    groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0)
    still = SideForcing.robin(lambda t: 1.0, lambda t: 1.0)
    op = SemiDiscreteOperator(wall, grid, groups, BoundaryForcing(still, still))
    xs = grid.node_positions
    u = 1.0 + 0.3 * np.sin(np.pi * xs)
    v = 1.0 + 0.5 * np.exp(-20 * (xs - 0.4) ** 2)
    dt = 0.2 * 2.0 / op.gershgorin_lambda_max()

    def trapezoid(f):
        return grid.spacing * (np.sum(f) - 0.5 * (f[0] + f[-1]))

    total0 = trapezoid(v)
    for _ in range(1000):
        du, dv = op.rhs(0.0, np.stack([u, v]))
        u += dt * du
        v += dt * dv
    drift = abs(trapezoid(v) - total0)
    if drift >= 1e-8:
        failures.append(f"zero-flux moisture drift = {drift:.2e}, want < 1e-8")
    report(10, "manufactured-solution orders and conservation", failures)
