import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stswall.errors import ConfigError, DivergenceError, StaleScheduleError
from stswall.integrators import (
    MAX_STAGES, SAFETY_INFLATION, _EulerStep, _march, _Monitor, _RK4Step, _SuperStep, amplification_eval, build_schedule,
    dufort_frankel_run, euler_run, rk4_run, sts_run,
)
from stswall.model import (
    BiotSet, BoundaryForcing, CoefficientModel, DimensionlessGroups, Grid1D, SideForcing,
    WallAssembly, builtin_material,
)
from stswall.operator import SemiDiscreteOperator


def decay_operator(rate=1.0, n=2):
    """Every node decays toward zero at the given rate (no diffusion)."""
    mat = CoefficientModel.constants("still", 0.0, 0.0, 1.0, 0.0, 0.0)
    wall = WallAssembly([(mat, 1.0)])
    grid = Grid1D(1.0, n)
    bi = rate * grid.spacing / 2.0
    groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0,
                                 biot_left=BiotSet(m_theta=bi, t_t=bi),
                                 biot_right=BiotSet(m_theta=bi, t_t=bi))
    zero = SideForcing.robin(lambda t: 0.0, lambda t: 0.0)
    return SemiDiscreteOperator(wall, grid, groups, BoundaryForcing(zero, zero))


def diffusion_operator(n=9, robin=True, d=1.0, k=1.0):
    mat = CoefficientModel.constants("mat", d, 0.0, 1.0, k, 0.0)
    wall = WallAssembly([(mat, 1.0)])
    grid = Grid1D(1.0, n)
    groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0,
                                 biot_left=BiotSet(m_theta=2.0, t_t=3.0),
                                 biot_right=BiotSet(m_theta=1.0, t_t=2.0))
    if robin:
        side = SideForcing.robin(lambda t: 0.0, lambda t: 0.0)
    else:
        side = SideForcing.dirichlet(lambda t: 0.0, lambda t: 0.0)
    return SemiDiscreteOperator(wall, grid, groups, BoundaryForcing(side, side))


def ones_state(n):
    return np.ones((2, n))


def nonlinear_operator():
    """The drying study's ins_re wall (n = 126) between Dirichlet sides: its
    coefficients depend on v, so every stage needs a coefficient pass."""
    wall = WallAssembly([(builtin_material("table3_ins"), 0.125),
                         (builtin_material("table3_re"), 0.5)])
    side = SideForcing.dirichlet(lambda t: 285.0, lambda t: 0.3)
    return SemiDiscreteOperator(wall, Grid1D(0.625, 126),
                                DimensionlessGroups(fo_m=1.0, fo_t=1.0, gamma=1.0, delta=2.5e6),
                                BoundaryForcing(side, side), admissible_box=(240.0, 320.0, 0.0, 0.6))


def nonlinear_state():
    return np.array([np.full(126, 291.3), np.r_[np.full(25, 0.053), np.full(101, 0.53)]])


class TestSchedules:
    def test_rkc_undamped_gain_is_n_squared(self):
        sch = build_schedule("rkc", 10, dt_exp=1.0, damping=0.0)
        assert sch.dt_super == pytest.approx(100.0, rel=1e-12)
        assert sch.stage_steps.size == 10
        assert np.sum(sch.stage_steps) == pytest.approx(sch.dt_super)

    def test_rkc_tiny_damping_limit(self):
        sch = build_schedule("rkc", 10, dt_exp=1.0, damping=1e-8)
        assert abs(sch.dt_super / 100.0 - 1.0) < 1e-6
        sch = build_schedule("rkc", 10, dt_exp=1.0, damping=1e-12)
        assert abs(sch.dt_super / 100.0 - 1.0) < 1e-9

    def test_rkl_bound_is_exact(self):
        sch = build_schedule("rkl", 20, dt_exp=1.0)
        assert sch.dt_super == 210.0
        assert sch.rkl_mu[0] == 1.0
        # first-order recursion coefficients
        j = np.arange(1, 21)
        assert sch.rkl_mu == pytest.approx((2 * j - 1) / j)
        assert sch.rkl_nu == pytest.approx((1 - j) / j)
        assert sch.rkl_mu_tilde == pytest.approx(sch.rkl_mu * 2 / (20**2 + 20))

    @pytest.mark.parametrize("n_s", [1, 2, 3, 7, 10, 33, 100])
    def test_gain_table(self, n_s):
        rkc = build_schedule("rkc", n_s, dt_exp=1.0, damping=1e-8)
        assert abs(rkc.dt_super / n_s**2 - 1.0) < 1e-6
        rkl = build_schedule("rkl", n_s, dt_exp=1.0)
        assert rkl.dt_super == pytest.approx((n_s**2 + n_s) / 2.0)

    def test_single_stage_cannot_beat_euler(self):
        sch = build_schedule("rkc", 1, dt_exp=0.5, damping=0.0)
        assert sch.dt_super == pytest.approx(0.5)
        assert sch.dt_super >= sch.dt_exp * (1 - 1e-12)
        rkl = build_schedule("rkl", 1, dt_exp=0.5)
        assert rkl.dt_super == pytest.approx(0.5)

    def test_verification_super_steps(self):
        dt_exp = 1.0 / 28000.0
        rkc = build_schedule("rkc", 10, dt_exp, damping=0.0)
        assert rkc.dt_super == pytest.approx(3.5714285714e-3, rel=1e-9)
        rkl = build_schedule("rkl", 20, dt_exp)
        assert rkl.dt_super == pytest.approx(7.5e-3, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            build_schedule("rkc", 0, 1.0)
        with pytest.raises(ConfigError):
            build_schedule("rkc", 5, 1.0, damping=-0.1)
        for damping in (math.nan, math.inf):     # NaN passed the sign test and ran on
            with pytest.raises(ConfigError, match="damping"):
                build_schedule("rkc", 5, 1.0, damping=damping)
        with pytest.raises(ConfigError):
            build_schedule("rkl", 5, 1.0, damping=0.05)
        with pytest.raises(ConfigError):
            build_schedule("rk4", 5, 1.0)
        with pytest.raises(ConfigError):
            build_schedule("rkc", 5, 0.0)

    def test_stage_ceiling(self):
        assert build_schedule("rkl", MAX_STAGES, 1.0).n_s == MAX_STAGES
        for n_s in (MAX_STAGES + 1, 10**12):        # checked before the n_s-entry arrays
            for scheme in ("rkc", "rkl"):
                with pytest.raises(ConfigError, match=f"n_s={n_s} is more than the ceiling of {MAX_STAGES}"):
                    build_schedule(scheme, n_s, 1.0)

    def test_stage_interleaving(self):
        sch = build_schedule("rkc", 6, dt_exp=1.0, damping=0.0)
        tau = sch.stage_steps
        sorted_tau = np.sort(tau)[::-1]
        # largest first, then smallest, then second largest, ...
        assert tau[0] == sorted_tau[0]
        assert tau[1] == sorted_tau[-1]
        assert tau[2] == sorted_tau[1]
        assert np.sort(tau) == pytest.approx(np.sort(sorted_tau))

    def test_scaled(self):
        sch = build_schedule("rkl", 5, 1.0).scaled(0.25)
        assert sch.dt_super == pytest.approx((25 + 5) / 2 * 0.25)
        with pytest.raises(ConfigError):
            sch.scaled(1.5)


class TestAmplification:
    def test_constants_preserved(self):
        for sch in (build_schedule("rkc", 8, 1.0, 0.05), build_schedule("rkl", 8, 1.0)):
            assert amplification_eval(sch, 0.0) == 1.0

    @pytest.mark.parametrize("scheme,n_s,damping", [
        ("rkc", 5, 0.05), ("rkc", 10, 0.05), ("rkc", 20, 0.05),
        ("rkc", 10, 0.0),
        ("rkl", 5, None), ("rkl", 20, None), ("rkl", 50, None),
    ])
    def test_cycle_end_stability_on_dense_grid(self, scheme, n_s, damping):
        lam_max = 400.0
        sch = build_schedule(scheme, n_s, 2.0 / lam_max, damping)
        lam = np.linspace(0.0, lam_max, 10_000)
        p = amplification_eval(sch, lam)
        assert np.max(np.abs(p)) <= 1.0 + 1e-12

    def test_interior_stage_growth_is_allowed(self):
        # the envelope is a cycle-end property; single stages may exceed 1
        sch = build_schedule("rkc", 10, 1.0, damping=0.0)
        assert np.max(sch.stage_steps) > sch.dt_exp

    @pytest.mark.parametrize("n_s", [5, 10, 20, 50])
    @pytest.mark.parametrize("scheme,damping", [("rkc", 0.0), ("rkc", 0.05), ("rkl", None)])
    def test_matches_closed_form_polynomial(self, scheme, damping, n_s):
        # RKC: T_s(w0 - w1 lam) / T_s(w0) (Sommeijer, Shampine & Verwer 1998);
        # RKL: P_s(1 - 2 lam dt_super / (s (s + 1))) (Meyer, Balsara & Aslam 2014)
        sch = build_schedule(scheme, n_s, 2.0 / 400.0, damping)
        lam = np.linspace(0.0, sch.design_lambda, 10_000)
        e_s = np.eye(n_s + 1)[n_s]
        if scheme == "rkc":
            w0 = 1.0 + damping / n_s**2
            w1 = (w0 + 1.0) / sch.design_lambda
            want = np.polynomial.chebyshev.chebval(w0 - w1 * lam, e_s) \
                / np.polynomial.chebyshev.chebval(w0, e_s)
        else:
            want = np.polynomial.legendre.legval(1.0 - 2.0 * lam * sch.dt_super / (n_s * (n_s + 1)), e_s)
        assert np.max(np.abs(amplification_eval(sch, lam) - want)) <= 1e-12

    def test_scalar_rate_gives_float(self):
        sch = build_schedule("rkc", 4, 1.0, 0.05)
        p = amplification_eval(sch, 0.5)
        assert type(p) is float and p == amplification_eval(sch, np.array([0.5]))[0]

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            amplification_eval(build_schedule("rkl", 4, 1.0), -1.0)

    @pytest.mark.parametrize("scheme,damping", [("rkc", 0.05), ("rkl", None)])
    def test_first_order_consistency(self, scheme, damping):
        lam = 1.0
        n_s = 7
        gains = {"rkc": None, "rkl": (n_s**2 + n_s) / 2.0}
        errs = []
        dts = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        for dt_super in dts:
            if scheme == "rkl":
                sch = build_schedule("rkl", n_s, dt_super / gains["rkl"])
            else:
                probe = build_schedule("rkc", n_s, 1.0, damping)
                sch = build_schedule("rkc", n_s, dt_super / probe.dt_super, damping)
            errs.append(abs(amplification_eval(sch, lam) - math.exp(-lam * sch.dt_super)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 0.9


class TestEuler:
    def test_scalar_decay_single_step(self):
        op = decay_operator(rate=1.0)
        report = euler_run(op, ones_state(2), dt=0.1, tau=0.1)
        assert report.final_state.u == pytest.approx(np.full(2, 0.9), rel=1e-14)
        assert report.final_state.v == pytest.approx(np.full(2, 0.9), rel=1e-14)
        assert report.n_steps == 1
        assert report.rhs_evals == 1

    def test_step_limit_enforced(self):
        op = decay_operator(rate=1.0)   # lambda_max = 1, dt_exp = 2
        with pytest.raises(ConfigError):
            euler_run(op, ones_state(2), dt=2.5, tau=10.0)

    # euler_run refuses these steps, so the two tests below march an
    # Euler stepper through the driver directly
    def test_unstable_step_diverges_with_step_index(self):
        op = decay_operator(rate=1.0)
        with pytest.raises(DivergenceError) as err:
            _march(op, ones_state(2), _EulerStep(op, 2.5), 5000.0, None, 1)
        assert err.value.step > 0
        assert err.value.scheme == "euler"

    def test_runaway_diverges_one_box_width_out(self):
        # y <- -1.5 y: -1.5 and 2.25 stay within one width of the box
        # (limits [-2, 4]); -3.375 at step 3 does not, long before overflow
        op = decay_operator(rate=1.0)
        op.admissible_box = (0.0, 2.0, 0.0, 2.0)
        with pytest.raises(DivergenceError, match="admissible box") as err:
            _march(op, ones_state(2), _EulerStep(op, 2.5), 5000.0, None, 1)
        assert err.value.step == 3

    def test_node_counts_and_remainder(self):
        op = decay_operator(rate=1.0)
        report = euler_run(op, ones_state(2), dt=0.1, tau=1.0)
        assert (report.n_steps, report.n_t) == (10, 11)
        report = euler_run(op, ones_state(2), dt=0.1, tau=1.04)
        assert (report.n_steps, report.n_t) == (11, 11)
        assert report.final_state.u[0] == pytest.approx(0.9**10 * (1 - 0.04), rel=1e-13)

    def test_zero_horizon(self):
        op = decay_operator()
        report = euler_run(op, ones_state(2), dt=0.1, tau=0.0)
        assert report.n_steps == 0 and report.n_t == 1
        assert report.final_state.u == pytest.approx(np.ones(2))

    def test_box_violations_flagged(self):
        op = decay_operator(rate=1.0)
        op.admissible_box = (0.5, 2.0, 0.5, 2.0)
        report = euler_run(op, ones_state(2), dt=0.1, tau=10.0)
        assert report.flags["box_violations"] > 0


class TestRK4:
    def test_scalar_decay_single_step(self):
        report = rk4_run(decay_operator(rate=1.0), ones_state(2), dt=0.5, tau=0.5)
        z = 0.5
        growth = 1 - z + z**2 / 2 - z**3 / 6 + z**4 / 24
        assert report.final_state.u == pytest.approx(np.full(2, growth), rel=1e-14)
        assert (report.scheme, report.n_steps, report.rhs_evals) == ("rk4", 1, 4)

    def test_stage_times(self):
        op = diffusion_operator(robin=False)
        rhs_times, constraint_times = [], []
        rhs, apply_constraints = op.rhs, op.apply_constraints
        op.rhs = lambda t, y, *args: rhs_times.append(t) or rhs(t, y, *args)
        op.apply_constraints = lambda t, y: constraint_times.append(t) or apply_constraints(t, y)
        rk4_run(op, ones_state(9), dt=0.25, tau=0.5)
        assert rhs_times == [0.0, 0.125, 0.125, 0.25, 0.25, 0.375, 0.375, 0.5]
        assert constraint_times == [0.125, 0.125, 0.25, 0.25, 0.375, 0.375, 0.5, 0.5]

    def test_fourth_order_under_time_dependent_forcing(self):
        # halving the step cuts the error 16-fold only if every stage reads
        # the forcing at its own time
        mat = CoefficientModel.constants("mat", 1.0, 0.0, 1.0, 1.0, 0.0)
        side = SideForcing.robin(lambda t: math.sin(3.0 * t), lambda t: math.cos(2.0 * t))
        groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0,
                                     biot_left=BiotSet(m_theta=2.0, t_t=3.0),
                                     biot_right=BiotSet(m_theta=1.0, t_t=2.0))
        op = SemiDiscreteOperator(WallAssembly([(mat, 1.0)]), Grid1D(1.0, 5), groups,
                                  BoundaryForcing(side, side))
        assert 0.005 * op.gershgorin_lambda_max() < 0.5
        final = {h: rk4_run(op, ones_state(5), dt=h, tau=1.0).final_state
                 for h in (0.005, 0.0025, 0.0003125)}
        fine = final[0.0003125]
        errors = [max(np.max(np.abs(final[h].u - fine.u)), np.max(np.abs(final[h].v - fine.v)))
                  for h in (0.005, 0.0025)]
        assert 14.0 < errors[0] / errors[1] < 19.0


class TestDufortFrankel:
    def test_fixed_point_stays_put(self):
        op = diffusion_operator(robin=False)
        state = np.zeros((2, 9))
        report = dufort_frankel_run(op, state, dt=0.05, tau=5.0)
        assert np.max(np.abs(report.final_state.u)) < 1e-13
        assert report.rhs_evals == report.n_steps == 100

    def test_scalar_decay_matches_closed_form_recurrence(self):
        # rate 1, dt = 0.5 (> the Euler limit is not required): bootstrap
        # Euler step, then y_{n+1} = y_{n-1} (1 - dt)/(1 + dt)
        op = decay_operator(rate=1.0)
        report = dufort_frankel_run(op, ones_state(2), dt=0.5, tau=5.0)
        y_prev, y = 1.0, 1.0 - 0.5
        for _ in range(2, 11):
            y_prev, y = y, y_prev * (1 - 0.5) / (1 + 0.5)
        assert report.final_state.u == pytest.approx(np.full(2, y), rel=1e-13)
        assert np.all(np.abs(report.final_state.u) <= 1.0)

    def test_large_step_remains_bounded(self):
        op = diffusion_operator(robin=True)   # lambda_max ~ 4/dx^2
        state = np.array([1 + 0.5 * np.sin(np.linspace(0, 3, 9)), np.ones(9)])
        report = dufort_frankel_run(op, state, dt=0.05, tau=20.0)  # dt >> dt_exp
        assert np.max(np.abs(report.final_state.u)) < 2.0
        assert report.flags["box_violations"] == 0

    def test_remainder_substeps_flagged(self):
        op = decay_operator(rate=1.0)
        report = dufort_frankel_run(op, ones_state(2), dt=0.4, tau=1.0)
        assert report.n_steps == 3
        assert report.flags.get("remainder_substeps", 0) >= 1

    @pytest.mark.parametrize("linear", [True, False], ids=["linear", "nonlinear"])
    def test_steps_equal_row_expressions(self, linear):
        # The update as its formulas read, one row at a time and out of place.
        def case():
            if not linear:
                return nonlinear_operator(), nonlinear_state(), 70.0
            mat = CoefficientModel.constants("mat", 1.0, 0.5, 1.0, 1.0, 0.3)
            side = SideForcing.robin(lambda t: 0.5 + t, lambda t: 0.2)
            groups = DimensionlessGroups(fo_m=0.9, fo_t=0.7, gamma=0.2, delta=0.3,
                                         biot_left=BiotSet(m_theta=2.0, t_t=3.0),
                                         biot_right=BiotSet(m_theta=1.0, t_t=2.0))
            x = np.linspace(0.0, 1.0, 9)
            op = SemiDiscreteOperator(WallAssembly([(mat, 1.0)]), Grid1D(1.0, 9), groups,
                                      BoundaryForcing(side, side))
            return op, np.array([1.0 + 0.5 * np.sin(3 * x), np.cos(2 * x)]), 0.05

        op, state, dt = case()
        seen = []
        dufort_frankel_run(op, state, dt=dt, tau=8 * dt, observe=lambda t, y: seen.append(y.copy()))
        op = case()[0]
        y_prev = state.copy()
        y = y_prev + op.rhs(0.0, y_prev) * dt
        op.apply_constraints(dt, y)
        want = [y_prev, y]
        for k in range(2, 9):
            t = (k - 1) * dt
            if not linear or k == 2:
                b_uu, b_uv, b_vu, b_vv = op.jacobian_node_blocks(y[1])
                det = (1.0 + dt * b_uu) * (1.0 + dt * b_vv) - dt * dt * b_uv * b_vu
            (u_prev, v_prev), (u, v) = y_prev, y
            du, dv = op.rhs(max(0.0, t - dt), y)
            r_u = ((1.0 - dt * b_uu) * u_prev - dt * b_uv * v_prev
                   + 2.0 * dt * (du + b_uu * u + b_uv * v))
            r_v = (-dt * b_vu * u_prev + (1.0 - dt * b_vv) * v_prev
                   + 2.0 * dt * (dv + b_vu * u + b_vv * v))
            y_new = np.stack([((1.0 + dt * b_vv) * r_u - dt * b_uv * r_v) / det,
                              (-dt * b_vu * r_u + (1.0 + dt * b_uu) * r_v) / det])
            op.apply_constraints(k * dt, y_new)
            y_prev, y = y, y_new
            want.append(y)
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            assert np.array_equal(got, ref)

    def test_nonlinear_march_builds_no_dense_matrix(self, monkeypatch):
        calls = []
        dense = SemiDiscreteOperator.frozen_matrix

        def counted(self, *args, **kwargs):
            calls.append(self.n)
            return dense(self, *args, **kwargs)

        monkeypatch.setattr(SemiDiscreteOperator, "frozen_matrix", counted)
        op = nonlinear_operator()
        assert not op.is_linear
        report = dufort_frankel_run(op, nonlinear_state(), dt=70.0, tau=1000.0)
        assert report.n_steps == 15 and report.flags["remainder_substeps"] >= 1
        assert report.flags["box_violations"] == 0
        assert calls == []


class TestStsRun:
    def test_work_accounting_identity(self):
        op = diffusion_operator()
        sch = build_schedule("rkc", 6, 0.9 * 2.0 / op.gershgorin_lambda_max(), 0.05)
        report = sts_run(op, ones_state(9), sch, tau=40 * sch.dt_super)
        assert report.rhs_evals == sch.n_s * report.n_steps
        op2 = diffusion_operator()
        sch2 = build_schedule("rkl", 9, 0.9 * 2.0 / op2.gershgorin_lambda_max())
        report2 = sts_run(op2, ones_state(9), sch2, tau=17 * sch2.dt_super)
        assert report2.rhs_evals == sch2.n_s * report2.n_steps

    def test_remainder_cycle_counts_as_step(self):
        op = diffusion_operator()
        sch = build_schedule("rkl", 5, 0.9 * 2.0 / op.gershgorin_lambda_max())
        tau = 3.5 * sch.dt_super
        report = sts_run(op, ones_state(9), sch, tau=tau)
        assert report.n_steps == 4
        assert report.n_t == 4  # floor(3.5) + 1 regular nodes
        assert report.rhs_evals == 4 * sch.n_s

    def test_stale_schedule_rejected(self):
        op = diffusion_operator()
        lam = op.gershgorin_lambda_max()
        sch = build_schedule("rkc", 8, 2.0 / (0.5 * lam), 0.05)  # built for half the stiffness
        with pytest.raises(StaleScheduleError):
            sts_run(op, ones_state(9), sch, tau=1.0)

    @pytest.mark.parametrize("scheme,n_s", [("rkc", 4), ("rkc", 9), ("rkl", 4), ("rkl", 9)])
    def test_linear_cycle_equals_matrix_polynomial(self, scheme, n_s):
        # zero-forcing linear operator on a small grid: one cycle must equal
        # the stability polynomial applied as a matrix to the stacked state
        op = diffusion_operator(n=9, robin=True)
        a = op.frozen_matrix()
        lam = op.gershgorin_lambda_max()
        sch = build_schedule(scheme, n_s, 2.0 / lam,
                             0.05 if scheme == "rkc" else None)
        rng = np.random.default_rng(5)
        y0 = 0.5 + rng.random(2 * op.n)
        report = sts_run(op, y0.reshape(2, op.n), sch, tau=sch.dt_super)
        got = np.concatenate([report.final_state.u, report.final_state.v])

        eye = np.eye(2 * op.n)
        if scheme == "rkc":
            poly = eye.copy()
            for tau_k in sch.stage_steps:
                poly = (eye - tau_k * a) @ poly
        else:
            y_pp = eye
            y_p = eye - sch.rkl_mu_tilde[0] * sch.dt_super * a
            for j in range(2, n_s + 1):
                y_new = (sch.rkl_mu[j - 1] * y_p + sch.rkl_nu[j - 1] * y_pp
                         - sch.rkl_mu_tilde[j - 1] * sch.dt_super * (a @ y_p))
                y_pp, y_p = y_p, y_new
            poly = y_p
        want = poly @ y0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_super_step_counts_on_verification_steps(self):
        op = decay_operator(rate=1.0)
        sch = build_schedule("rkc", 10, 1.0 / 28000.0, damping=0.0)
        report = sts_run(op, ones_state(2), sch, tau=1.0)
        assert report.n_steps == 280
        assert report.n_t == 281
        sch = build_schedule("rkl", 20, 1.0 / 28000.0)
        report = sts_run(op, ones_state(2), sch, tau=1.0)
        assert report.n_steps == 134   # 133 full cycles + the landing cycle
        assert report.n_t == 134



def test_step_reaching_tau_is_always_observed():
    # four regular steps observed every third: the last one lands on tau
    # without a shortened step, and is still observed
    seen, states = [], []

    def observe(t, y):
        seen.append(t)
        states.append(y.copy())

    report = euler_run(decay_operator(rate=1.0), ones_state(2), dt=0.25, tau=1.0,
                       observe=observe, observe_every=3)
    assert report.n_steps == 4
    assert seen == [0.0, 0.75, 1.0]
    assert len(states) == 3 and np.array_equal(states[-1], np.asarray(report.final_state))
    assert np.array_equal(states[1], np.full((2, 2), 0.75**3))


@pytest.mark.parametrize("scheme", ["euler", "rk4", "df", "rkc", "rkl"])
def test_observers_receive_the_march_state(scheme):
    # every observation is the march's own (2, n) array; the one at tau
    # holds the rows of the report's final state
    op = diffusion_operator()
    dt = 0.4 / op.gershgorin_lambda_max()
    seen = []

    def observe(t, y):
        seen.append((t, y, y.copy()))

    y0 = np.array([1 + 0.5 * np.sin(np.linspace(0, 3, 9)), np.ones(9)])
    if scheme in ("rkc", "rkl"):
        sch = build_schedule(scheme, 4, 2.0 / op.gershgorin_lambda_max())
        report = sts_run(op, y0, sch, 2.5 * sch.dt_super, observe=observe)
    else:
        run = {"euler": euler_run, "rk4": rk4_run, "df": dufort_frankel_run}[scheme]
        report = run(op, y0, dt, 7.5 * dt, observe=observe)
    assert [t for t, _, _ in seen][0] == 0.0 and seen[-1][0] == report.tau
    assert len(seen) == report.n_steps + 1
    assert all(type(y) is np.ndarray and y.shape == (2, 9) for _, y, _ in seen)
    assert np.array_equal(seen[0][2], y0) and not np.shares_memory(seen[0][1], y0)
    t, y, kept = seen[-1]
    assert np.array_equal(kept, np.asarray(report.final_state))
    assert np.shares_memory(y, report.final_state.u) and np.shares_memory(y, report.final_state.v)


class TestInitialState:
    """The march refuses an initial state outside the monitor's divergence
    limits as input; one inside them runs, and only its steps count as box
    violations."""

    def test_outside_the_box_limits_is_a_config_error(self):
        op = decay_operator(rate=1.0)
        op.admissible_box = (0.0, 2.0, 0.0, 2.0)       # limits [-2, 4] on both rows
        for y0, extremes in (([[1.0, 4.5], [1.0, 1.0]], "u in [1, 4.5], v in [1, 1]"),
                             ([[1.0, 1.0], [-2.5, 1.0]], "u in [1, 1], v in [-2.5, 1]")):
            for run in (euler_run, rk4_run, dufort_frankel_run):
                with pytest.raises(ConfigError) as err:
                    run(op, np.array(y0), 0.1, 1.0)
                assert str(err.value) == (f"initial state has {extremes}: more than one box width "
                                          "outside the admissible box (0.0, 2.0, 0.0, 2.0)")

    def test_above_the_magnitude_limit_is_a_config_error(self):
        op = diffusion_operator()
        sch = build_schedule("rkl", 4, 2.0 / op.gershgorin_lambda_max())
        y0 = np.ones((2, 9))
        y0[0, 4] = 1e308
        with pytest.raises(ConfigError, match=r"^initial state has u in \[1, 1e\+308\], v in \[1, 1\]: "
                                              r"magnitude above 1e\+150$"):
            sts_run(op, y0, sch, 1.0)

    def test_inside_one_box_width_counts_only_steps(self):
        op = decay_operator(rate=1.0)
        op.admissible_box = (0.0, 2.0, 0.0, 2.0)
        # 3.9 decays by 0.9 a step: 3.51, 3.159, 2.8431, all above the box
        report = euler_run(op, np.array([[3.9, 3.9], [1.0, 1.0]]), dt=0.1, tau=0.3)
        assert report.n_steps == 3 and report.flags["box_violations"] == 3
        report = euler_run(op, np.array([[3.9, 3.9], [1.0, 1.0]]), dt=0.1, tau=0.0)
        assert report.n_steps == 0 and report.flags["box_violations"] == 0


def test_frozen_cycle_reads_dirichlet_data_once_per_time():
    # A frozen rkl cycle imposes its start values on n_s - 1 stages and its
    # end values on the last: each ambient function runs once per distinct
    # time, not once per stage.
    calls = {"u": [], "v": []}

    def counting(name, value):
        def fn(t):
            calls[name].append(t)
            return value
        return fn

    side = SideForcing.dirichlet(counting("u", 0.5), counting("v", 0.25))
    other = SideForcing.dirichlet(lambda t: 1.0, lambda t: 1.0)
    mat = CoefficientModel.constants("mat", 1.0, 0.0, 1.0, 1.0, 0.0)
    op = SemiDiscreteOperator(WallAssembly([(mat, 1.0)]), Grid1D(1.0, 9),
                              DimensionlessGroups(fo_m=1.0, fo_t=1.0), BoundaryForcing(side, other))
    imposed = []
    apply_constraints = op.apply_constraints

    def recording(t, y):
        imposed.append(t)
        apply_constraints(t, y)

    op.apply_constraints = recording
    sch = build_schedule("rkl", 8, 2.0 / op.gershgorin_lambda_max())
    report = sts_run(op, ones_state(9), sch, tau=3 * sch.dt_super)
    assert report.n_steps == 3 and len(imposed) == 3 * 8
    distinct = list(dict.fromkeys(imposed))
    assert len(distinct) <= 2 * 3
    assert calls["u"] == calls["v"] == distinct
    assert report.final_state.u[0] == 0.5 and report.final_state.v[0] == 0.25



def count_passes(monkeypatch):
    """List with one entry per coefficient pass; any dense frozen-matrix
    build fails the test."""
    passes = []
    coefficients = SemiDiscreteOperator._coefficients

    def counted(self, v):
        passes.append(self)
        return coefficients(self, v)

    def no_dense(self, *args, **kwargs):
        raise AssertionError("the march built the dense frozen matrix")

    monkeypatch.setattr(SemiDiscreteOperator, "_coefficients", counted)
    monkeypatch.setattr(SemiDiscreteOperator, "frozen_matrix", no_dense)
    return passes


def out_of_place_cycle(op, sch, t0, y):
    """One frozen super-step cycle with a new array for every operation.
    Constraint times are left at t0: the sides' data are constant."""
    if sch.scheme == "rkc":
        for tau_k in sch.stage_steps:
            y = y + tau_k * op.rhs(t0, y)
            op.apply_constraints(t0, y)
        return y
    mu, nu, mu_t, dt_s = sch.rkl_mu, sch.rkl_nu, sch.rkl_mu_tilde, sch.dt_super
    y_pp, y_p = y, y + mu_t[0] * dt_s * op.rhs(t0, y)
    op.apply_constraints(t0, y_p)
    for j in range(2, sch.n_s + 1):
        dy = op.rhs(t0, y_p)
        y_pp, y_p = y_p, mu[j - 1] * y_p + nu[j - 1] * y_pp + mu_t[j - 1] * dt_s * dy
        op.apply_constraints(t0, y_p)
    return y_p


SCHEMES = [("rkc", 10), ("rkl", 20)]


def nonlinear_schedule(scheme, n_s, margin):
    lam = nonlinear_operator().gershgorin_lambda_max(nonlinear_state()[1])
    return build_schedule(scheme, n_s, 2.0 / (margin * lam), 0.0 if scheme == "rkc" else None)


class TestCoefficientPasses:
    """A nonlinear super-step cycle makes n_s coefficient passes: the
    refresh's pass serves the first stage.  A Du Fort-Frankel step makes
    one, shared by its node blocks and its RHS."""

    @pytest.mark.parametrize("scheme,n_s", SCHEMES)
    def test_cycles_and_landing_make_n_s_passes(self, monkeypatch, scheme, n_s):
        sch = nonlinear_schedule(scheme, n_s, 1.5)
        passes = count_passes(monkeypatch)
        report = sts_run(nonlinear_operator(), nonlinear_state(), sch, tau=2.5 * sch.dt_super)
        assert report.n_steps == 3 and report.flags["schedule_rebuilds"] == 0  # 2 cycles, 1 landing
        assert report.rhs_evals == 3 * n_s
        assert len(passes) == 1 + 3 * n_s  # sts_run's stale-schedule check, then n_s per cycle

    @pytest.mark.parametrize("scheme,n_s", SCHEMES)
    def test_passes_after_a_schedule_rebuild(self, monkeypatch, scheme, n_s):
        sch = nonlinear_schedule(scheme, n_s, 1.0)
        bound = SemiDiscreteOperator.gershgorin_lambda_max
        calls = []

        def inflated(self, *args, **kwargs):
            # every refresh sees twice the stiffness of sts_run's own check
            calls.append(self)
            return bound(self, *args, **kwargs) * (2.0 if len(calls) > 1 else 1.0)

        monkeypatch.setattr(SemiDiscreteOperator, "gershgorin_lambda_max", inflated)
        passes = count_passes(monkeypatch)
        report = sts_run(nonlinear_operator(), nonlinear_state(), sch, tau=2.5 * sch.dt_super)
        assert report.flags["schedule_rebuilds"] >= 1 and report.n_steps > 3
        assert report.rhs_evals == report.n_steps * n_s
        assert len(passes) == 1 + report.n_steps * n_s

    def test_du_fort_frankel_step_makes_one_pass(self, monkeypatch):
        passes = count_passes(monkeypatch)
        report = dufort_frankel_run(nonlinear_operator(), nonlinear_state(), dt=70.0, tau=700.0)
        assert report.n_steps == 10 and "remainder_substeps" not in report.flags
        assert len(passes) == report.rhs_evals == 10  # the Euler start, then one per step

    @pytest.mark.parametrize("scheme,n_s", SCHEMES)
    def test_in_place_stages_match_out_of_place_cycles(self, scheme, n_s):
        sch = nonlinear_schedule(scheme, n_s, 1.5)
        state = nonlinear_state()
        y = state.copy()
        seen = []
        report = sts_run(nonlinear_operator(), state, sch, tau=3 * sch.dt_super,
                         observe=lambda t, y: seen.append(y.copy()))
        assert np.array_equal(state, y)
        assert report.n_steps == 3 and report.flags["schedule_rebuilds"] == 0
        op = nonlinear_operator()
        want = [y]
        for k in range(3):
            want.append(out_of_place_cycle(op, sch, k * sch.dt_super, want[-1]))
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            assert np.array_equal(got, ref)


def counted_bounds(monkeypatch, inflate=1.0, exact=False):
    """List with one entry per Gershgorin bound the march computes; every
    bound but sts_run's own check reads ``inflate`` times its value, and
    with ``exact`` no cycle may skip its refresh (the box bound is inf)."""
    calls = []
    bound = SemiDiscreteOperator.gershgorin_lambda_max

    def counted(self, *args, **kwargs):
        calls.append(self)
        return bound(self, *args, **kwargs) * (inflate if len(calls) > 1 else 1.0)

    monkeypatch.setattr(SemiDiscreteOperator, "gershgorin_lambda_max", counted)
    if exact:
        monkeypatch.setattr(SemiDiscreteOperator, "gershgorin_box_bound", lambda self: math.inf)
    return calls


class TestRefreshSkip:
    """A cycle whose state the monitor found inside the admissible box
    skips the refresh when the operator's bound over the box is within the
    schedule's design value; every other cycle refreshes exactly.  Either
    way the march is the one that refreshes every cycle, bit for bit."""

    def march(self, monkeypatch, scheme, n_s, schedule, box=None, inflate=1.0, exact=False):
        op = nonlinear_operator()
        if box is not None:
            op.admissible_box = box
        with monkeypatch.context() as mp:
            calls = counted_bounds(mp, inflate, exact)
            passes = count_passes(mp)
            report = sts_run(op, nonlinear_state(), schedule, tau=6.5 * schedule.dt_super)
        return report, len(calls), len(passes)

    def assert_same_march(self, got, want):
        (report, _, passes), (ref, _, ref_passes) = got, want
        assert np.asarray(report.final_state).tobytes() == np.asarray(ref.final_state).tobytes()
        assert (report.n_steps, report.rhs_evals, report.flags, passes) == (
            ref.n_steps, ref.rhs_evals, ref.flags, ref_passes)

    @pytest.mark.parametrize("scheme,n_s", SCHEMES)
    def test_cycles_inside_the_box_skip_the_refresh(self, monkeypatch, scheme, n_s):
        # the drying preset's schedule: 0.649x of its design value bounds every in-box state
        sch = build_schedule(scheme, n_s, 2.04, 0.0 if scheme == "rkc" else None)
        assert nonlinear_operator().gershgorin_box_bound() <= 0.65 * sch.design_lambda
        got = self.march(monkeypatch, scheme, n_s, sch)
        want = self.march(monkeypatch, scheme, n_s, sch, exact=True)
        assert got[0].n_steps == 7 and got[0].flags["box_violations"] == 0
        assert got[1] == 1 and want[1] == 7      # sts_run's check, then one refresh a cycle but the first
        self.assert_same_march(got, want)

    @pytest.mark.parametrize("scheme,n_s", SCHEMES)
    @pytest.mark.parametrize("case", ["outside the box", "design below the box bound"])
    def test_other_cycles_refresh_exactly(self, monkeypatch, scheme, n_s, case):
        # every refresh reads an inflated bound above the design value, so the
        # schedule is rebuilt (below the box bound in the second case)
        if case == "outside the box":   # rammed earth's v = 0.53 stays above v_max
            sch, box, inflate = (build_schedule(scheme, n_s, 2.04, 0.0 if scheme == "rkc" else None),
                                 (240.0, 320.0, 0.0, 0.5), 5.0)
        else:
            sch, box, inflate = nonlinear_schedule(scheme, n_s, 1.5), None, 2.0
            # its rebuilt design value, about 1.1 * 2 / 1.5 of the old one, stays below the box bound too
            assert nonlinear_operator().gershgorin_box_bound() > SAFETY_INFLATION * inflate / 1.5 * sch.design_lambda
        got = self.march(monkeypatch, scheme, n_s, sch, box, inflate)
        want = self.march(monkeypatch, scheme, n_s, sch, box, inflate, exact=True)
        assert got[0].flags["schedule_rebuilds"] >= 1
        assert got[0].flags["box_violations"] == (got[0].n_steps if box else 0)
        assert got[1] == want[1] == got[0].n_steps
        self.assert_same_march(got, want)


# Transcriptions of the steps with Python-float coefficients, a new RHS
# array per call and per-side Dirichlet writes; the steppers must give
# their bytes.

def float_euler_step(op, t, h, t_new, y):
    dy = op.rhs(t, y)
    y += np.multiply(dy, h, out=dy)
    op.apply_constraints(t_new, y)
    return y


def float_rk4_step(op, t, h, t_new, y):
    t_mid = t + 0.5 * h
    y_s = np.empty_like(y)
    k = total = op.rhs(t, y)
    for c, t_s in ((0.5, t_mid), (0.5, t_mid), (1.0, t_new)):
        np.add(y, np.multiply(k, c * h, out=y_s), out=y_s)
        if k is not total:
            total += np.multiply(k, 2.0, out=k)
        op.apply_constraints(t_s, y_s)
        k = op.rhs(t_s, y_s)
    total += k
    y += np.multiply(total, h / 6.0, out=total)
    op.apply_constraints(t_new, y)
    return y


def float_stamps(schedule, t0):
    return [t0] * (schedule.n_s - 1) + [t0 + schedule.dt_super]


def float_rkc_cycle(op, schedule, t0, y):
    for tau, t_k in zip(schedule.stage_steps.tolist(), float_stamps(schedule, t0)):
        dy = op.rhs(t0, y)
        y += np.multiply(dy, tau, out=dy)
        op.apply_constraints(t_k, y)
    return y


def float_rkl_cycle(op, schedule, t0, y):
    stamps = float_stamps(schedule, t0)
    mu, nu, mu_t = schedule.rkl_mu.tolist(), schedule.rkl_nu.tolist(), schedule.rkl_mu_tilde.tolist()
    dt_s = schedule.dt_super
    dy = op.rhs(t0, y)
    y_pp, y_p = y, np.add(y, np.multiply(dy, mu_t[0] * dt_s, out=dy), out=dy)
    op.apply_constraints(stamps[0], y_p)
    mu_y = np.empty_like(y)
    for j in range(2, schedule.n_s + 1):
        dy = op.rhs(t0, y_p)
        y_pp *= nu[j - 1]
        y_pp += np.multiply(mu[j - 1], y_p, out=mu_y)
        y_pp += np.multiply(dy, mu_t[j - 1] * dt_s, out=dy)
        y_pp, y_p = y_p, y_pp
        op.apply_constraints(stamps[j - 1], y_p)
    return y_p


def float_check(mon, step_index, t, y):
    """The monitor's check by two reductions, each with its own tolist()."""
    umin, vmin = np.minimum.reduce(y, axis=1).tolist()
    umax, vmax = np.maximum.reduce(y, axis=1).tolist()
    u_lo, u_hi, v_lo, v_hi = mon.limits
    if not (u_lo <= umin and umax <= u_hi and v_lo <= vmin and vmax <= v_hi):
        extremes = (umin, umax, vmin, vmax)
        cause = ("non-finite state" if not all(map(math.isfinite, extremes)) else
                 "u in [%.4g, %.4g], v in [%.4g, %.4g]: " % extremes + mon.limits_text)
        raise DivergenceError(mon.scheme, step_index, t, cause)
    if mon.box is not None:
        u_lo, u_hi, v_lo, v_hi = mon.box
        if umin < u_lo or umax > u_hi or vmin < v_lo or vmax > v_hi:
            mon.box_violations += 1


def forced_operator(kind):
    """A two-material wall with time-dependent forcing: Robin on both sides,
    Dirichlet on both, or Robin left and Dirichlet right; or the nonlinear
    ins_re wall."""
    if kind == "nonlinear":
        return nonlinear_operator()
    robin = SideForcing.robin(lambda t: 1.0 + 0.3 * math.sin(3.0 * t), lambda t: 0.5 + 0.2 * math.cos(2.0 * t))
    dirichlet = SideForcing.dirichlet(lambda t: 1.2 + 0.1 * math.sin(t), lambda t: 0.4 + 0.1 * math.cos(t))
    left, right = {"robin": (robin, robin), "dirichlet": (dirichlet, dirichlet),
                   "mixed": (robin, dirichlet)}[kind]
    biot = BiotSet(m_theta=2.0, t_t=3.0, t_theta=0.5)
    groups = DimensionlessGroups(fo_m=0.09, fo_t=0.07, gamma=0.3, delta=0.2, biot_left=biot, biot_right=biot)
    wall = WallAssembly([(builtin_material("table1_mat1"), 0.6), (builtin_material("table1_mat2"), 0.4)])
    return SemiDiscreteOperator(wall, Grid1D(1.0, 21), groups, BoundaryForcing(left, right))


@st.composite
def step_cases(draw):
    """(operator, state, t, step): a random state of a forced operator and a
    step a random fraction of its explicit limit."""
    kind = draw(st.sampled_from(["robin", "dirichlet", "mixed", "nonlinear"]))
    op = forced_operator(kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "nonlinear":     # the drying study's start, perturbed
        y = nonlinear_state() + rng.random((2, op.n)) * [[2.0], [0.01]]
    else:
        y = 0.5 + rng.random((2, op.n))
    h = draw(st.floats(0.05, 0.95)) * 2.0 / op.gershgorin_lambda_max(y[1])
    return op, y, draw(st.floats(0.0, 5.0)), h


step_settings = settings(derandomize=True, max_examples=30, deadline=None)


class TestFloatTranscriptions:
    """Steps with cached 0-d coefficients, positional outputs and owned RHS
    buffers give the bytes of the Python-float steps."""

    @step_settings
    @given(step_cases())
    def test_euler_steps(self, case):
        op, y, t, h = case
        stepper, got, want = _EulerStep(op, h), y.copy(), y.copy()
        for t0, step in ((t, h), (t + h, h), (t + 2 * h, 0.3 * h)):     # a regular step again, a landing
            got = stepper.step(t0, step, t0 + step, got)
            want = float_euler_step(op, t0, step, t0 + step, want)
            assert got.tobytes() == want.tobytes()

    @step_settings
    @given(step_cases())
    def test_rk4_steps(self, case):
        op, y, t, h = case
        stepper, got, want = _RK4Step(op, h), y.copy(), y.copy()
        for t0, step in ((t, h), (t + h, h), (t + 2 * h, 0.3 * h)):
            got = stepper.step(t0, step, t0 + step, got)
            want = float_rk4_step(op, t0, step, t0 + step, want)
            assert got.tobytes() == want.tobytes()

    @step_settings
    @given(step_cases(), st.sampled_from([("rkc", 0.0), ("rkc", 0.05), ("rkl", None)]),
           st.integers(1, 12), st.floats(0.1, 0.99))
    def test_cycles_and_scaled_landing(self, case, scheme, n_s, fraction):
        op, y, t, h = case
        name, damping = scheme
        sch = build_schedule(name, n_s, h, damping)
        cycle = float_rkc_cycle if name == "rkc" else float_rkl_cycle
        stepper, got, want = _SuperStep(op, sch), y.copy(), y.copy()
        t1, t2 = t + sch.dt_super, t + 2 * sch.dt_super
        for t0, t_new in ((t, t1), (t1, t2)):
            got = stepper.step(t0, sch.dt_super, t_new, got)
            want = cycle(op, sch, t0, want)
            assert got.tobytes() == want.tobytes()
        landing = fraction * sch.dt_super
        got = stepper.land(t2, landing, t2 + landing, got)
        want = cycle(op, sch.scaled(landing / sch.dt_super), t2, want)
        assert got.tobytes() == want.tobytes()


class TestMonitor:
    """The check into a preallocated (2, 2) buffer agrees with two separate
    reductions: the same box violations, the same divergence message."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.booleans(), st.integers(0, 2**32 - 1),
           st.sampled_from([None, math.nan, math.inf, -math.inf, 5.0, -3.0, 1e151, -1e151]),
           st.integers(0, 1), st.integers(0, 7))
    def test_matches_two_reductions(self, boxed, seed, special, row, col):
        op = diffusion_operator(n=8)
        op.admissible_box = (0.0, 2.0, 0.0, 1.0) if boxed else None
        y = np.random.default_rng(seed).uniform(-0.5, 2.5, (2, 8))
        if special is not None:
            y[row, col] = special
        mon, ref = _Monitor(op.admissible_box, "rkl", None, 1), _Monitor(op.admissible_box, "rkl", None, 1)
        try:
            float_check(ref, 4, 0.25, y)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as err:
                mon.check(4, 0.25, y)
            assert str(err.value) == str(exc)
        else:
            mon.check(4, 0.25, y)
            assert mon.inside == (boxed and not ref.box_violations)
        assert mon.box_violations == ref.box_violations
