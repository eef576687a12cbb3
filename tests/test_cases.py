import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from stswall import cases, integrators
from stswall.cases import (
    VERIFICATION_DT_EULER, emit_outputs, physical_preset,
    physical_step_counts, run_ns_sweep, run_physical_case, run_verification_case, verification_preset,
)
from stswall.cli import main
from stswall.config import MAX_STEPS, load_config
from stswall.errors import ConfigError, DivergenceError
from stswall.metrics import ComparisonRecord
from stswall.model import (
    BoundaryForcing, CoefficientModel, DimensionlessGroups, Grid1D, SideForcing, WallAssembly,
    builtin_material,
)
from stswall.operator import SemiDiscreteOperator
from stswall.series import ingest_boundary_series, write_synthetic_climate

DAY_S = 86400.0


# a nonlinear wall whose middle and right-end layers are one cell thick (the
# case file of CI's "Command-line exit codes" step)
ONE_CELL_INI = """
    [case]
    kind = verification
    [grid]
    dx = 0.1
    [time]
    tau = 0.01
    dt_euler = 1e-4
    dt_df = 1e-3
    [groups]
    fo_m = 0.09
    fo_t = 0.07
    gamma = 0.07
    delta = 0.05
    [materials]
    a.d_theta = 0.3, 0.1
    a.d_t = 2.1
    a.c_t = 0.1, 0.2
    a.k_t = 0.5, 0.3
    a.k_tm = 0.4
    b.d_theta = 0.1
    b.d_t = 3.2, 0.5
    b.c_t = 0.3, 0.1
    b.k_t = 0.2, 0.4
    b.k_tm = 0.1
    [wall]
    layers = a:0.5, b:0.1, a:0.3, b:0.1
    [initial]
    u = 1.0, 1.5, 0.8, 1.2
    v = 0.5, 0.9, 0.3, 0.7
    [biot.left]
    m_theta = 0.5
    t_t = 0.7
    [biot.right]
    m_theta = 0.5
    t_t = 0.7
    [forcing.left]
    u = 1.2
    v = 0.4
    [forcing.right]
    """


def short_verification(tau=0.02):
    """Preset shrunk to a fast horizon; step sizes keep their published values."""
    cfg = verification_preset()
    cfg.tau = tau
    return cfg


def scrub(obj):
    """Drop timing fields from a manifest for determinism comparisons."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items()
                if k != "created_at" and "cpu" not in k}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


@pytest.fixture
def rk4_reference(monkeypatch):
    """Every case takes the RK4 reference: no operator fits the exact one."""
    monkeypatch.setattr(cases, "EXPM_MAX_SIZE", 0)


@pytest.fixture
def propagator_calls(monkeypatch):
    """The step of each exponential the exact reference makes, in order."""
    calls = []
    propagator = integrators._ExactStep.propagator

    def counting(self, h):
        calls.append(h)
        return propagator(self, h)

    monkeypatch.setattr(integrators._ExactStep, "propagator", counting)
    return calls


class TestVerificationPreset:
    def test_constants_match_the_published_setup(self):
        # an independent transcription of the published groups, Biot numbers,
        # grid, horizon, thicknesses and forcing amplitudes and periods
        cfg = verification_preset()
        groups = cfg.groups
        assert (groups.fo_t, groups.fo_m, groups.gamma, groups.delta) == (7e-2, 9e-2, 7e-2, 5e-2)
        for biot, want in ((groups.biot_left, (25.5, 50.5, 0.496, 0.0)),
                           (groups.biot_right, (51.8, 19.8, 0.673, 0.0))):
            assert (biot.m_theta, biot.t_t, biot.t_theta, biot.t_g) == want
        assert (cfg.dx, cfg.tau) == (1e-2, 1.0)
        assert [th for _, th in cfg.layers] == [0.6, 0.4]
        left, right = cfg.forcing_left, cfg.forcing_right
        probes = [(left.u_inf, 0.6, 5), (left.v_inf, 0.2, 2), (right.u_inf, 0.5, 3), (right.v_inf, 0.9, 6)]
        for fn, amplitude, period in probes:
            for t in (0.0, 0.33, 1.25, 2.4, 0.97):
                want = 1 + amplitude * math.sin(2 * math.pi * t / period) ** 2
                assert fn(t) == pytest.approx(want, abs=1e-12)

    def test_published_step_sizes(self):
        cfg = verification_preset()
        assert cfg.dt_euler == pytest.approx(1 / 28000)
        assert cfg.dt_df == 1e-3
        assert cfg.ns == {"rkc": 10, "rkl": 20}
        assert cfg.damping_rkc == 0.0


class TestVerificationRun:
    def test_outputs_and_counts(self, tmp_path):
        cfg = short_verification()
        res = run_verification_case(cfg, tmp_path)
        assert not res.failures
        files = sorted(os.listdir(tmp_path))
        traj = [f for f in files if f.endswith("_u.csv") or f.endswith("_v.csv")]
        assert len(traj) == 8    # u and v at final time for each scheme
        assert "manifest.json" in files and "comparison.csv" in files
        assert len(files) == 10
        schemes = [rec.scheme for rec in res.records]
        assert schemes == ["euler", "df", "rkc", "rkl"]
        euler = res.reports["euler"]
        assert euler.n_steps == round(cfg.tau * 28000)
        assert res.records[0].rho_ndt_pct == 100.0

    def test_zero_horizon_returns_immediately(self, tmp_path):
        cfg = short_verification(tau=0.0)
        res = run_verification_case(cfg, tmp_path)
        for rec in res.records:
            assert rec.epsinf_u == 0.0 and rec.epsinf_v == 0.0
            assert rec.scd_u == 16.0

    def test_determinism_excluding_timings(self, tmp_path):
        cfg = short_verification()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_verification_case(cfg, out1)
        run_verification_case(short_verification(), out2)
        for name in os.listdir(out1):
            p1, p2 = out1 / name, out2 / name
            if name == "manifest.json":
                m1 = scrub(json.loads(p1.read_text()))
                m2 = scrub(json.loads(p2.read_text()))
                assert m1 == m2
            elif name == "comparison.csv":
                rows1 = [r.split(",") for r in p1.read_text().splitlines()]
                rows2 = [r.split(",") for r in p2.read_text().splitlines()]
                for r1, r2 in zip(rows1, rows2):
                    assert r1[:10] == r2[:10]   # timing columns excluded
            else:
                assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_contents(self, tmp_path):
        cfg = short_verification()
        run_verification_case(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["groups"]["fo_t"] == 0.07
        assert manifest["groups"]["biot_left"]["m_theta"] == 25.5
        assert manifest["schedules"]["rkc"]["n_s"] == 10
        assert set(manifest["runs"]) == {"euler", "df", "rkc", "rkl"}
        assert manifest["reference"]["dt"] == 2 * cfg.dt_euler

    def test_matrix_dump_requested(self, tmp_path):
        cfg = short_verification(tau=0.005)
        cfg.schemes = ["euler"]
        cfg.dump_matrix = True
        run_verification_case(cfg, tmp_path)
        assert (tmp_path / "operator_matrix.txt").exists()

    @pytest.mark.parametrize("preset,run,length", [
        (verification_preset, run_verification_case, "1.0"),
        (physical_preset, run_physical_case, "0.625")], ids=["verify", "physical"])
    @pytest.mark.parametrize("dx", [1e-300, 1e-320])
    def test_tiny_dx_is_refused_before_any_grid_is_made(self, tmp_path, preset, run, length, dx):
        # np.linspace raised "Maximum allowed size exceeded" at 1e-300 and
        # round(inf) an OverflowError at 1e-320
        cfg = preset()
        cfg.dx = dx
        with pytest.raises(ConfigError, match=rf"dx={dx!r} on the wall length {length} makes .* nodes, "
                                              rf"more than {cases.MAX_NODES}"):
            run(cfg, tmp_path)

    def test_ratios_without_euler_are_taken_against_the_first_scheme(self, tmp_path):
        cfg = short_verification()
        cfg.schemes = ["df", "rkl"]
        res = run_verification_case(cfg, tmp_path)
        df, rkl = res.records
        assert df.rho_ndt_pct == 100.0
        assert rkl.rho_ndt_pct == 100.0 * res.reports["rkl"].n_steps / res.reports["df"].n_steps
        assert rkl.rho_ndt_pct < 100.0


class TestSweep:
    def test_rows_and_monotone_counts(self, tmp_path):
        cfg = short_verification(tau=0.05)
        cfg.sweep_ns = [5, 10]
        res = run_ns_sweep(cfg, out_dir=tmp_path)
        assert not res.failures
        by_scheme = {}
        for row in res.rows:
            by_scheme.setdefault(row[0], []).append(row)
        for scheme, rows in by_scheme.items():
            dts = [row[2] for row in rows]
            steps = [row[3] for row in rows]
            rhos = [row[4] for row in rows]
            assert dts == sorted(dts)                     # dt_super grows with n_s
            assert steps == sorted(steps, reverse=True)   # step counts shrink
            assert rhos == sorted(rhos, reverse=True)
        assert (tmp_path / "sweep.csv").exists()
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header.startswith("scheme,N_S,dt,n_steps")

    def test_slopes_reported(self, tmp_path):
        cfg = short_verification(tau=0.05)
        cfg.sweep_ns = [5, 10, 20]
        res = run_ns_sweep(cfg, out_dir=tmp_path)
        assert set(res.slopes) == {"rkc", "rkl"}
        for slope in res.slopes.values():
            assert "u" in slope and "v" in slope

    def test_diverged_row_is_empty_and_left_out_of_the_fit(self, tmp_path, capsys, monkeypatch):
        run = cases.sts_run

        def diverging_rkc_8(op, state0, schedule, tau, **kwargs):
            if (schedule.scheme, schedule.n_s) == ("rkc", 8):
                raise DivergenceError("rkc", 2, 2 * schedule.dt_super)
            return run(op, state0, schedule, tau, **kwargs)

        monkeypatch.setattr(cases, "sts_run", diverging_rkc_8)
        out = tmp_path / "out"
        assert main(["sweep", "--tau", "0.005", "--ns", "4,8,16", "--out", str(out)]) == 2
        assert "FAILED rkc-8: rkc run diverged" in capsys.readouterr().err
        rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[1], row[-1]) for row in rows] == [
            ("rkc", "4", "ok"), ("rkc", "8", "diverged"), ("rkc", "16", "ok"),
            ("rkl", "4", "ok"), ("rkl", "8", "ok"), ("rkl", "16", "ok")]
        assert float(rows[1][2]) > 0 and rows[1][3:-1] == [""] * 5
        # the rkc slope is the line through the two ok rows
        ns, eu, ev = (np.array([float(rows[k][j]) for k in (0, 2)]) for j in (1, 5, 6))
        slopes = json.loads((out / "manifest.json").read_text())["slopes"]
        assert slopes["rkc"]["u"] == pytest.approx(np.diff(np.log(eu))[0] / np.diff(np.log(ns))[0], rel=1e-9)
        assert slopes["rkc"]["v"] == pytest.approx(np.diff(np.log(ev))[0] / np.diff(np.log(ns))[0], rel=1e-9)

    def test_zero_errors_fit_no_slope(self, tmp_path):
        # tau = 0: every row is ok with zero errors, which have no logarithm
        cfg = short_verification(tau=0.0)
        cfg.sweep_ns = [4, 8]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_ns_sweep(cfg, out_dir=tmp_path)
        assert all(row[-1] == "ok" and row[5] == row[6] == 0.0 for row in res.rows)
        assert res.slopes == {}

        def reject(constant):
            raise ValueError(f"manifest holds {constant}")
        assert json.loads((tmp_path / "manifest.json").read_text(), parse_constant=reject)["slopes"] == {}


def _perfbench_reference():
    """The benchmark's independent scipy transcription of the verification case."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def observed_reference_rows(monkeypatch, runner, tau):
    """Wrap ``cases.<runner>`` so that it copies every state the reference
    observes, and check that the reference keeps exactly those rows."""
    seen = []
    run = getattr(cases, runner)

    def observing(op, y0, step, tau, observe=None, observe_every=1):
        def both(t, y):
            seen.append((t, y.copy()))
            observe(t, y)
        return run(op, y0, step, tau, both, observe_every)

    monkeypatch.setattr(cases, runner, observing)
    reference = cases._oracle(cases._dimensionless_domain(short_verification(tau=tau)))[0]
    want = np.stack([state for _, state in seen])
    assert reference.times.tolist() == [t for t, _ in seen]
    assert reference.y.shape == want.shape and reference.y.tobytes() == want.tobytes()


class TestOracle:
    def test_matches_independent_radau_solution(self, tmp_path):
        cfg = short_verification(tau=0.005)
        res = run_verification_case(cfg, tmp_path)
        assert res.manifest["reference"]["method"] == "expm"
        _, u, v = _perfbench_reference().verify_reference(cfg.initial_u, cfg.initial_v, cfg.tau)
        assert np.max(np.abs(res.reference.u - u)) <= 1e-9
        assert np.max(np.abs(res.reference.v - v)) <= 1e-9

    def test_step_doubling_gap_on_preset(self, tmp_path, rk4_reference):
        # the companion takes the coarsest step of the reference's h lambda <= 2.5 rule,
        # and its estimate reads within [1, 3]x the error against an RK4 run at h/8
        cfg = short_verification(tau=0.005)
        res = run_verification_case(cfg, tmp_path)
        check = res.manifest["reference"]
        assert check["method"] == "rk4"
        dom = cases._dimensionless_domain(cfg)
        lam = dom.operator().gershgorin_lambda_max(dom.state0[1])
        assert check["richardson_dt"] == cfg.tau / math.ceil(cfg.tau * lam / 2.5) >= 1.25 * check["dt"]
        fine = cases.rk4_run(dom.operator(), dom.state0, check["dt"] / 8.0, cfg.tau).final_state
        true_error = np.max(np.abs([fine.u - res.reference.u, fine.v - res.reference.v]))
        assert 1.0 <= check["richardson_gap"] / true_error <= 3.0
        assert check["richardson_gap"] < 1e-9

    def test_half_step_companion_when_the_coarse_step_is_close_to_h(self, rk4_reference):
        cfg = short_verification(tau=0.005)
        dom = cases._dimensionless_domain(cfg)
        # 2 dt lambda = 2.2: h is 2 dt made whole in tau (50 steps), and the coarsest
        # stable step is below 1.25 h
        cfg.dt_euler = 1.1 / dom.operator().gershgorin_lambda_max(dom.state0[1])
        _, report, check = cases._oracle(dom, check=True)
        assert report.scheme == "rk4" and report.dt == cfg.tau / 50 < 2.0 * cfg.dt_euler
        assert check["richardson_dt"] == report.dt / 2.0
        half = cases.rk4_run(dom.operator(), dom.state0, report.dt / 2.0, cfg.tau).final_state
        ref = report.final_state
        want = 16.0 / 15.0 * np.max(np.abs([half.u - ref.u, half.v - ref.v]))
        assert want > 0 and math.isclose(check["richardson_gap"], want, rel_tol=1e-15)

    @pytest.mark.parametrize("tau", [1e-5, 2.2e-4, 0.0123, 0.005], ids=["1e-5", "2.2e-4", "0.0123", "0.005"])
    def test_rk4_reference_takes_whole_steps(self, tau, rk4_reference):
        # h divides tau into the fewest whole steps no longer than 2 dt; the companion
        # takes the coarsest step of the 2.5 rule, or h/2 when that is below 1.25 h
        # (at 1e-5 and 2.2e-4)
        cfg = short_verification(tau=tau)
        dom = cases._dimensionless_domain(cfg)
        _, report, check = cases._oracle(dom, check=True)
        h = report.dt
        assert report.scheme == "rk4" and (report.n_steps - 1) * 2.0 * cfg.dt_euler < tau
        assert math.isclose(h * report.n_steps, tau, rel_tol=1e-12) and report.rhs_evals == 4 * report.n_steps
        coarse = tau / math.ceil(tau * dom.operator().gershgorin_lambda_max(dom.state0[1]) / 2.5)
        assert check["richardson_dt"] == (coarse if coarse >= 1.25 * h else h / 2.0)
        other = cases.rk4_run(dom.operator(), dom.state0, check["richardson_dt"], tau).final_state
        want = np.max(np.abs(np.subtract(other, report.final_state))) / abs((check["richardson_dt"] / h) ** 4 - 1)
        assert want > 0 and math.isclose(check["richardson_gap"], want, rel_tol=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 1e-5, 0.005])
    def test_reference_states_are_the_observed_rows(self, monkeypatch, tau, rk4_reference):
        observed_reference_rows(monkeypatch, "rk4_run", tau)

    @pytest.mark.parametrize("tau", [0.0, 1e-5, 0.005, 0.2])
    def test_exact_reference_states_are_the_observed_rows(self, monkeypatch, tau):
        # at tau = 0.2 the stride is 3: every third state of the march and the last
        observed_reference_rows(monkeypatch, "_march", tau)

    def test_zero_horizon_has_zero_gap(self):
        cfg = short_verification(tau=0.0)
        _, report, check = cases._oracle(cases._dimensionless_domain(cfg), check=True)
        assert report.scheme == "expm" and report.dt == 2.0 * cfg.dt_euler
        assert check == {"richardson_gap": 0.0, "richardson_dt": 2.0 * report.dt}

    def test_zero_horizon_has_zero_rk4_gap(self, rk4_reference):
        cfg = short_verification(tau=0.0)
        _, report, check = cases._oracle(cases._dimensionless_domain(cfg), check=True)
        assert report.scheme == "rk4" and report.dt == 2.0 * cfg.dt_euler
        assert check == {"richardson_gap": 0.0, "richardson_dt": report.dt / 2.0}

    def test_self_check_warns_of_a_gap_above_1e_5(self, tmp_path, caplog):
        # the nonlinear one-cell wall takes the RK4 reference at h = 2 dt = tau, one
        # step, and its companion at h/2; they end 5.96e-4 apart after the r^4 - 1 scaling
        ini = tmp_path / "one_cell.ini"
        ini.write_text(textwrap.dedent(ONE_CELL_INI))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(ini), "--dt", "5e-3", "--scheme", "euler", "--out", str(out)]) == 0
        reference = json.loads((out / "manifest.json").read_text())["reference"]
        assert reference["method"] == "rk4" and reference["dt"] == 0.01 and reference["richardson_dt"] == 0.005
        assert round(reference["richardson_gap"], 6) == 5.96e-4
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"reference self-check: Richardson gap {reference['richardson_gap']:.3e} exceeds 1e-5")]

    def test_falls_back_to_euler_step_outside_rk4_margin(self, tmp_path, rk4_reference):
        self.check_euler_step_fallback(tmp_path, "rk4")

    def test_exact_reference_falls_back_to_euler_step_too(self, tmp_path):
        self.check_euler_step_fallback(tmp_path, "expm")

    @staticmethod
    def check_euler_step_fallback(tmp_path, method):
        cfg = short_verification(tau=0.005)
        cfg.schemes = ["euler"]
        dom = cases._build_domain(cfg, BoundaryForcing(cfg.forcing_left, cfg.forcing_right),
                                  cfg.groups)
        # 2 dt lambda = 3 is outside RK4's margin of 2.5; dt lambda = 1.5 is a stable Euler
        # step, which h makes whole in tau (an even count of steps for the exact reference)
        cfg.dt_euler = 1.5 / dom.operator().gershgorin_lambda_max(dom.state0[1])
        res = run_verification_case(cfg, tmp_path)
        assert res.manifest["reference"]["method"] == method
        count = 2 if method == "expm" else 1
        assert res.manifest["reference"]["dt"] == cfg.tau / (count * math.ceil(cfg.tau / (count * cfg.dt_euler)))
        assert res.reports["euler"].dt == cfg.dt_euler


class TestExactReference:
    """The exact reference of a linear case with two Robin sides, and its
    step-doubling self-check."""

    def test_gap_reads_the_true_error(self):
        # Against an RK4 run at h/8 (itself about 2e-14 off) the exact reference
        # is 6.8e-12 off, a thirteenth of the RK4 reference's 9e-11, and its gap
        # reads 0.91x that.
        cfg = short_verification(tau=0.005)
        dom = cases._dimensionless_domain(cfg)
        _, report, check = cases._oracle(dom, check=True)
        assert report.scheme == "expm" and report.n_steps == 70
        assert check["richardson_dt"] == 2.0 * report.dt == 4.0 * cfg.dt_euler
        fine = cases.rk4_run(dom.operator(), dom.state0, report.dt / 8.0, cfg.tau).final_state
        true_error = float(np.max(np.abs(np.subtract(fine, report.final_state))))
        assert true_error < 2e-11
        assert 0.5 <= check["richardson_gap"] / true_error <= 2.0

    @pytest.mark.parametrize("tau", [1e-5, *(k * VERIFICATION_DT_EULER for k in (3, 6, 9, 10)), 2.2e-4, 0.0123, 0.005],
                             ids=["1e-5", "3dt", "6dt", "9dt", "10dt", "2.2e-4", "0.0123", "0.005"])
    def test_paired_whole_steps(self, propagator_calls, tau):
        # h divides tau into the fewest even count of whole steps no longer than 2 dt,
        # all paired, from one exponential and no RHS call, and the gap reads the error
        # against RK4 at h/8 (at 1e-5 both are round-off: a gap of 3e-17)
        cfg = short_verification(tau=tau)
        dom = cases._dimensionless_domain(cfg)
        _, report, check = cases._oracle(dom, check=True)
        assert report.scheme == "expm" and report.n_steps % 2 == 0
        assert (report.n_steps - 2) * 2.0 * cfg.dt_euler < cfg.tau
        assert math.isclose(report.dt * report.n_steps, cfg.tau, rel_tol=1e-12)
        assert report.rhs_evals == 0 and propagator_calls == [report.dt]
        assert check["richardson_dt"] == 2.0 * report.dt
        fine = cases.rk4_run(dom.operator(), dom.state0, report.dt / 8.0, cfg.tau).final_state
        true_error = float(np.max(np.abs(np.subtract(fine, report.final_state))))
        if true_error > 1e-13:
            assert 0.5 <= check["richardson_gap"] / true_error <= 2.0
        else:
            assert 0.0 < check["richardson_gap"] < 1e-13

    def test_a_landing_is_the_last_whole_step(self, monkeypatch, propagator_calls):
        # past about 10^6 steps the last whole step can round short of fitting in
        # _march's slack, which then lands it: forced here, it is the same step, with
        # the same propagator
        want = cases._oracle(cases._dimensionless_domain(short_verification(tau=0.005)), check=True)
        fits, landings = integrators._full_step_fits, []

        def short_of_the_last(t, dt, tau, tol=None):
            if tau - t < 1.5 * dt:
                landings.append(t)
                return False
            return fits(t, dt, tau, tol)

        monkeypatch.setattr(integrators, "_full_step_fits", short_of_the_last)
        got = cases._oracle(cases._dimensionless_domain(short_verification(tau=0.005)), check=True)
        assert len(landings) == 1 and got[1].n_steps == want[1].n_steps == 70
        assert propagator_calls == [want[1].dt] * 2         # one for each reference
        assert np.asarray(got[1].final_state).tobytes() == np.asarray(want[1].final_state).tobytes()
        assert got[2] == want[2]

    def test_a_sliver_past_the_last_pair_is_dropped(self):
        # past about 10^7 steps m h can round short of tau by more than _march's
        # slack, which then lands the sliver left; here the sliver is 1e-8 h
        dom = cases._dimensionless_domain(short_verification(tau=0.0))
        op, h = dom.operator(), 2.0 * VERIFICATION_DT_EULER
        whole, stepper = (integrators._ExactStep(op, h, dom.state0, 2) for _ in range(2))
        want = integrators._march(op, dom.state0, whole, 2.0 * h, None, 1)
        got = integrators._march(op, dom.state0, stepper, 2.0 * h * (1.0 + 1e-8), None, 1)
        assert (want.n_steps, got.n_steps, stepper.count) == (2, 3, 2)
        assert np.asarray(got.final_state).tobytes() == np.asarray(want.final_state).tobytes()
        assert stepper.yz.tobytes() == whole.yz.tobytes()

    @pytest.fixture
    def forcing_rows(self, monkeypatch):
        """The (k, 2) Gauss times of each block the exact reference samples, in order."""
        rows, forcing_at = [], SemiDiscreteOperator.boundary_forcing_at

        def recorded(op, times):
            rows.append(times.copy())
            return forcing_at(op, times)

        monkeypatch.setattr(SemiDiscreteOperator, "boundary_forcing_at", recorded)
        return rows

    @pytest.mark.parametrize("block", [6, 7])
    def test_blocks_that_do_not_divide_the_steps(self, monkeypatch, forcing_rows, block):
        # 70 steps in blocks of 6, or of 7, whose pairs straddle blocks: each
        # step's Gauss times are sampled once, none past tau, and the reference
        # and its check are those of one block, bit for bit
        want = cases._oracle(cases._dimensionless_domain(short_verification(tau=0.005)), check=True)
        monkeypatch.setattr(integrators._ExactStep, "BLOCK", block)
        del forcing_rows[:]
        got = cases._oracle(cases._dimensionless_domain(short_verification(tau=0.005)), check=True)
        h, gauss = got[1].dt, (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
        assert got[1].n_steps == 70 and max(map(len, forcing_rows)) == block
        sampled = np.concatenate(forcing_rows)
        assert sampled.tobytes() == ((np.arange(70) * h)[:, None] + np.multiply(gauss, h)).tobytes()
        assert np.asarray(got[1].final_state).tobytes() == np.asarray(want[1].final_state).tobytes()
        assert got[0].y.tobytes() == want[0].y.tobytes() and got[2] == want[2]

    def test_tau_zero_samples_nothing(self, forcing_rows):
        dom = cases._dimensionless_domain(short_verification(tau=0.0))
        reference, report, check = cases._oracle(dom, check=True)
        assert report.scheme == "expm" and report.n_steps == 0 and forcing_rows == []
        assert np.asarray(report.final_state).tobytes() == dom.state0.tobytes()
        assert check["richardson_gap"] == 0.0

    LOG_INI = """\
        [case]
        kind = verification
        [grid]
        dx = 0.1
        [time]
        tau = 0.01
        dt_euler = 1e-4
        dt_df = 1e-3
        [groups]
        fo_m = 0.09
        fo_t = 0.07
        [materials]
        m1 = table1_mat1
        [wall]
        layers = m1:1.0
        [forcing.right]
        [forcing.left]
        u = {u}
        """

    def test_forcing_that_fails_before_tau_raises_at_the_step_that_reaches_it(
            self, tmp_path, monkeypatch, forcing_rows):
        # h = 2e-4: the step from 0.005 is the first to sample past the log's
        # singularity, at its first Gauss node
        ini = tmp_path / "log.ini"
        ini.write_text(textwrap.dedent(self.LOG_INI.format(u="1 + log(0.005 - t)")))
        started, step = [], integrators._ExactStep.step

        def counted(stepper, t, h, t_new, y):
            started.append(t)
            return step(stepper, t, h, t_new, y)

        monkeypatch.setattr(integrators._ExactStep, "step", counted)
        with pytest.raises(ConfigError) as err:
            run_verification_case(load_config(str(ini)), tmp_path / "out")
        assert str(err.value) == ("forcing expression '1 + log(0.005 - t)' fails at "
                                  "t=0.005042264973081038: math domain error")
        assert len(started) == 26 and started[-1] == 25 * (0.01 / 50)
        # asked for all 50 steps, the block keeps 25; the step from 0.005 asks again and raises
        assert [len(rows) for rows in forcing_rows] == [50, 25] and forcing_rows[1][0, 0] == 0.005042264973081038

    def test_forcing_that_fails_past_tau_is_not_sampled(self, tmp_path, forcing_rows):
        ini = tmp_path / "log.ini"
        ini.write_text(textwrap.dedent(self.LOG_INI.format(u="log(0.02 - t)")))
        _, report, _ = cases._oracle(cases._dimensionless_domain(load_config(str(ini))), check=True)
        assert report.scheme == "expm" and report.n_steps == 50
        assert [len(rows) for rows in forcing_rows] == [50] and forcing_rows[0].max() < 0.01

    @pytest.mark.parametrize("tau,exponentials", [(0.005, 1), (0.0, 1)])
    def test_exponentials_per_reference(self, propagator_calls, tau, exponentials):
        # one, for the regular step, at the presets' horizons and at tau = 0
        cases._oracle(cases._dimensionless_domain(short_verification(tau=tau)), check=True)
        assert len(propagator_calls) == exponentials

    def test_largest_operator_it_takes(self):
        cfg = short_verification(tau=0.0)
        cfg.dx = 1.0 / (cases.EXPM_MAX_SIZE // 2 - 1)
        dom = cases._dimensionless_domain(cfg)
        assert 2 * dom.grid.node_count == cases.EXPM_MAX_SIZE
        assert cases._oracle(dom)[1].scheme == "expm"

    @pytest.mark.parametrize("case", ["dirichlet", "nonlinear", "sourced", "oversized"])
    def test_other_cases_take_the_rk4_reference(self, monkeypatch, case):
        cfg = short_verification(tau=0.0)
        if case == "dirichlet":
            cfg.forcing_right = SideForcing.dirichlet(lambda t: 1.0, lambda t: 1.0)
        if case == "nonlinear":
            cfg.materials["mat1"] = CoefficientModel.polynomials(
                "m", d_theta=0.3, d_t=[0.1, 0.05], c_t=1.0, k_t=0.5, k_tm=0.4)
        if case == "oversized":
            cfg.dx = 1.0 / (cases.EXPM_MAX_SIZE // 2 + 4)      # 2n = EXPM_MAX_SIZE + 10
        dom = cases._dimensionless_domain(cfg)
        if case == "sourced":
            build = dom.operator

            def sourced():
                op = build()
                op.source_u = lambda x, t: np.zeros_like(x)
                return op
            monkeypatch.setattr(dom, "operator", sourced)
        op = dom.operator()
        assert op.is_linear == (case != "nonlinear")
        assert 2 * op.n == (cases.EXPM_MAX_SIZE + 10 if case == "oversized" else 202)
        assert cases._oracle(dom)[1].scheme == "rk4"


def test_marches_go_through_integrator_hooks(monkeypatch, tmp_path):
    """Every march the runners make calls the integrators by their names in
    ``cases``, which is where the benchmark's tracer hooks in; the exact
    reference marches through ``cases._march``."""
    calls = []
    for name in ("euler_run", "dufort_frankel_run", "sts_run", "rk4_run", "_march"):
        def counting(*args, _fn=getattr(cases, name), _name=name, **kwargs):
            report = _fn(*args, **kwargs)
            observe = kwargs.get("observe", args[4] if len(args) > 4 else None)
            calls.append((_name, observe is not None, report))
            return report
        monkeypatch.setattr(cases, name, counting)
    rhs_calls = [0]
    rhs = cases.SemiDiscreteOperator.rhs

    def counting_rhs(self, *args):
        rhs_calls[0] += 1
        return rhs(self, *args)

    monkeypatch.setattr(cases.SemiDiscreteOperator, "rhs", counting_rhs)

    verify = run_verification_case(short_verification(tau=0.005), tmp_path / "verify")
    table = {id(report) for report in verify.reports.values()}
    assert sorted((name, observed) for name, observed, r in calls if id(r) in table) == [
        ("dufort_frankel_run", True), ("euler_run", True), ("sts_run", True), ("sts_run", True)]
    # the exact reference, which marches its step-doubling check along
    assert [(name, observed) for name, observed, r in calls if id(r) not in table] == [("_march", True)]
    n_verify = len(calls)
    sweep = short_verification(tau=0.005)
    sweep.sweep_ns = [4, 8]
    run_ns_sweep(sweep, out_dir=tmp_path / "sweep")
    # the reference keeps its samples through an observer
    assert sorted((name, observed) for name, observed, _ in calls[n_verify:]) == (
        [("_march", True), ("euler_run", True)] + [("sts_run", True)] * 4)
    n_sweep = len(calls)
    monkeypatch.setattr(cases, "EXPM_MAX_SIZE", 0)
    verify = run_verification_case(short_verification(tau=0.005), tmp_path / "rk4")
    table = {id(report) for report in verify.reports.values()}
    # the RK4 reference and its step-doubling check
    assert [name for name, _, r in calls[n_sweep:] if id(r) not in table] == ["rk4_run"] * 2
    # no march ran outside the hooks: their reports account for every RHS call
    assert rhs_calls[0] == sum(report.rhs_evals for _, _, report in calls)


@pytest.fixture(scope="module")
def day_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("phys")
    cfg = physical_preset()
    cfg.tau = 1.0 * DAY_S
    cfg.schemes = ["rkl"]
    return cfg, run_physical_case(cfg, out), out


def _per_field_sample(times, states, sup, t, u, v, dx):
    """Reference transcription of one error sample: a searchsorted bracket,
    one norm pass per field and a separate reference norm, folded into the
    running maxima ``sup`` (rows eps2, epsinf, reference norm)."""
    k = int(np.searchsorted(times, t))
    if not 0 < k < times.size:
        ref = states[0 if k <= 0 else -1]
    else:
        w = (t - times[k - 1]) / (times[k] - times[k - 1])
        ref = (1.0 - w) * states[k - 1] + w * states[k]
    for col, (num, r) in enumerate(((u, ref[0]), (v, ref[1]))):
        d = num - r
        sup[0][col] = max(sup[0][col], float(math.sqrt(dx * float(np.sum(d * d)))))
        sup[1][col] = max(sup[1][col], float(np.max(np.abs(d))))
        sup[2][col] = max(sup[2][col], float(np.max(np.abs(r))))
    return sup


class TestErrorSampling:
    @pytest.mark.parametrize("n", [5, 101, 1001])
    def test_stacked_tracker_matches_per_field_transcription(self, n):
        rng = np.random.default_rng(n)
        h = 2.0 / 28000.0
        times = h * np.arange(40)
        states = rng.standard_normal((times.size, 2, n))
        dx = 1.0 / (n - 1)
        tracker = cases._ErrorTracker(cases._ReferenceTrajectory(times, states), dx)
        expected = [[0.0, 0.0] for _ in range(3)]
        probes = [float(times[7]), float(times[0]), float(times[-1]),   # at a sample
                  float(0.3 * times[11] + 0.7 * times[12]), 1.5 * h,    # between samples
                  -h, -0.25 * h,                                        # before the first
                  float(times[-1]) + 0.5 * h, 1e3]                      # after the last
        for t in probes:
            y = 3.0 * rng.standard_normal((2, n))
            u, v = y
            # one sample alone, then the running maxima over all of them
            single = cases._ErrorTracker(tracker.reference, dx)
            single(t, y)
            single.flush()
            tracker(t, y)
            tracker.flush()
            _per_field_sample(times, states, expected, t, u, v, dx)
            alone = _per_field_sample(times, states, [[0.0, 0.0] for _ in range(3)], t, u, v, dx)
            assert single.sup.tolist() == alone
            assert tracker.sup.tolist() == expected
        rec = ComparisonRecord(scheme="euler", dt=h, n_t=2, rho_ndt_pct=100.0)
        tracker.fill(rec)
        assert [rec.eps2_u, rec.eps2_v, rec.epsinf_u, rec.epsinf_v] == expected[0] + expected[1]
        assert type(rec.eps2_u) is float and type(rec.scd_v) is float

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_block_tracker_matches_per_sample_transcription(self, count):
        rng = np.random.default_rng(count)
        n, h = 101, 2.0 / 28000.0
        times = h * np.arange(50)
        states = rng.standard_normal((times.size, 2, n))
        dx = 1.0 / (n - 1)
        tracker = cases._ErrorTracker(cases._ReferenceTrajectory(times, states), dx)
        # knot hits, times between knots and times before the first sample;
        # the last sample is past the reference's end, which flushes
        kinds = [lambda: float(times[rng.integers(times.size - 1)]),
                 lambda: float(rng.uniform(times[0], times[-1])),
                 lambda: -float(rng.uniform(0.0, 3.0 * h))]
        probes = [kinds[i % 3]() for i in range(count - 1)] + [float(times[-1]) + h]
        expected = [[0.0, 0.0] for _ in range(3)]
        for i, t in enumerate(probes):
            y = 3.0 * rng.standard_normal((2, n))
            tracker(t, y)
            _per_field_sample(times, states, expected, t, *y, dx)
            assert len(tracker.times) == (0 if t > times[-1] else (i + 1) % tracker.BLOCK)
        assert tracker.sup.tolist() == expected
        tracker.flush()                   # nothing pending: flushing again changes nothing
        assert tracker.sup.tolist() == expected

    def test_knots_and_times_outside_the_span_raise_no_warning(self):
        # a knot or a time outside the span takes one stored state whole; one
        # sample alone (the reference at tau = 0) is its state at every time
        h = 2.0 / 28000.0
        times = h * np.arange(5)
        states = np.random.default_rng(5).standard_normal((times.size, 2, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cases._ReferenceTrajectory(times, states).states_at([times[3], -h, times[-1] + h, 1.5 * h])
            alone = cases._ReferenceTrajectory(times[:1], states[:1]).states_at([0.0, -h, h])
        assert got[:3].tobytes() == states[[3, 0, -1]].tobytes()
        assert got[3].tobytes() == (0.5 * states[1] + 0.5 * states[2]).tobytes()
        assert alone.tobytes() == states[[0, 0, 0]].tobytes()

    @pytest.mark.parametrize("scheme", ["euler", "rkl"])
    def test_march_leaves_no_sample_pending(self, scheme):
        """The sample at tau flushes the block, so every reduction of a
        march happens inside its timed loop."""
        cfg = short_verification(tau=0.01)
        dom = cases._build_domain(cfg, BoundaryForcing(cfg.forcing_left, cfg.forcing_right),
                                  cfg.groups)
        ref = cases._oracle(dom)[0]
        tracker = cases._ErrorTracker(ref, dom.grid.spacing)
        expected = [[0.0, 0.0] for _ in range(3)]

        def observe(t, y):
            tracker(t, y)
            _per_field_sample(np.array(ref.times), ref.y, expected, t, *y, dom.grid.spacing)

        report = cases._run_one_scheme(scheme, dom, observe=observe)
        assert tracker.times == []
        if scheme == "euler":
            assert report.n_steps > 4 * tracker.BLOCK
        assert tracker.sup.tolist() == expected


class TestPhysicalCase:

    def test_policy_counts_at_horizon(self, day_result):
        cfg, res, _ = day_result
        cfg_full = physical_preset()
        counts = physical_step_counts(cfg_full)
        assert counts["euler"]["dt_s"] == pytest.approx(2.04)
        assert counts["euler"]["n_t"] == 15458824
        assert counts["rkc"]["dt_s"] == pytest.approx(204.0)
        assert counts["rkc"]["n_t"] == 154589
        assert counts["rkl"]["dt_s"] == pytest.approx(428.4)
        assert counts["rkl"]["n_t"] == 73614
        # the reduced-horizon run reports the same 365-day policy counts
        assert res.policy_counts["rkl"]["n_t"] == 73614

    def test_series_outputs(self, day_result):
        cfg, res, out = day_result
        files = sorted(os.listdir(out))
        for name in ("ins_re", "re_ins", "re"):
            assert f"theta_tot_{name}.csv" in files
            assert f"drying_rate_{name}.csv" in files
        assert "synthetic_climate.csv" in files
        assert "manifest.json" in files and "comparison.csv" in files
        for name, (t_days, theta) in res.totals.items():
            assert t_days[0] == 0.0
            assert t_days[-1] == pytest.approx(1.0)
            assert np.all(theta > 0)

    def test_initial_moisture_content(self, day_result):
        _, res, _ = day_result
        # 0.53 over the 0.5 m rammed-earth layer
        assert res.totals["re"][1][0] == pytest.approx(0.53 * 0.5, rel=1e-12)
        assert res.totals["re_ins"][1][0] == pytest.approx(0.53 * 0.5, rel=1e-12)
        # exterior-insulated wall: the shared interface node sits at the
        # insulation's initial moisture
        assert res.totals["ins_re"][1][0] == pytest.approx(
            0.53 * 0.5 - (0.53 - 0.053) * 0.005 / 2, rel=1e-9)

    def test_wrong_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_physical_case(verification_preset(), tmp_path)

    def test_climate_covers_the_run_plus_one_day(self, day_result, tmp_path):
        cfg, _, out = day_result
        short = ingest_boundary_series(out / "synthetic_climate.csv")
        assert short.time.size == 49
        year = tmp_path / "year.csv"
        write_synthetic_climate(year, days=366.0)
        full = ingest_boundary_series(year)
        t = np.random.default_rng(0).uniform(0.0, cfg.tau, 500).tolist() + [0.0, cfg.tau]
        for name in short.columns:
            a, b = short.interpolator(name), full.interpolator(name)
            assert [a(x) for x in t] == [b(x) for x in t]

    def test_manifest_records_the_initial_state_and_schedules_that_ran(self, tmp_path, monkeypatch):
        # the benchmark seeds its physical runs by replacing these module constants
        monkeypatch.setattr(cases, "PHYSICAL_INITIAL_T", 290.0)
        monkeypatch.setattr(cases, "PHYSICAL_INITIAL_V", {"re": 0.5, "ins": 0.05})
        cfg = physical_preset()
        cfg.tau = 3600.0
        cfg.physical_configurations = ["ins_re"]
        res = run_physical_case(cfg, tmp_path)
        params = res.manifest["parameters"]
        assert (params["initial_u"], params["initial_v"]) == (290.0, {"re": 0.5, "ins": 0.05})
        # the walls that ran are the layouts of "configurations", not the config's layers
        assert "layers" not in params and list(res.manifest["configurations"]) == ["ins_re"]
        assert res.totals["ins_re"][1][0] == pytest.approx(0.5 * 0.5 - (0.5 - 0.05) * 0.005 / 2)
        # the drying run's rkl schedule is recorded next to the table's rkc one
        assert sorted(res.manifest["runs"]) == ["euler", "rkc", "rkl"]
        assert sorted(res.manifest["schedules"]) == ["rkc", "rkl"]
        assert res.manifest["schedules"]["rkl"]["n_s"] == 20

    def test_manifest_labels_synthetic_climate(self, day_result):
        _, res, _ = day_result
        assert res.manifest["climate"]["synthetic"] is True
        assert res.manifest["policy_counts_365d"]["rkl"]["n_t"] == 73614


class TestEmitOutputs:
    def test_generic_writer(self, tmp_path):
        written = emit_outputs(
            tmp_path, {"created_at": "now", "case": {}},
            tables={"probe_u": ("x,u", [(0.0, 1.0), (1.0, 2.0)]),
                    "curve": ("t,y", zip([0.0], [3.0]))},
        )
        assert len(written) == 3
        assert (tmp_path / "probe_u.csv").read_text() == "x,u\n0.0,1.0\n1.0,2.0\n"


class TestCli:
    def test_verify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--tau", "0.005", "--out", str(out)])
        assert code == 0
        assert (out / "comparison.csv").exists()
        assert "rkl" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["custom"], [], ["verify", "--bogus", "1"], ["verify", "--tau"]],
                             ids=["custom", "no-subcommand", "unknown-option", "missing-value"])
    def test_usage_error_exits_one(self, capsys, argv):
        # 2 is the divergence code, so argparse's usage errors exit 1
        assert main(argv) == 1
        assert "usage: stswall" in capsys.readouterr().err

    def test_sweep_without_slopes_says_so(self, tmp_path, capsys):
        # tau = 0 gives zero errors, so no scheme gets a slope; each still gets a line
        assert main(["sweep", "--tau", "0", "--ns", "4,8", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{scheme}: no error slope vs N_S (fewer than two ok rows with positive errors)"
            for scheme in ("rkc", "rkl")]

    def test_help_exits_zero(self, capsys):
        assert main(["verify", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["--dt", "1e-320"], "dt_euler must be > 0 with tau/dt_euler <= 1000000000, got 1e-320"),
        (["--dt", "1e-300"], "dt_euler must be > 0 with tau/dt_euler <= 1000000000, got 1e-300"),
        (["--scheme", "rkc", "--ns", "1000000000000"], "n_s=1000000000000 is more than the ceiling"),
    ], ids=["subnormal-step", "step-ceiling", "stage-ceiling"])
    def test_step_and_stage_limits_exit_one(self, tmp_path, capsys, argv, message):
        assert main(["verify", "--tau", "0.005", *argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("field,key", [("dt_euler", "dt_euler"), ("dt_df", "dt_df"),
                                           ("dt_exp_base", "dt_exp")])
    def test_each_step_must_be_positive_with_finite_count(self, field, key):
        for step in (1e-320, 1e-300, 0.0, -1e-3):
            cfg = short_verification()
            setattr(cfg, field, step)
            with pytest.raises(ConfigError, match=f"^{key} must be > 0 with tau/{key} <= {MAX_STEPS}, "):
                cfg.validate()

    def test_bad_config_exits_one(self, tmp_path, capsys):
        # the kinds are verification and physical; any other, custom too, is an error
        bad = tmp_path / "bad.ini"
        bad.write_text("[case]\nkind = custom\n")
        assert main(["verify", "--config", str(bad)]) == 1
        assert "unknown case kind 'custom'" in capsys.readouterr().err

    PHYSICAL_INI = """
        [case]
        kind = physical
        [grid]
        dx = 5e-3
        [time]
        tau = 1h
        dt_exp = auto
        [schemes]
        run = rkc, rkl
        [materials]
        re = table3_re
        ins = table3_ins
        [wall]
        layers = re:0.5
        [physical]
        configurations = {configurations}
        """

    # a dimensionless case with forcing on the left side only
    VERIFICATION_INI = """
        [case]
        kind = verification
        [grid]
        dx = 0.1
        [time]
        tau = 0.01
        dt_euler = 1e-4
        [groups]
        fo_m = 0.09
        fo_t = 0.07
        [materials]
        m1 = table1_mat1
        [wall]
        layers = m1:1.0
        [forcing.left]
        u = 1
        """

    def write_physical_ini(self, tmp_path, configurations):
        path = tmp_path / "case.ini"
        path.write_text(textwrap.dedent(self.PHYSICAL_INI.format(configurations=configurations)))
        return str(path)

    @pytest.mark.parametrize("argv,ini_edit,named", [
        (["verify", "--tau", "abc"], None, "'abc'"),
        (["physical", "--dt", "abc"], None, "'abc'"),
        (["sweep", "--ns", "3,x"], None, "'x'"),
        (["physical", "--config", "{ini}"], ("tau = 1h", "tau = abc"), "'abc'"),
        (["physical", "--config", "{ini}"], ("dx = 5e-3", "dx = abc"), "'abc'"),
        (["verify", "--tau", "nan"], None, "tau"),
        (["verify", "--dx", "nan"], None, "dx"),
        (["verify", "--tau", "1e400"], None, "tau"),
        (["physical", "--tau", "inf"], None, "tau"),
        (["verify", "--dx", "abc"], None, "'abc'"),
        (["physical", "--tau", "0d"], None, "tau > 0"),
        # more than two counts name a sweep, not the table's rkc,rkl pair
        (["verify", "--tau", "0.005", "--ns", "4,8,16"], None, "--ns"),
        # an empty list: no count was an IndexError, no scheme ran nothing and exited 0
        (["verify", "--tau", "0.005", "--ns", ","], None, "--ns"),
        (["verify", "--tau", "0.005", "--scheme", ","], None, "at least one scheme"),
        # physical runs build their own groups, so these sections would be ignored
        (["physical", "--config", "{ini}"], ("[materials]", "[groups]\nfo_m = 5\nfo_t = 5\n[materials]"),
         "[groups]"),
        (["physical", "--config", "{ini}"], ("[materials]", "[biot.left]\nt_t = 5\n[materials]"),
         "[biot.left]"),
        (["physical", "--config", "{ini}"], ("[physical]", "[output]\ndump_matrix = true\n[physical]"),
         "dump_matrix"),
        (["physical", "--config", "{ini}"],
         ("[physical]", "[forcing.left]\nkind = dirichlet\nu = 250\nv = 0.1\n[physical]"),
         "[forcing.left]"),
        # dimensionless runs need groups and forcing on both sides
        (["sweep", "--config", "{ini}"], None, "[groups]"),
        (["verify", "--config", "{verification}"], None, "[forcing.right]"),
        (["sweep", "--config", "{verification}"], None, "[forcing.right]"),
        # the kind is checked before the sections a kind needs
        (["verify", "--config", "{ini}"], ("kind = physical", "kind = foo"), "'foo'"),
        # INI values that are not numbers, booleans or a whole box
        (["verify", "--config", "{verification}"], ("m1:1.0", "m1:abc"), "'abc'"),
        (["verify", "--config", "{verification}"], ("m1:1.0", "m1:nan\n[forcing.right]\nu = 1"), "thickness"),
        (["verify", "--config", "{verification}"],
         ("[forcing.left]", "[forcing.right]\nu = 1\n[box]\nu_min = 0\n[forcing.left]"), "[box]"),
        (["verify", "--config", "{verification}"],
         ("[forcing.left]", "[forcing.right]\nu = 1\n[output]\ndump_matrix = abc\n[forcing.left]"),
         "'abc'"),
        # sections the kind never reads
        (["physical", "--config", "{ini}"], ("[physical]", "[initial]\nu = 250\nv = 0.1\n[physical]"),
         "[initial]"),
        (["physical", "--config", "{ini}"], ("[physical]", "[sweep]\nns = 4, 8\n[physical]"), "[sweep]"),
        (["verify", "--config", "{verification}"],
         ("[forcing.left]", "[forcing.right]\nu = 1\n[physical]\nconfigurations = re\n[forcing.left]"),
         "[physical]"),
        # the latent heat is only the physical groups' delta
        (["verify", "--config", "{verification}"],
         ("[forcing.left]", "[forcing.right]\nu = 1\n[constants]\nlatent_heat = 2e6\n[forcing.left]"),
         "latent_heat"),
        # inputs that loaded and were then ignored or misread; each error names its section or key
        (["verify", "--config", "{verification}"], ("[materials]", "[biot.left]\nm_thet = 25.5\n[materials]"), "[biot.left] m_thet"),
        (["physical", "--config", "{ini}"], ("configurations", "climat = x.csv\nconfigurations"), "[physical] climat"),
        (["verify", "--config", "{verification}"], ("dt_euler", "dt_eulr"), "[time] dt_eulr"),
        (["verify", "--config", "{verification}"], ("[time]", "[tme]"), "[tme]"),
        (["verify", "--config", "{verification}"], ("m1 = table1_mat1", "names = m1, m2\nm1 = table1_mat1\nm2.d_theta = 0.2\nm2.d_t = 1\n"
                                   "m2.c_t = 0.3\nm2.k_t = 0.2\nm2.k_tm = 0.1\nm2.k_tt = 1"), "m2.k_tt"),
        (["verify", "--config", "{verification}"], ("[forcing.left]", "[output]\ndump_matix = true\n[forcing.left]"), "[output] dump_matix"),
        (["verify", "--config", "{verification}"], ("[forcing.left]\nu = 1", "[forcing.left]\nkind = dirichlet\nu = 1\nflux_m = 0.1"),
         "[forcing.left] flux_m"),
        # dimensionless times take no unit suffix (tau = 2h ran to t = 7200)
        (["verify", "--config", "{verification}"], ("tau = 0.01", "tau = 0.01s"), "[time] tau"),
        (["physical", "--config", "{ini}"], ("[physical]", "[output]\n[physical]"), "[output]"),
        (["physical", "--config", "{ini}"], ("[physical]", "[output]\ndump_matrix = false\n[physical]"), "[output] dump_matrix"),
        (["verify", "--config", "{verification}"], ("[forcing.left]\nu = 1", "[forcing.left]\nkind = dirichet\nu = 1"), "'dirichet'"),
        (["verify", "--config", "{verification}"], ("m1 = table1_mat1", "m1 = table1_mat1\nm1.c_t = 0.3"), "m1.c_t"),
        (["verify", "--config", "{verification}"], ("[case]", "[DEFAULT]\ndx = 0.2\n[case]"), "[case] dx"),
        (["verify", "--config", "{verification}"], ("dx = 0.1", "dx = 0.1\ndx = 0.2"), "'dx'"),
        # the saturation exchange keys are gone; psat_inf was parsed and never evaluated
        (["verify", "--config", "{verification}"], ("[materials]", "[biot.left]\nm_sat = 0\n[materials]"),
         "[biot.left] m_sat"),
        (["verify", "--config", "{verification}"], ("[forcing.left]\nu = 1", "[forcing.left]\nu = 1\npsat_inf = 1/(t-t)"),
         "[forcing.left] psat_inf"),
        # a NaN damping passed the sign test and ended in a ValueError traceback
        *(([command, "--config", "{verification}"],
           ("[forcing.left]", f"[forcing.right]\nu = 1\n[schemes]\ndamping_rkc = {value}\n[forcing.left]"),
           "damping") for command in ("verify", "sweep") for value in ("nan", "inf")),
        # a box no state fits was reported as a divergence (exit 2)
        *((["verify", "--config", "{verification}"],
           ("[forcing.left]", f"[forcing.right]\nu = 1\n[box]\n{box}\n[forcing.left]"), "[box]")
          for box in ("u_min = 2\nu_max = 1\nv_min = 0\nv_max = 2", "u_min = nan\nu_max = 2.5\nv_min = 0\nv_max = 2")),
        # np.linspace raised "Maximum allowed size exceeded" at 1e-300, round(inf) an OverflowError at 1e-320
        (["verify", "--dx", "1e-300"], None, "dx=1e-300 on the wall length 1.0 makes 1e+300 nodes"),
        (["verify", "--dx", "1e-320"], None, "dx=1e-320 on the wall length 1.0 makes inf nodes"),
        (["physical", "--dx", "1e-300"], None, "dx=1e-300 on the wall length 0.625"),
    ], ids=["verify-tau-abc", "physical-dt-abc", "sweep-ns-x", "ini-tau-abc", "ini-dx-abc",
            "verify-tau-nan", "verify-dx-nan", "verify-tau-1e400", "physical-tau-inf",
            "verify-dx-abc", "physical-tau-0d", "verify-ns-three", "verify-ns-empty",
            "verify-scheme-empty", "ini-physical-groups",
            "ini-physical-biot", "ini-physical-dump-matrix", "ini-physical-forcing",
            "sweep-physical-ini", "verify-one-sided-forcing", "sweep-one-sided-forcing",
            "ini-unknown-kind", "ini-layer-abc", "ini-layer-nan", "ini-partial-box", "ini-dump-matrix-abc",
            "ini-physical-initial", "ini-physical-sweep", "ini-verification-physical",
            "ini-verification-latent-heat", "ini-biot-key", "ini-physical-key", "ini-time-key",
            "ini-section", "ini-material-coefficient", "ini-output-key", "ini-dirichlet-flux",
            "ini-verification-duration", "ini-physical-empty-output", "ini-physical-output-false",
            "ini-forcing-kind", "ini-builtin-coefficient", "ini-default-key", "ini-duplicate-key",
            "ini-biot-m-sat", "ini-forcing-psat-inf", "verify-damping-nan", "verify-damping-inf",
            "sweep-damping-nan", "sweep-damping-inf", "ini-inverted-box", "ini-nan-box",
            "verify-dx-1e-300", "verify-dx-1e-320", "physical-dx-1e-300"])
    def test_malformed_or_non_finite_number_exits_one(self, tmp_path, capsys, argv, ini_edit, named):
        if "--config" in argv:
            template = self.VERIFICATION_INI if "{verification}" in argv else self.PHYSICAL_INI.format(
                configurations="re")
            text = textwrap.dedent(template)
            ini = tmp_path / "case.ini"
            ini.write_text(text.replace(*ini_edit) if ini_edit else text)
            argv = [str(ini) if arg.startswith("{") else arg for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    ZERO_STIFFNESS_RE = "names = re\nre.d_theta = 0\nre.d_t = 0\nre.c_t = 1e6\nre.k_t = 0\nre.k_tm = 0"

    @pytest.mark.parametrize("argv,ini_edit,series,message", [
        (["verify", "--dx", "0.03"], None, None, "dx=0.03 does not divide the wall length 1.0"),
        (["verify", "--config", "{verification}"], ("[forcing.left]", "[initial]\nu = 1, 2\n[forcing.left]"),
         None, "per-layer initial values need 1 entries, got 2"),
        (["verify", "--config", "{verification}"], ("[forcing.left]", "[schemes]\nrun = df\n[forcing.left]"),
         None, "scheme 'df' needs dt_df in the configuration"),
        (["verify", "--ns", "1.5"], None, None, "expected whole numbers, got '1.5'"),
        (["verify", "--config", "{verification}"], ("m1:1.0", "m1"), None,
         "layer token 'm1' must look like name:thickness"),
        (["verify", "--config", "{gone}"], None, None, "cannot read config file"),
        (["physical", "--config", "{physical}"], ("configurations = re", "configurations ="), None,
         "physical configurations must name at least one layout"),
        (["verify", "--config", "{verification}"], ("[wall]\nlayers = m1:1.0\n", ""), None,
         "wall needs at least one layer"),
        (["verify", "--config", "{verification}"], ("[forcing.left]\n", "[forcing.left]\nseries = s.csv\n"),
         "t\n0\n1\n", "line 1: need a time column plus data columns"),
        (["verify", "--config", "{verification}"], ("[forcing.left]\n", "[forcing.left]\nseries = s.csv\n"),
         "# comments only\n", "no header row found"),
        (["sweep", "--ns", "0"], None, None, "sweep needs positive super-step counts"),
        (["physical", "--config", "{physical}"], ("re = table3_re\nins = table3_ins", ZERO_STIFFNESS_RE), None,
         "operator has zero stiffness; set dt_euler or dt_exp explicitly"),
    ], ids=["dx-not-dividing", "initial-count", "df-without-dt-df", "ns-not-whole", "layer-token",
            "missing-config", "empty-configurations", "no-wall", "series-without-data",
            "series-without-header", "sweep-ns-zero", "auto-step-zero-stiffness"])
    def test_input_error_exits_one(self, tmp_path, capsys, argv, ini_edit, series, message):
        templates = {"{verification}": textwrap.dedent(self.VERIFICATION_INI) + "[forcing.right]\nu = 1\n",
                     "{physical}": textwrap.dedent(self.PHYSICAL_INI.format(configurations="re"))}
        ini = tmp_path / "case.ini"
        for arg in argv:
            if arg in templates:
                ini.write_text(templates[arg].replace(*ini_edit) if ini_edit else templates[arg])
        if series is not None:
            (tmp_path / "s.csv").write_text(series)
        argv = [str(tmp_path / "gone.ini") if arg == "{gone}" else str(ini) if arg in templates else arg
                for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command,edit,message", [
        ("verify", ("m1 = table1_mat1", "m1.d_theta = 0.3\nm1.d_t = 2.1\nm1.c_t = 0.1\nm1.k_t = 0.5"),
         "material 'm1': k_tm has no coefficients"),
        ("sweep", ("[forcing.left]", "[forcing.right]\nu = 1\n[sweep]\nschemes = euler\n[forcing.left]"),
         "sweep schemes must be rkc or rkl, got ['euler']"),
        # failed only after writing synthetic_climate.csv and building the first layout,
        # with a message that did not name the key
        ("physical", ("configurations = re", "configurations = re\ndrying_scheme = foo"),
         "drying_scheme: unknown scheme 'foo'"),
    ], ids=["material-without-k-tm", "sweep-schemes-euler", "drying-scheme-foo"])
    def test_input_error_exits_one_before_any_output(self, tmp_path, capsys, command, edit, message):
        template = self.PHYSICAL_INI.format(configurations="re") if command == "physical" else self.VERIFICATION_INI
        ini, out = tmp_path / "case.ini", tmp_path / "out"
        ini.write_text(textwrap.dedent(template).replace(*edit))
        assert main([command, "--config", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_benchmark_file_with_an_inverted_box_exits_one(self, tmp_path, capsys):
        # u_min above u_max printed "FAILED rkl" (exit 2)
        text = (Path(__file__).resolve().parent.parent / "perfbench" / "fine_grid.ini").read_text()
        ini = tmp_path / "fine_grid.ini"
        ini.write_text(text.replace("u_min = 240", "u_min = 400"))
        argv = ["physical", "--config", str(ini), "--tau", "60s", "--scheme", "rkl"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[box]" in err

    def test_percent_is_the_forcing_remainder(self, tmp_path):
        # configparser's interpolation read % as a reference and raised its own error
        ini = tmp_path / "case.ini"
        ini.write_text(textwrap.dedent(self.VERIFICATION_INI).replace("u = 1", "u = 1 + t % 2"))
        assert load_config(ini).forcing_left.u_inf(3.5) == 2.5

    def test_storage_reaching_zero_at_the_initial_state_exits_one(self, tmp_path, capsys):
        # c_t = 1 - v is zero at v = 1: the Robin closure divided by it
        material = "names = m2\nm2.d_theta = 0.2\nm2.d_t = 0.1\nm2.c_t = 1.0, -1.0\nm2.k_t = 0.2\nm2.k_tm = 0.1"
        text = (textwrap.dedent(self.VERIFICATION_INI).replace("m1 = table1_mat1", material)
                .replace("m1:1.0", "m2:1.0").replace("[forcing.left]\nu = 1", "[forcing.left]\nkind = dirichlet")
                + "[forcing.right]\nu = 1\n[biot.right]\nm_theta = 25.5\nt_t = 50.5\n[initial]\nv = 1\n")
        ini = tmp_path / "case.ini"
        ini.write_text(text)
        assert main(["verify", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "material 'm2': c_t must be positive" in err

    POLYNOMIAL_M1 = "m1.d_theta = 0.3\nm1.d_t = 2.1\nm1.c_t = 0.1, 0.2\nm1.k_t = 0.5\nm1.k_tm = 0.4"

    @pytest.mark.parametrize("material,initial,message", [
        (None, "u = nan", "initial field u must be finite, got nan"),
        (None, "v = -inf", "initial field v must be finite, got -inf"),
        # the storage check read the NaN first: "material 'm1': c_t must be positive ..., got nan"
        (POLYNOMIAL_M1, "v = nan", "initial field v must be finite, got nan"),
        # overflowed in the reference's first RK4 step and exited 2 as a divergence
        (None, "u = 1e308", "initial state has u in [1e+308, 1e+308], v in [1, 1]: magnitude above 1e+150"),
        (None, "u = 4.6\n[box]\nu_min = 0.5\nu_max = 2.5\nv_min = 0\nv_max = 2",
         "initial state has u in [4.6, 4.6], v in [1, 1]: more than one box width outside the "
         "admissible box (0.5, 2.5, 0.0, 2.0)"),
        # the storage check and the reference's row-sum bound evaluated c_t at v = 1e200
        # first, which printed numpy's overflow warnings
        (POLYNOMIAL_M1.replace("c_t = 0.1, 0.2", "c_t = 0.1, 0.2, 0.3"), "v = 1e200",
         "initial state has u in [1, 1], v in [1e+200, 1e+200]: magnitude above 1e+150"),
    ], ids=["u-nan", "v-minus-inf", "polynomial-v-nan", "u-1e308", "u-beyond-box", "polynomial-v-1e200"])
    def test_initial_state_that_is_not_finite_or_inside_the_limits_exits_one(self, tmp_path, capsys,
                                                                              material, initial, message):
        text = textwrap.dedent(self.VERIFICATION_INI).replace(
            "[forcing.left]", f"[forcing.right]\nu = 1\n[initial]\n{initial}\n[forcing.left]")
        if material:
            text = text.replace("m1 = table1_mat1", material)
        ini = tmp_path / "case.ini"
        ini.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert [str(w.message) for w in caught] == []

    def test_initial_state_inside_one_box_width_runs(self, tmp_path):
        # outside the box but inside the limits: each step counts as a box
        # violation, and the initial state does not
        text = textwrap.dedent(self.VERIFICATION_INI).replace("[forcing.left]", (
            "[forcing.right]\nu = 1\n[initial]\nu = 2.6\n[box]\nu_min = 0.5\nu_max = 2.5\n"
            "v_min = 0\nv_max = 2\n[forcing.left]"))
        ini = tmp_path / "case.ini"
        ini.write_text(text)
        argv = ["verify", "--config", str(ini), "--scheme", "euler,rkl", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        runs = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"]
        assert sorted(runs) == ["euler", "rkl"]
        assert all(run["flags"]["box_violations"] == run["n_steps"] > 0 for run in runs.values())

    @pytest.mark.parametrize("c_t", ["0", "-0.3"])
    def test_non_positive_storage_exits_one(self, tmp_path, capsys, c_t):
        # A polynomial material's storage must start positive, as a constant
        # one's must: zero ended in a ZeroDivisionError in the Robin closure,
        # and a negative value ran to exit 0.
        material = f"m1.d_theta = 0.3\nm1.d_t = 2.1, 0.5\nm1.c_t = {c_t}\nm1.k_t = 0.5\nm1.k_tm = 0.4"
        text = textwrap.dedent(self.VERIFICATION_INI).replace("m1 = table1_mat1", material)
        ini = tmp_path / "case.ini"
        ini.write_text(text.replace("[forcing.left]", "[forcing.right]\nu = 1\n[forcing.left]"))
        assert main(["verify", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "c_t must be positive" in err

    def test_auto_base_without_euler_step(self, tmp_path, capsys):
        ini = self.write_physical_ini(tmp_path, "re, ins_re")
        out = tmp_path / "out"
        assert main(["physical", "--config", ini, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # the base is the first layout's explicit limit with a 10% margin
        wall = WallAssembly([(builtin_material("table3_re"), 0.5)])
        side = SideForcing.dirichlet(lambda t: 291.3, lambda t: 0.53)
        op = SemiDiscreteOperator(wall, Grid1D(0.5, 101),
                                  DimensionlessGroups(fo_m=1.0, fo_t=1.0, gamma=1.0, delta=2.5e6),
                                  BoundaryForcing(side, side))
        lam = op.gershgorin_lambda_max(np.full(101, 0.53))
        for scheme in ("rkc", "rkl"):
            assert manifest["runs"][scheme]["dt_exp"] == pytest.approx(2.0 / lam / 1.1, rel=1e-12)
            assert manifest["runs"][scheme]["flags"]["box_violations"] == 0
        assert "policy @365d rkl" in capsys.readouterr().out

    def test_climate_is_read_next_to_the_case_file(self, tmp_path, monkeypatch):
        clim = tmp_path / "clim"
        clim.mkdir()
        write_synthetic_climate(clim / "clim.csv", days=1.0)
        (clim / "case.ini").write_text(textwrap.dedent(self.PHYSICAL_INI.format(configurations="re"))
                                       + "climate = clim.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["physical", "--config", "clim/case.ini", "--out", "out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["climate"] == {"path": "clim.csv", "synthetic": False}

    def test_physical_file_without_dx_takes_the_preset_spacing(self, tmp_path, capsys):
        # the verification default, 0.01, grids none of the 0.625 m layouts: such a file exited 1
        ini = tmp_path / "case.ini"
        ini.write_text(textwrap.dedent(self.PHYSICAL_INI.format(configurations="ins_re")).replace("dx = 5e-3\n", ""))
        assert load_config(ini).dx == physical_preset().dx
        assert main(["physical", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["climate", "series"])
    def test_missing_series_file_exits_one(self, tmp_path, capsys, kind):
        ini = tmp_path / "case.ini"
        if kind == "climate":
            text = textwrap.dedent(self.PHYSICAL_INI.format(configurations="re")) + "climate = gone.csv\n"
        else:
            text = textwrap.dedent(self.VERIFICATION_INI) + "series = gone.csv\n"
        ini.write_text(text)
        command = "physical" if kind == "climate" else "verify"
        assert main([command, "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read series file") and str(tmp_path / "gone.csv") in err

    def test_unknown_physical_configuration_exits_one(self, tmp_path, capsys):
        ini = self.write_physical_ini(tmp_path, "re, brick")
        assert main(["physical", "--config", ini, "--out", str(tmp_path / "out")]) == 1
        assert "brick" in capsys.readouterr().err

    def test_layout_without_its_material_exits_one(self, tmp_path, capsys):
        ini = Path(self.write_physical_ini(tmp_path, "re, ins_re"))
        ini.write_text(ini.read_text().replace("ins = table3_ins\n", ""))
        assert main(["physical", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'ins_re'" in err and "'ins'" in err

    def test_diverging_df_exits_two(self, tmp_path, capsys):
        # Du Fort-Frankel at 1800 s on the 5 mm ins_re grid runs away (v
        # beyond +-2 within 6 h) without turning non-finite
        ini = tmp_path / "case.ini"
        ini.write_text(textwrap.dedent(self.PHYSICAL_INI.format(configurations="ins_re"))
                       .replace("tau = 1h", "tau = 6h\ndt_df = 1800s")
                       .replace("run = rkc, rkl", "run = df")
                       + "[box]\nu_min = 240\nu_max = 320\nv_min = 0\nv_max = 0.6\n")
        out = tmp_path / "out"
        assert main(["physical", "--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "FAILED df" in err and "admissible box" in err
        assert (out / "theta_tot_ins_re.csv").exists()
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[1].startswith("df,1800.0,13,")    # the failed row keeps dt and N_t

    # the left side drives u to 3, outside the [0.9, 1.1] box, so the reference runs away
    DIVERGING_REFERENCE_INI = """
        [case]
        kind = verification
        [grid]
        dx = 0.1
        [time]
        tau = 0.5
        dt_euler = 1e-3
        [groups]
        fo_m = 0.09
        fo_t = 0.07
        [biot.left]
        m_theta = 25.5
        t_t = 50.5
        [materials]
        m1 = table1_mat1
        [wall]
        layers = m1:1.0
        [forcing.left]
        u = 3
        [forcing.right]
        u = 1
        [box]
        u_min = 0.9
        u_max = 1.1
        v_min = 0
        v_max = 2
        [sweep]
        ns = 4, 8
        """

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_diverged_reference_exits_two(self, tmp_path, capsys, command, rk4_reference):
        ini = tmp_path / "case.ini"
        ini.write_text(textwrap.dedent(self.DIVERGING_REFERENCE_INI))
        out = tmp_path / "out"
        assert main([command, "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: rk4 run diverged")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_diverged_exact_reference_exits_two(self, tmp_path, capsys, command):
        ini = tmp_path / "case.ini"
        ini.write_text(textwrap.dedent(self.DIVERGING_REFERENCE_INI))
        out = tmp_path / "out"
        assert main([command, "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: expm run diverged")
        assert not out.exists()

    def test_sweep_with_diverged_euler_baseline_exits_two(self, tmp_path, capsys, monkeypatch):
        def diverging(op, state0, dt, tau, **kwargs):
            raise DivergenceError("euler", 3, 3 * dt)
        monkeypatch.setattr(cases, "euler_run", diverging)
        out = tmp_path / "out"
        assert main(["sweep", "--tau", "0.005", "--ns", "4,8", "--out", str(out)]) == 2
        assert "FAILED euler: euler run diverged" in capsys.readouterr().err
        rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[1], row[-1]) for row in rows] == [
            ("rkc", "4", "ok"), ("rkc", "8", "ok"), ("rkl", "4", "ok"), ("rkl", "8", "ok")]
        # ratios fall back to the first run that ran, which the manifest describes
        assert float(rows[0][4]) == 100.0 and float(rows[1][4]) < 100.0
        baseline = json.loads((out / "manifest.json").read_text())["baseline"]
        assert (baseline["scheme"], baseline["n_s"], baseline["n_steps"]) == ("rkc", 4, int(rows[0][3]))

    def test_sweep_without_euler_step_exits_one(self, tmp_path, capsys):
        ini = tmp_path / "sweep.ini"
        ini.write_text(textwrap.dedent("""
            [case]
            kind = verification
            [grid]
            dx = 0.1
            [time]
            tau = 0.01
            dt_exp = 1e-3
            [groups]
            fo_m = 0.09
            fo_t = 0.07
            [materials]
            m1 = table1_mat1
            [wall]
            layers = m1:1.0
            [forcing.left]
            u = 1
            [forcing.right]
            u = 1
            """))
        assert main(["sweep", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        assert "dt_euler" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["log(t)", "1/t", "(t-5)**0.5", "exp(t)"])
    def test_forcing_that_fails_mid_march_exits_one(self, tmp_path, capsys, expr):
        # log(0), 1/0 and a complex power fail at t = 0; exp overflows near t = 710
        ini = tmp_path / "case.ini"
        ini.write_text(textwrap.dedent("""
            [case]
            kind = verification
            [grid]
            dx = 0.5
            [time]
            tau = 1000
            dt_euler = 0.1
            [schemes]
            run = euler
            [groups]
            fo_m = 0.09
            fo_t = 0.07
            [materials]
            m1 = table1_mat1
            [wall]
            layers = m1:1.0
            [forcing.left]
            u = {expr}
            [forcing.right]
            u = 1
            """).format(expr=expr))
        assert main(["verify", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
        assert f"forcing expression {expr!r} fails at t=" in capsys.readouterr().err

    def test_nonlinear_custom_case_dumps_its_initial_matrix(self, tmp_path):
        ini = tmp_path / "case.ini"
        ini.write_text(textwrap.dedent("""
            [case]
            kind = verification
            [grid]
            dx = 0.1
            [time]
            tau = 0.001
            dt_euler = 1e-4
            [schemes]
            run = euler
            [groups]
            fo_m = 0.09
            fo_t = 0.07
            gamma = 0.07
            delta = 0.05
            [biot.left]
            m_theta = 25.5
            t_t = 50.5
            [materials]
            names = b
            b.d_theta = 1.0
            b.d_t = 0.1
            b.c_t = 0.3, 0.01
            b.k_t = 1.0
            b.k_tm = 0.1
            [wall]
            layers = b:1.0
            [initial]
            u = 1.0
            v = 0.5
            [forcing.left]
            u = 1
            [forcing.right]
            kind = dirichlet
            u = 1
            [output]
            dump_matrix = true
            """))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(ini), "--out", str(out)]) == 0
        dom = cases._dimensionless_domain(load_config(ini))
        op = dom.operator()
        assert not op.is_linear
        want = op.frozen_matrix(dom.state0[1])
        header, *lines = (out / "operator_matrix.txt").read_text().splitlines()
        assert header == f"% {2 * op.n} {2 * op.n} {np.count_nonzero(want)}"
        got = np.zeros_like(want)
        for line in lines:
            i, j, value = line.split()
            got[int(i), int(j)] = float(value)
        assert np.array_equal(got, want)

    def test_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--tau", "0.02", "--ns", "4,6,8", "--out", str(out)])
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert "slope" in capsys.readouterr().out


def test_traced_benchmark_counts(tmp_path):
    """The benchmark's tracer wraps ``rhs``, ``apply_constraints``, the
    integrators and the forcing fields by name; a signature change that
    broke its per-layer split would change these counts."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", "verify",
         "--seed", "1", "--trace", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600, check=True)
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    # RHS calls: 1730, all by the table schemes, which apply constraints once
    # per RHS call; the exact reference and its step-doubling check make none
    # (the forcing is the Robin rows of rhs(t, 0), from boundary_forcing).
    # Steps count only the marches the tracer wraps (euler_run,
    # dufort_frankel_run, sts_run), not the reference.
    assert layers["operator.rhs.calls"] == 1730
    assert layers["operator.apply_constraints.calls"] == 1730
    assert layers["integrators.steps"] == 1471
    assert layers["integrators.observe.calls"] == 1475
    # one stacked norm call per block of up to 64 samples: 22 for Euler's
    # 1401 samples, one each for df, rkc and rkl
    assert layers["metrics.error_norms.calls"] == 25
