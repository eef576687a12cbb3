import math

import numpy as np
import pytest

from stswall.errors import ConfigError
from stswall.integrators import RunReport
from stswall.metrics import (
    COMPARISON_COLUMNS, ComparisonRecord, drying_rate, error_norms, ratios,
    scd_value, total_moisture, write_comparison_csv,
)
from stswall.model import Grid1D, StateField


def make_report(scheme, dt, n_steps, tau=1.0, cpu=1.0, n=5):
    return RunReport(scheme=scheme, dt=dt, tau=tau, n_steps=n_steps,
                     n_t=n_steps + 1, rhs_evals=n_steps, cpu_s=cpu,
                     final_state=StateField(np.ones(n), np.ones(n)))


class TestErrorNorms:
    def test_identical_fields(self):
        assert error_norms(np.ones(5), np.ones(5), 0.25) == (0.0, 0.0)

    def test_constant_offset_on_unit_domain(self):
        n = 101
        dx = 1.0 / (n - 1)
        eps2, epsinf = error_norms(np.full(n, 1e-3), np.zeros(n), dx)
        assert epsinf == pytest.approx(1e-3)
        assert eps2 == pytest.approx(1e-3 * math.sqrt(dx * n), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            error_norms(np.ones(4), np.ones(5), 0.1)

    def test_norm_equivalence(self):
        rng = np.random.default_rng(0)
        n = 64
        dx = 1.0 / (n - 1)
        a, b = rng.random(n), rng.random(n)
        eps2, epsinf = error_norms(a, b, dx)
        assert epsinf >= eps2 / math.sqrt(n)
        assert (epsinf == 0.0) == (eps2 == 0.0)

    @pytest.mark.parametrize("n", [5, 101, 1001])
    def test_stacked_fields_give_per_row_norms(self, n):
        rng = np.random.default_rng(n)
        dx = 1.0 / (n - 1)
        num, ref = rng.standard_normal((2, 2, n))
        eps2, epsinf = error_norms(num, ref, dx)
        assert eps2.shape == epsinf.shape == (2,)
        rows = [error_norms(num[i], ref[i], dx) for i in range(2)]
        assert eps2.tolist() == [r[0] for r in rows]
        assert epsinf.tolist() == [r[1] for r in rows]
        # a tuple of the two fields is stacked the same way
        assert [x.tolist() for x in error_norms(tuple(num), ref, dx)] == [eps2.tolist(), epsinf.tolist()]

    def test_empty_fields(self):
        assert error_norms(np.empty(0), np.empty(0), 0.1) == (0.0, 0.0)


class TestScd:
    def test_two_digits(self):
        assert scd_value(0.01, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_exact_match_capped(self):
        assert scd_value(0.0, 1.0) == 16.0
        assert scd_value(1e-20, 1.0) == 16.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ConfigError):
            scd_value(1.0, 0.0)

    def test_scale_invariance(self):
        assert scd_value(7.3 * 0.02, 7.3 * 1.5) == pytest.approx(scd_value(0.02, 1.5), rel=1e-12)


class TestRatios:
    def test_paper_step_ratio(self):
        euler = make_report("euler", 1 / 28000, 28000)
        rkc = make_report("rkc", 100 / 28000, 280)
        rec = ratios(rkc, euler, tau_days=1.0)
        assert rec.rho_ndt_pct == pytest.approx(1.0)

    def test_physical_step_ratio(self):
        euler = make_report("euler", 2.0175, 15629624, tau=365.0)
        rkl = make_report("rkl", 424.0, 74379, tau=365.0)
        rec = ratios(rkl, euler, tau_days=365.0)
        assert rec.rho_ndt_pct == pytest.approx(0.476, abs=5e-3)

    def test_identical_reports_give_100_percent(self):
        a = make_report("euler", 0.1, 10, cpu=2.0)
        rec = ratios(a, a, tau_days=2.0)
        assert rec.rho_ndt_pct == 100.0
        assert rec.rho_cpu_pct == 100.0
        assert rec.rho_cpu_day_s == pytest.approx(1.0)

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ConfigError):
            ratios(make_report("df", 0.1, 10, tau=1.0),
                   make_report("euler", 0.1, 20, tau=2.0), 1.0)


class TestComparisonCsv:
    def test_fixed_column_order(self, tmp_path):
        rec = ComparisonRecord(scheme="rkc", dt=1e-3, n_t=11, rho_ndt_pct=1.0,
                               eps2_u=1e-3, eps2_v=2e-3, epsinf_u=3e-3, epsinf_v=4e-3,
                               scd_u=2.0, scd_v=2.5, cpu_s=0.5, rho_cpu_pct=7.0,
                               rho_cpu_day_s=0.5)
        path = tmp_path / "cmp.csv"
        write_comparison_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(COMPARISON_COLUMNS)
        cells = lines[1].split(",")
        assert cells[0] == "rkc"
        assert float(cells[3]) == 1.0
        assert float(cells[7]) == 4e-3
        assert path.read_text().endswith("\n")

    def test_failure_row_has_empty_metrics(self, tmp_path):
        rec = ComparisonRecord(scheme="rkc", dt=1e-3, n_t=11, rho_ndt_pct=1.0,
                               status="failed")
        path = tmp_path / "cmp.csv"
        write_comparison_csv([rec], path)
        cells = path.read_text().splitlines()[1].split(",")
        assert cells[4:] == [""] * 9


class TestTotalMoisture:
    def test_constant_field(self):
        grid = Grid1D.uniform(0.3, 61)
        assert total_moisture(np.full(61, 0.5), grid, (0, 60)) == pytest.approx(0.15)

    def test_zero_field(self):
        grid = Grid1D.uniform(0.3, 61)
        assert total_moisture(np.zeros(61), grid, (0, 60)) == 0.0

    def test_linear_ramp(self):
        grid = Grid1D.uniform(1.0, 41)
        v = grid.node_positions.copy()
        # trapezoid is exact for a linear integrand
        assert total_moisture(v, grid, (0, 40)) == pytest.approx(0.5, rel=1e-12)

    def test_additivity_over_partition(self):
        grid = Grid1D.uniform(1.0, 41)
        rng = np.random.default_rng(1)
        v = rng.random(41)
        whole = total_moisture(v, grid, (0, 40))
        split = total_moisture(v, grid, (0, 17)) + total_moisture(v, grid, (17, 40))
        assert whole == pytest.approx(split, rel=1e-12)

    def test_empty_domain_rejected(self):
        grid = Grid1D.uniform(1.0, 11)
        with pytest.raises(ConfigError):
            total_moisture(np.ones(11), grid, (4, 4))
        with pytest.raises(ConfigError):
            total_moisture(np.ones(11), grid, (0, 11))


class TestDryingRate:
    def test_constant_series(self):
        t = np.linspace(0, 1, 50)
        assert drying_rate(t, np.full(50, 0.4)) == pytest.approx(np.zeros(50))

    def test_linear_series(self):
        t = np.linspace(0, 2, 80)
        assert drying_rate(t, 1.0 - t) == pytest.approx(np.full(80, -1.0))

    def test_exponential_against_analytic_derivative(self):
        t = np.arange(0, 1, 1e-3)
        rate = drying_rate(t, np.exp(-t))
        # centred differences: O(dt^2) interior accuracy
        assert np.max(np.abs(rate[1:-1] + np.exp(-t[1:-1]))) < 1e-6

    def test_duplicate_times_rejected(self):
        with pytest.raises(ConfigError):
            drying_rate(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_too_short(self):
        with pytest.raises(ConfigError):
            drying_rate(np.array([0.0]), np.array([1.0]))
