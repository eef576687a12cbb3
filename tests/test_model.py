import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stswall.errors import ConfigError
from stswall.model import (
    BiotSet, CoefficientModel, Grid1D, SideForcing, StateField,
    WallAssembly, builtin_material, evaluate_coefficients,
)


class TestMaterials:
    def test_table1_constants(self):
        m1 = builtin_material("table1_mat1")
        assert m1.evaluate(1.0, 1.0) == pytest.approx((0.3, 2.1, 0.1, 0.5, 0.4))
        m2 = builtin_material("table1_mat2")
        assert m2.evaluate(1.3, 0.7) == pytest.approx((0.1, 3.2, 0.3, 0.2, 0.1))
        assert m1.constant and m2.constant

    def test_rammed_earth_moisture_dependence(self):
        re = builtin_material("table3_re")
        d_th, d_t, c_t, k_t, k_tm = re.evaluate(291.3, 0.1)
        # the moisture correction vanishes at v = 0.1
        assert d_th == pytest.approx(1e-7, rel=1e-12)
        assert d_t == pytest.approx(1e-10)
        assert c_t == pytest.approx(1730 * 648 + 1000 * 4180 * 0.1)
        assert k_t == pytest.approx(5 * 0.1 + 0.6)
        assert k_tm == pytest.approx(4e-18)

    def test_insulation(self):
        ins = builtin_material("table3_ins")
        d_th, d_t, c_t, k_t, _ = ins.evaluate(291.3, 0.053)
        assert d_th == pytest.approx(1e-20)
        assert d_t == 0.0
        assert c_t == pytest.approx(146 * 840 + 1000 * 4180 * 0.053)
        assert k_t == pytest.approx(0.4875)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            builtin_material("granite")

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            CoefficientModel.constants("bad", -0.1, 0, 1, 0, 0)
        with pytest.raises(ConfigError):
            CoefficientModel.constants("bad", 0.1, 0, 0.0, 0, 0)  # c_t must be > 0


class TestGrid:
    def test_uniform(self):
        g = Grid1D.uniform(1.0, 101)
        assert g.node_count == 101
        assert g.spacing == pytest.approx(1e-2, rel=1e-14)
        assert g.length == pytest.approx(1.0)

    def test_rejects_non_uniform(self):
        with pytest.raises(ConfigError):
            Grid1D(np.array([0.0, 0.1, 0.3]))

    def test_rejects_non_monotone(self):
        with pytest.raises(ConfigError):
            Grid1D(np.array([0.0, 0.2, 0.1]))


class TestWall:
    def test_two_layer_interfaces(self):
        wall = WallAssembly([(builtin_material("table1_mat1"), 0.6),
                             (builtin_material("table1_mat2"), 0.4)])
        assert wall.total_length == pytest.approx(1.0)
        assert wall.interface_positions == pytest.approx([0.6])

    def test_physical_wall(self):
        wall = WallAssembly([(builtin_material("table3_re"), 0.5),
                             (builtin_material("table3_ins"), 0.125)])
        assert wall.total_length == pytest.approx(0.625)
        assert wall.interface_positions == pytest.approx([0.5])

    def test_single_layer(self):
        wall = WallAssembly([(builtin_material("table3_re"), 0.3)])
        assert wall.total_length == pytest.approx(0.3)
        assert wall.interface_positions.size == 0

    def test_empty_and_bad_thickness(self):
        with pytest.raises(ConfigError):
            WallAssembly([])
        with pytest.raises(ConfigError):
            WallAssembly([(builtin_material("table1_mat1"), 0.0)])

    def test_interface_ownership_is_left_closed(self):
        wall = WallAssembly([(builtin_material("table1_mat1"), 0.6),
                             (builtin_material("table1_mat2"), 0.4)])
        assert wall.layer_index(0.6) == 0
        assert wall.layer_index(0.6 + 1e-12) == 1


class TestEvaluateCoefficients:
    @pytest.fixture
    def wall(self):
        return WallAssembly([(builtin_material("table1_mat1"), 0.6),
                             (builtin_material("table1_mat2"), 0.4)])

    def test_left_layer(self, wall):
        assert evaluate_coefficients(wall, 0.3, 1.0, 1.0) == pytest.approx(
            (0.3, 2.1, 0.1, 0.5, 0.4))

    def test_right_layer(self, wall):
        assert evaluate_coefficients(wall, 0.9, 1.0, 1.0) == pytest.approx(
            (0.1, 3.2, 0.3, 0.2, 0.1))

    def test_out_of_domain(self, wall):
        with pytest.raises(ConfigError):
            evaluate_coefficients(wall, 1.5, 1.0, 1.0)
        with pytest.raises(ConfigError):
            evaluate_coefficients(wall, -0.1, 1.0, 1.0)

    @given(st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=0.0, max_value=0.6))
    def test_piecewise_constant_in_x(self, x1, x2, ):
        wall = WallAssembly([(builtin_material("table1_mat1"), 0.6),
                             (builtin_material("table1_mat2"), 0.4)])
        a = evaluate_coefficients(wall, x1, 1.2, 0.8)
        b = evaluate_coefficients(wall, x2, 1.2, 0.8)
        assert a == b  # bit-identical within one layer

    def test_round_trips_layer_membership_on_grid(self, wall):
        grid = Grid1D.uniform(1.0, 101)
        layers = wall.node_layer_indices(grid)
        for x, idx in zip(grid.node_positions, layers):
            model, _ = wall.layers[idx]
            assert evaluate_coefficients(wall, x, 1.0, 1.0) == model.evaluate(1.0, 1.0)


class TestStateAndForcing:
    def test_state_validation(self):
        with pytest.raises(ConfigError):
            StateField(np.array([1.0, np.nan]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            StateField(np.ones(3), np.ones(4))

    def test_biot_validation(self):
        with pytest.raises(ConfigError):
            BiotSet(m_theta=-1.0)

    def test_forcing_kind(self):
        with pytest.raises(ConfigError):
            SideForcing(kind="neumann", u_inf=lambda t: 1.0, v_inf=lambda t: 1.0)
