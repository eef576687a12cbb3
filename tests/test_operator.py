import bisect
import copy
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stswall import cases, operator as operator_module
from stswall.cases import PHYSICAL_INITIAL_T, PHYSICAL_INITIAL_V, physical_preset
from stswall.config import PHYSICAL_LAYOUTS, parse_time_function
from stswall.errors import AssemblyError, ConfigError
from stswall.model import (
    COEFFICIENT_NAMES, BiotSet, BoundaryForcing, CoefficientModel, DimensionlessGroups,
    Grid1D, SideForcing, WallAssembly, _zero, builtin_material,
)
from stswall.operator import SemiDiscreteOperator, _harmonic, apply_robin_closure

from frozen_stencil import interior_weights
from polynomials import horner

TABLE1_GROUPS = dict(fo_m=9e-2, fo_t=7e-2, gamma=7e-2, delta=5e-2)


def constant_forcing(u=1.0, v=1.0):
    return SideForcing.robin(lambda t: u, lambda t: v)


def dirichlet_forcing(u=1.0, v=1.0):
    return SideForcing.dirichlet(lambda t: u, lambda t: v)


def physical_op(layout, sides="dirichlet"):
    """Nonlinear dimensional operator on a named layer layout at dx = 5 mm.

    ``sides="robin"`` gives both sides the linear exchange terms; the
    walls' polynomial materials keep the operator nonlinear.
    """
    names = {"re": "table3_re", "ins": "table3_ins"}
    wall = WallAssembly([(builtin_material(names[m]), th) for m, th in layout])
    grid = Grid1D(wall.total_length, int(round(wall.total_length / 5e-3)) + 1)
    if sides == "dirichlet":
        forcing = BoundaryForcing(dirichlet_forcing(285.0, 0.3), dirichlet_forcing(293.0, 0.4))
        biot = BiotSet()
    else:
        side = SideForcing.robin(lambda t: 285.0 + t, lambda t: 0.3)
        forcing = BoundaryForcing(side, side)
        biot = BiotSet(m_theta=1e-6, t_t=5.0, t_theta=2.0)
    groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0, gamma=1.0, delta=2.5e6,
                                 biot_left=biot, biot_right=biot)
    return SemiDiscreteOperator(wall, grid, groups, forcing)


def layers_at(wall, x, tol=0.0):
    """Layer owning each coordinate of ``x`` (x <= x_int maps left): a
    bisection over the interface positions, written apart from
    ``WallAssembly.node_spans``."""
    return np.array([bisect.bisect_left(wall.interface_positions, xi - tol) for xi in x])


def face_layers(op):
    """Layer owning each face, by its midpoint."""
    x = op.grid.node_positions
    return layers_at(op.wall, 0.5 * (x[:-1] + x[1:]))


def in_box_state(n, seed):
    rng = np.random.default_rng(seed)
    return np.array([285 + 10 * rng.random(n), 0.05 + 0.4 * rng.random(n)])


INS_RE = [("ins", 0.125), ("re", 0.5)]
RE_INS = [("re", 0.5), ("ins", 0.125)]


def table1_wall():
    return WallAssembly([(builtin_material("table1_mat1"), 0.5),
                         (builtin_material("table1_mat2"), 0.5)])


def single_layer_op(n=11, d_theta=1.0, k_t=1.0, c_t=1.0, gamma=0.0, delta=0.0,
                    fo_m=1.0, fo_t=1.0, kind="dirichlet", biot=None, length=1.0):
    mat = CoefficientModel.constants("mat", d_theta, 1.0 if gamma else 0.0, c_t, k_t, 0.0)
    wall = WallAssembly([(mat, length)])
    grid = Grid1D(length, n)
    groups = DimensionlessGroups(fo_m=fo_m, fo_t=fo_t, gamma=gamma, delta=delta,
                                 biot_left=biot or BiotSet(), biot_right=biot or BiotSet())
    side = dirichlet_forcing() if kind == "dirichlet" else constant_forcing()
    forcing = BoundaryForcing(side, side)
    return SemiDiscreteOperator(wall, grid, groups, forcing)


class TestAssembly:
    def test_interface_must_sit_on_a_node(self):
        wall = WallAssembly([(builtin_material("table1_mat1"), 0.55),
                             (builtin_material("table1_mat2"), 0.45)])
        grid = Grid1D(1.0, 11)  # nodes at multiples of 0.1; 0.55 is not one
        groups = DimensionlessGroups(**TABLE1_GROUPS)
        forcing = BoundaryForcing(dirichlet_forcing(), dirichlet_forcing())
        with pytest.raises(AssemblyError):
            SemiDiscreteOperator(wall, grid, groups, forcing)

    def test_grid_must_cover_wall(self):
        wall = table1_wall()
        grid = Grid1D(0.9, 10)
        with pytest.raises(AssemblyError):
            SemiDiscreteOperator(wall, grid, DimensionlessGroups(**TABLE1_GROUPS),
                                 BoundaryForcing(dirichlet_forcing(), dirichlet_forcing()))


class TestInteriorStencil:
    def test_second_difference_row(self):
        # unit diffusivity, dx = 0.1: the classic (-100, 200, -100) row
        op = single_layer_op(n=11)
        a = op.frozen_matrix()
        j = 5
        n = op.n
        assert a[j, j - 1] == pytest.approx(-100.0)
        assert a[j, j] == pytest.approx(200.0)
        assert a[j, j + 1] == pytest.approx(-100.0)
        assert a[n + j, n + j] == pytest.approx(200.0)

    def test_decoupled_when_cross_factors_vanish(self):
        op = single_layer_op(n=11, kind="robin", biot=BiotSet(m_theta=2.0, t_t=3.0))
        u = 1.0 + 0.1 * np.sin(np.linspace(0, 3, 11))
        v = 1.0 + 0.1 * np.cos(np.linspace(0, 3, 11))
        du0, dv0 = op.rhs(0.0, np.stack([u, v]))
        du1, dv1 = op.rhs(0.0, np.stack([u, v + 0.05]))        # perturb moisture only
        assert du1 == pytest.approx(du0, abs=1e-15)
        du2, dv2 = op.rhs(0.0, np.stack([u + 0.05, v]))        # perturb temperature only
        assert dv2 == pytest.approx(dv0, abs=1e-15)

    def test_five_node_two_layer_matrix_against_hand_assembly(self):
        # Independent brute-force assembly of the 5-node instance: Dirichlet
        # ends, interface at the middle node, Table-1 coefficients.
        wall = table1_wall()
        grid = Grid1D(1.0, 5)
        groups = DimensionlessGroups(**TABLE1_GROUPS)
        forcing = BoundaryForcing(dirichlet_forcing(), dirichlet_forcing())
        op = SemiDiscreteOperator(wall, grid, groups, forcing)
        a = op.frozen_matrix()

        fo_m, fo_t, gam, dlt = 0.09, 0.07, 0.07, 0.05
        d1, dt1, c1, k1, ktm1 = 0.3, 2.1, 0.1, 0.5, 0.4
        d2, dt2, c2, k2, ktm2 = 0.1, 3.2, 0.3, 0.2, 0.1
        dx2 = 0.25 ** 2
        expected = np.zeros((10, 10))
        # u-row, node 1 (both faces in material 1)
        cu = fo_t / (c1 * dx2)
        expected[1, 0], expected[1, 1], expected[1, 2] = -k1 * cu, 2 * k1 * cu, -k1 * cu
        expected[1, 5], expected[1, 6], expected[1, 7] = (
            -dlt * ktm1 * cu, 2 * dlt * ktm1 * cu, -dlt * ktm1 * cu)
        # u-row, interface node 2: one-sided fluxes, averaged storage
        cu2 = fo_t / (0.5 * (c1 + c2) * dx2)
        expected[2, 1], expected[2, 3] = -k1 * cu2, -k2 * cu2
        expected[2, 2] = (k1 + k2) * cu2
        expected[2, 6], expected[2, 8] = -dlt * ktm1 * cu2, -dlt * ktm2 * cu2
        expected[2, 7] = dlt * (ktm1 + ktm2) * cu2
        # u-row, node 3 (material 2)
        cu3 = fo_t / (c2 * dx2)
        expected[3, 2], expected[3, 3], expected[3, 4] = -k2 * cu3, 2 * k2 * cu3, -k2 * cu3
        expected[3, 7], expected[3, 8], expected[3, 9] = (
            -dlt * ktm2 * cu3, 2 * dlt * ktm2 * cu3, -dlt * ktm2 * cu3)
        # v-rows (no storage division)
        cv = fo_m / dx2
        expected[6, 5], expected[6, 6], expected[6, 7] = -d1 * cv, 2 * d1 * cv, -d1 * cv
        expected[6, 0], expected[6, 1], expected[6, 2] = (
            -gam * dt1 * cv, 2 * gam * dt1 * cv, -gam * dt1 * cv)
        expected[7, 6], expected[7, 8] = -d1 * cv, -d2 * cv
        expected[7, 7] = (d1 + d2) * cv
        expected[7, 1], expected[7, 3] = -gam * dt1 * cv, -gam * dt2 * cv
        expected[7, 2] = gam * (dt1 + dt2) * cv
        expected[8, 7], expected[8, 8], expected[8, 9] = -d2 * cv, 2 * d2 * cv, -d2 * cv
        expected[8, 2], expected[8, 3], expected[8, 4] = (
            -gam * dt2 * cv, 2 * gam * dt2 * cv, -gam * dt2 * cv)
        assert a == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestRobinClosure:
    def verification_setup(self):
        groups = DimensionlessGroups(
            fo_m=9e-2, fo_t=7e-2, gamma=7e-2, delta=5e-2,
            biot_left=BiotSet(m_theta=25.5, t_t=50.5, t_theta=0.496),
            biot_right=BiotSet(m_theta=51.8, t_t=19.8, t_theta=0.673),
        )
        forcing = BoundaryForcing(
            SideForcing.robin(lambda t: 1 + 0.6 * math.sin(2 * math.pi * t / 5) ** 2,
                              lambda t: 1 + 0.2 * math.sin(2 * math.pi * t / 2) ** 2),
            SideForcing.robin(lambda t: 1 + 0.5 * math.sin(2 * math.pi * t / 3) ** 2,
                              lambda t: 1 + 0.9 * math.sin(2 * math.pi * t / 6) ** 2),
        )
        return groups, forcing

    def test_equilibrium_gives_zero_flux(self):
        groups, forcing = self.verification_setup()
        state = np.array([np.full(5, forcing.left.u_inf(0.0)),
                          np.full(5, forcing.left.v_inf(0.0))])
        r_m, r_t = apply_robin_closure("left", state, 0.0, groups, forcing)
        assert r_m == pytest.approx(0.0, abs=1e-14)
        assert r_t == pytest.approx(0.0, abs=1e-14)

    def test_single_term_substitution(self):
        groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0,
                                     biot_left=BiotSet(m_theta=25.5))
        forcing = BoundaryForcing(constant_forcing(u=1.0, v=1.0), constant_forcing())
        state = np.array([np.ones(4), np.full(4, 1.1)])   # v - v_inf = 0.1
        r_m, r_t = apply_robin_closure("left", state, 0.0, groups, forcing)
        assert r_m == pytest.approx(2.55, rel=1e-14)
        assert r_t == pytest.approx(0.0, abs=1e-15)

    def test_peak_forcing_against_hand_transcription(self):
        # t = 1.25 puts the left temperature forcing at its peak
        groups, forcing = self.verification_setup()
        state = np.array([np.full(3, 1.2), np.full(3, 1.05)])
        r_m, r_t = apply_robin_closure("left", state, 1.25, groups, forcing)
        u_inf = 1 + 0.6 * math.sin(2 * math.pi * 1.25 / 5) ** 2   # = 1.6 at the peak
        v_inf = 1 + 0.2 * math.sin(2 * math.pi * 1.25 / 2) ** 2
        assert u_inf == pytest.approx(1.6, rel=1e-14)
        expected_m = 25.5 * (1.05 - v_inf)
        expected_t = 50.5 * (1.2 - u_inf) + 0.496 * (1.05 - v_inf)
        assert r_m == pytest.approx(expected_m, rel=1e-13)
        assert r_t == pytest.approx(expected_t, rel=1e-13)

    def test_dissipative_orientation_in_operator(self):
        # surface above ambient must be pulled down by the boundary terms
        groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0,
                                     biot_left=BiotSet(m_theta=2.0, t_t=2.0))
        forcing = BoundaryForcing(constant_forcing(u=1.0, v=1.0), dirichlet_forcing())
        mat = CoefficientModel.constants("m", 0.1, 0.0, 1.0, 0.1, 0.0)
        op = SemiDiscreteOperator(WallAssembly([(mat, 1.0)]), Grid1D(1.0, 6),
                                  groups, forcing)
        u = np.ones(6)
        v = np.ones(6)
        u[0] = 1.2
        v[0] = 1.3
        du, dv = op.rhs(0.0, np.stack([u, v]))
        assert du[0] < 0
        assert dv[0] < 0

    def test_radiation_heats_both_sides(self):
        groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0, alpha=0.5,
                                     biot_left=BiotSet(t_g=2.0), biot_right=BiotSet(t_g=2.0))
        sun = SideForcing.robin(lambda t: 1.0, lambda t: 1.0, g_inf=lambda t: 1.0)
        mat = CoefficientModel.constants("m", 0.1, 0.0, 1.0, 0.1, 0.0)
        op = SemiDiscreteOperator(WallAssembly([(mat, 1.0)]), Grid1D(1.0, 6),
                                  groups, BoundaryForcing(sun, sun))
        du, dv = op.rhs(0.0, np.ones((2, 6)))
        assert du[0] > 0 and du[-1] > 0

    def test_closure_requires_robin_side(self):
        groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0)
        forcing = BoundaryForcing(dirichlet_forcing(), constant_forcing())
        with pytest.raises(ConfigError):
            apply_robin_closure("left", np.ones((2, 3)), 0.0, groups, forcing)


class TestStabilityEstimate:
    def test_pure_diffusion_bound(self):
        op = single_layer_op(n=11)   # unit diffusivity, dx = 0.1
        lam = op.gershgorin_lambda_max()
        assert lam == pytest.approx(400.0, rel=1e-13)
        assert 2.0 / lam == pytest.approx(5e-3, rel=1e-13)    # the explicit limit

    def test_degenerate_zero_stiffness(self):
        op = single_layer_op(n=11, d_theta=0.0, k_t=0.0)
        assert op.gershgorin_lambda_max() == 0.0

    def test_bound_dominates_dense_spectral_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d, k, c = rng.uniform(0.05, 2.0, 3)
            biot = BiotSet(m_theta=rng.uniform(0, 30), t_t=rng.uniform(0, 30))
            op = single_layer_op(n=9, d_theta=d, k_t=k, c_t=c, gamma=0.05, delta=0.03,
                                 kind="robin", biot=biot)
            lam_g = op.gershgorin_lambda_max()
            rho = np.max(np.abs(np.linalg.eigvals(op.frozen_matrix())))
            assert lam_g >= rho * (1 - 1e-12)

    def test_fast_row_sum_matches_dense_matrix(self):
        # linear case
        op = single_layer_op(n=9, kind="robin", biot=BiotSet(m_theta=3.0, t_t=4.0))
        dense = float(np.max(np.sum(np.abs(op.frozen_matrix()), axis=1)))
        assert op.gershgorin_lambda_max() == pytest.approx(dense, rel=1e-14)
        # nonlinear cases at an off-reference state: the two-layer wall with
        # Dirichlet sides, and a three-layer wall with Robin sides
        multi = [("ins", 0.125), ("re", 0.5), ("ins", 0.125)]
        for op in (physical_op(INS_RE), physical_op(multi, "robin")):
            state = in_box_state(op.n, 3)
            dense = float(np.max(np.sum(np.abs(op.frozen_matrix(state[1])), axis=1)))
            assert op.gershgorin_lambda_max(state[1]) == pytest.approx(dense, rel=1e-14)

    def test_verification_operator_admits_published_step(self):
        wall = WallAssembly([(builtin_material("table1_mat1"), 0.6),
                             (builtin_material("table1_mat2"), 0.4)])
        grid = Grid1D(1.0, 101)
        groups = DimensionlessGroups(
            **TABLE1_GROUPS,
            biot_left=BiotSet(m_theta=25.5, t_t=50.5, t_theta=0.496),
            biot_right=BiotSet(m_theta=51.8, t_t=19.8, t_theta=0.673),
        )
        forcing = BoundaryForcing(constant_forcing(), constant_forcing())
        op = SemiDiscreteOperator(wall, grid, groups, forcing)
        lam = op.gershgorin_lambda_max()
        assert 1.0 / 28000.0 < 2.0 / lam
        # the row-sum bound must also dominate the dense spectral radius here
        rho = np.max(np.abs(np.linalg.eigvals(op.frozen_matrix())))
        assert lam >= rho * (1 - 1e-12)


class TestLinearForm:
    def make_linear_op(self):
        groups = DimensionlessGroups(
            **TABLE1_GROUPS,
            biot_left=BiotSet(m_theta=25.5, t_t=50.5, t_theta=0.496),
            biot_right=BiotSet(m_theta=51.8, t_t=19.8, t_theta=0.673),
        )
        forcing = BoundaryForcing(
            SideForcing.robin(lambda t: 1 + 0.1 * math.sin(t), lambda t: 1.0),
            SideForcing.robin(lambda t: 1.0, lambda t: 1 + 0.3 * math.cos(t)),
        )
        wall = table1_wall()
        grid = Grid1D(1.0, 21)
        return SemiDiscreteOperator(wall, grid, groups, forcing)

    def test_rhs_matches_matrix_form_on_random_states(self):
        op = self.make_linear_op()
        assert op.is_linear
        a = op.frozen_matrix()
        rng = np.random.default_rng(11)
        for t in (0.0, 0.37, 2.0):
            b = op.rhs(t, np.zeros((2, op.n))).reshape(-1)
            y = 1.0 + 0.2 * rng.standard_normal(2 * op.n)
            got = op.rhs(t, y.reshape(2, op.n)).reshape(-1)
            want = -a @ y + b
            scale = np.max(np.abs(want)) + 1.0
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_matrix_dump_round_trips(self, tmp_path):
        op = single_layer_op(n=5)
        path = tmp_path / "matrix.txt"
        op.dump_matrix(path)
        lines = path.read_text().strip().splitlines()
        head = lines[0].split()
        assert head[0] == "%" and int(head[1]) == 10
        a = op.frozen_matrix()
        for line in lines[1:4]:
            i, j, val = line.split()
            assert float(val) == pytest.approx(a[int(i), int(j)], rel=1e-15)
        assert len(lines) - 1 == int(np.count_nonzero(a))


class TestConservation:
    def test_zero_flux_moisture_conservation(self):
        # all exchange terms off, no cross coupling: the moisture content
        # (trapezoid over the finite-volume cells) is invariant
        mat = CoefficientModel.constants("m", 0.3, 0.0, 1.0, 0.2, 0.0)
        wall = WallAssembly([(mat, 1.0)])
        grid = Grid1D(1.0, 41)
        groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0)
        forcing = BoundaryForcing(constant_forcing(), constant_forcing())
        op = SemiDiscreteOperator(wall, grid, groups, forcing)
        x = grid.node_positions
        u = 1.0 + 0.3 * np.sin(np.pi * x)
        v = 1.0 + 0.5 * np.exp(-20 * (x - 0.4) ** 2)
        dt = 0.2 * 2.0 / op.gershgorin_lambda_max()

        def trapezoid(f):
            return grid.spacing * (np.sum(f) - 0.5 * (f[0] + f[-1]))

        total0 = trapezoid(v)
        for _ in range(1000):
            du, dv = op.rhs(0.0, np.stack([u, v]))
            u += dt * du
            v += dt * dv
        drift = abs(trapezoid(v) - total0)
        assert drift < 1e-8

    def test_interface_flux_continuity_on_steady_state(self):
        # gamma = delta = 0, Dirichlet ends; solve the discrete steady state
        # and compare one-sided fluxes from each layer at the interface
        wall = table1_wall()
        grid = Grid1D(1.0, 21)
        groups = DimensionlessGroups(fo_m=0.09, fo_t=0.07)
        forcing = BoundaryForcing(dirichlet_forcing(u=1.0, v=1.0),
                                  dirichlet_forcing(u=2.0, v=2.0))
        op = SemiDiscreteOperator(wall, grid, groups, forcing)
        a = op.frozen_matrix()
        b = op.rhs(0.0, np.zeros((2, op.n))).reshape(-1)    # rhs = -A y + b
        y = np.zeros(2 * op.n)
        op.apply_constraints(0.0, y.reshape(2, op.n))
        pinned = [0, op.n - 1, op.n, 2 * op.n - 1]
        free = [i for i in range(2 * op.n) if i not in pinned]
        sub = a[np.ix_(free, free)]
        rhs = b[free] - a[np.ix_(free, pinned)] @ y[pinned]
        y[free] = np.linalg.solve(sub, rhs)
        v = y[op.n:]
        j = 10  # interface node (x = 0.5)
        dx = grid.spacing
        flux_left = 0.3 * (v[j] - v[j - 1]) / dx
        flux_right = 0.1 * (v[j + 1] - v[j]) / dx
        assert flux_left == pytest.approx(flux_right, rel=1e-12)


class TestSources:
    def test_source_hooks_add_to_tendencies(self):
        op_plain = single_layer_op(n=6, kind="robin")
        mat = CoefficientModel.constants("mat", 1.0, 0.0, 1.0, 1.0, 0.0)
        wall = WallAssembly([(mat, 1.0)])
        grid = Grid1D(1.0, 6)
        groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0)
        forcing = BoundaryForcing(constant_forcing(), constant_forcing())
        op_src = SemiDiscreteOperator(
            wall, grid, groups, forcing,
            source_u=lambda x, t: np.full_like(x, 2.0),
            source_v=lambda x, t: x * t,
        )
        u = 1.0 + 0.1 * np.sin(grid.node_positions)
        v = np.ones(6)
        du0, dv0 = op_plain.rhs(3.0, np.stack([u, v]))
        du1, dv1 = op_src.rhs(3.0, np.stack([u, v]))
        assert du1 == pytest.approx(du0 + 2.0)
        assert dv1 == pytest.approx(dv0 + grid.node_positions * 3.0)


class TestFaceTables:
    @pytest.mark.parametrize("layout", [INS_RE, RE_INS], ids=["ins_re", "re_ins"])
    @pytest.mark.parametrize("sides", ["dirichlet", "robin"])
    def test_node_blocks_equal_dense_diagonal_blocks(self, layout, sides):
        op = physical_op(layout, sides)
        state = in_box_state(op.n, 17)
        a = op.frozen_matrix(state[1])
        j = np.arange(op.n)
        want = (a[j, j], a[j, j + op.n], a[j + op.n, j], a[j + op.n, j + op.n])
        for got, dense in zip(op.jacobian_node_blocks(state[1]), want):
            assert np.array_equal(got, dense)

    @pytest.mark.parametrize("layout", [INS_RE, RE_INS], ids=["ins_re", "re_ins"])
    def test_table_coefficients_equal_layer_callables(self, layout):
        op = physical_op(layout)
        state = in_box_state(op.n, 23)
        u, v = state
        faces, c = op._coefficients(v)
        face_layer = face_layers(op)
        node_layer = layers_at(op.wall, op.grid.node_positions, 1e-9 * op.dx)
        for f in range(op.n - 1):
            model = op.wall.layers[face_layer[f]][0]
            for row, name in enumerate(("k_t", "k_tm", "d_t", "d_theta")):
                left, right = (float(horner(getattr(model, name), v[i])) for i in (f, f + 1))
                assert faces[row, f] == _harmonic(left, right)
        for j in range(op.n):
            left = horner(op.wall.layers[face_layer[max(j - 1, 0)]][0].c_t, v[j])
            right = horner(op.wall.layers[face_layer[min(j, op.n - 2)]][0].c_t, v[j])
            if left == right:
                assert c[j] == horner(op.wall.layers[node_layer[j]][0].c_t, v[j])
            assert c[j] == 0.5 * (left + right)


def robin_inflow(op, side, t, u_b, v_b):
    """Independent transcription of the linear Robin closure on ``side``:
    the inflow-oriented (moisture, heat) terms at surface values (u_b, v_b)."""
    g, sf = op.groups, op.forcing.side(side)
    biot = g.biot_left if side == "left" else g.biot_right
    d_v = v_b - sf.v_inf(t)
    e_m = biot.m_theta * d_v
    e_t = biot.t_t * (u_b - sf.u_inf(t)) + biot.t_theta * d_v
    return sf.flux_m(t) - e_m, sf.flux_t(t) + g.alpha * biot.t_g * sf.g_inf(t) - e_t


def per_row_rhs(op, t, u, v):
    """Independent per-row transcription of the semi-discrete RHS: the
    separate u/v fluxes and the Robin closure written out term by term."""
    g = op.groups
    dx = op.dx
    faces, c = op._coefficients(v)
    k_t, k_tm, d_t, d_th = faces
    grad_u = (u[1:] - u[:-1]) / dx
    grad_v = (v[1:] - v[:-1]) / dx
    q_m = d_th * grad_v + g.gamma * d_t * grad_u
    q_t = k_t * grad_u + g.delta * k_tm * grad_v
    du = np.zeros_like(u)
    dv = np.zeros_like(v)
    dv[1:-1] = g.fo_m * (q_m[1:] - q_m[:-1]) / dx
    du[1:-1] = g.fo_t * (q_t[1:] - q_t[:-1]) / (dx * c[1:-1])
    for side, j in (("left", 0), ("right", -1)):
        if op.forcing.side(side).kind != "robin":
            continue
        phi_m, phi_t = robin_inflow(op, side, t, u[j], v[j])
        if side == "left":
            dv[j] = g.fo_m * (q_m[j] + phi_m) * 2.0 / dx
            du[j] = g.fo_t * (q_t[j] + phi_t) * 2.0 / (dx * c[j])
        else:
            dv[j] = g.fo_m * (phi_m - q_m[j]) * 2.0 / dx
            du[j] = g.fo_t * (phi_t - q_t[j]) * 2.0 / (dx * c[j])
    return du, dv


def verification_forcing():
    return BoundaryForcing(
        SideForcing.robin(parse_time_function("1 + (3/5)*sin(2*pi*t/5)**2"),
                          parse_time_function("1 + (1/5)*sin(2*pi*t/2)**2")),
        SideForcing.robin(parse_time_function("1 + (1/2)*sin(2*pi*t/3)**2"),
                          parse_time_function("1 + (9/10)*sin(2*pi*t/6)**2")),
    )


def verification_op(forcing):
    groups = DimensionlessGroups(
        **TABLE1_GROUPS,
        biot_left=BiotSet(m_theta=25.5, t_t=50.5, t_theta=0.496),
        biot_right=BiotSet(m_theta=51.8, t_t=19.8, t_theta=0.673),
    )
    wall = WallAssembly([(builtin_material("table1_mat1"), 0.6),
                         (builtin_material("table1_mat2"), 0.4)])
    return SemiDiscreteOperator(wall, Grid1D(1.0, 101), groups, forcing)


def physical_op_n(layout, sides, n):
    """:func:`physical_op` on ``n`` nodes instead of dx = 5 mm."""
    op = physical_op(layout, sides)
    return SemiDiscreteOperator(op.wall, Grid1D(op.wall.total_length, n),
                                op.groups, op.forcing)


class TestStackedState:
    @pytest.mark.parametrize("n", [126, 1001])
    @pytest.mark.parametrize("layout", [INS_RE, RE_INS, [("re", 0.5)]],
                             ids=["ins_re", "re_ins", "re"])
    @pytest.mark.parametrize("sides", ["dirichlet", "robin"])
    def test_rhs_equals_per_row_transcription(self, layout, sides, n):
        op = physical_op_n(layout, sides, n)
        for seed, t in ((3, 0.0), (4, 2.5)):
            state = in_box_state(n, seed)
            got = op.rhs(t, state)
            assert got.shape == (2, n)
            for row, want in zip(got, per_row_rhs(op, t, *state)):
                assert np.array_equal(row, want)

    def test_linear_rhs_equals_per_row_transcription(self):
        op = verification_op(verification_forcing())
        rng = np.random.default_rng(5)
        for t in (0.0, 0.37, 1.25):
            u, v = 1.0 + 0.3 * rng.random((2, op.n))
            got = op.rhs(t, np.stack([u, v]))
            for row, want in zip(got, per_row_rhs(op, t, u, v)):
                assert np.array_equal(row, want)

    @pytest.mark.parametrize("case", ["verification", "physical_robin"])
    def test_wrapped_forcing_gives_identical_rhs(self, case):
        # Wrapped as the benchmark tracer wraps them: pass-through callables
        # in place of every field, the model's zero function among them.
        def passthrough(fn):
            return lambda t: fn(t)

        def wrapped(sf):
            fields = ("u_inf", "v_inf", "psat_inf", "g_inf", "flux_m", "flux_t")
            return dataclasses.replace(sf, **{f: passthrough(getattr(sf, f)) for f in fields})

        if case == "verification":
            forcing = verification_forcing()
            plain = verification_op(forcing)
            traced = verification_op(BoundaryForcing(wrapped(forcing.left),
                                                     wrapped(forcing.right)))
            ys = [np.stack(s) for s in 1.0 + 0.3 * np.random.default_rng(6).random((3, 2, plain.n))]
        else:
            plain = physical_op(INS_RE, "robin")
            traced = SemiDiscreteOperator(
                plain.wall, plain.grid, plain.groups,
                BoundaryForcing(wrapped(plain.forcing.left), wrapped(plain.forcing.right)))
            ys = [in_box_state(plain.n, k) for k in range(3)]
        assert any(f is not None for _, side, _ in traced._robin
                   for f in (side.flux_m, side.flux_t))
        for t, y in zip((0.0, 0.4, 1.25), ys):
            assert np.array_equal(traced.rhs(t, y), plain.rhs(t, y))

    def test_rhs_leaves_state_alone_and_returns_new_array(self):
        op = physical_op(INS_RE, "robin")
        y = in_box_state(op.n, 8)
        before = y.copy()
        first = op.rhs(0.0, y)
        second = op.rhs(0.0, y)
        assert first is not second and np.array_equal(first, second)
        out = np.empty_like(y)
        assert op.rhs(0.0, y, out=out) is out
        third = op.rhs(0.0, y)
        assert third is not out and third is not first and third is not second
        assert np.array_equal(y, before)


positive = st.floats(0.1, 2.0)


@st.composite
def polynomial_walls(draw, side_by_side=False):
    """(operator, stacked state): a random 1-3-layer wall of polynomial
    materials on a grid with its interfaces on nodes, Robin or Dirichlet
    sides, and a random in-box state.

    The wall is all constant, all varying or mixed.  A varying coefficient
    has degree 1 or 2 in the first layer and in some others; a constant
    one has degree 0 in every layer, sometimes written with an explicit
    zero v term, and may be zero (as glass wool's d_t is), except c_t.
    Layers are 1-12 cells thick, so interface nodes may be neighbours and
    an interface may sit next to an end node.  With ``side_by_side`` the
    grid is sometimes split into walls side by side by one or two seams,
    between Dirichlet sides."""
    kind = draw(st.sampled_from(["constant", "varying", "mixed"]))
    varies = {name: kind == "varying" or (kind == "mixed" and draw(st.booleans()))
              for name in COEFFICIENT_NAMES}
    dx = 0.05
    layers = []
    for i in range(draw(st.integers(1, 3))):
        spec = {}
        for name in COEFFICIENT_NAMES:
            if varies[name] and (i == 0 or draw(st.booleans())):
                spec[name] = draw(st.lists(positive, min_size=2, max_size=3))
            else:
                zero = name != "c_t" and draw(st.integers(0, 3)) == 0
                spec[name] = [0.0 if zero else draw(positive)] + [0.0] * draw(st.integers(0, 1))
        layers.append((CoefficientModel.polynomials(f"m{i}", **spec), draw(st.integers(1, 12)) * dx))
    wall = WallAssembly(layers)
    n = int(round(wall.total_length / dx)) + 1
    seams = ()
    if side_by_side and n >= 8 and draw(st.booleans()):       # walls of at least two nodes each
        seams = tuple(sorted(draw(st.sets(st.integers(1, n - 4), min_size=1, max_size=2))))
        if len(seams) == 2 and seams[1] - seams[0] < 2:
            seams = seams[:1]
    biots, sides = [], []
    for _ in range(2):
        if not seams and draw(st.booleans()):
            biots.append(BiotSet(m_theta=draw(positive), t_t=draw(positive), t_theta=draw(positive)))
            sides.append(SideForcing.robin(lambda t: 1.0 + 0.1 * t, lambda t: 0.5))
        else:
            biots.append(BiotSet())
            sides.append(dirichlet_forcing(1.0, 0.5))
    groups = DimensionlessGroups(fo_m=draw(positive), fo_t=draw(positive), gamma=draw(positive),
                                 delta=draw(positive), biot_left=biots[0], biot_right=biots[1])
    op = SemiDiscreteOperator(wall, Grid1D(wall.total_length, n), groups, BoundaryForcing(*sides),
                              seams=seams)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return op, np.stack([0.5 + rng.random(n), 0.05 + 0.9 * rng.random(n)])


wall_cases = settings(derandomize=True, max_examples=40, deadline=None)


def preset_composite_op():
    """The operator of the preset's composite drying wall: re_ins (126
    nodes) and re (101) side by side, joined by a seam cell."""
    cfg = dataclasses.replace(physical_preset(), initial_u=PHYSICAL_INITIAL_T, initial_v=dict(PHYSICAL_INITIAL_V))
    groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0, gamma=1.0, delta=cfg.latent_heat)
    forcing = physical_op(RE_INS).forcing
    doms = [cases._layout_config(cfg, PHYSICAL_LAYOUTS[name], forcing, groups) for name in ("re_ins", "re")]
    composite, _ = cases._composite_drying("rkl", doms)
    return composite.operator()


def mixed_op():
    """The ins_re wall with a Robin left side and a Dirichlet right side."""
    robin = physical_op(INS_RE, "robin")
    return SemiDiscreteOperator(robin.wall, robin.grid, robin.groups,
                                BoundaryForcing(robin.forcing.left, dirichlet_forcing(293.0, 0.4)))


class TestOutputBuffer:
    """``rhs(t, y, out=buf)`` writes the default call's bytes into ``buf``."""

    @pytest.mark.parametrize("make,states", [
        (lambda: verification_op(verification_forcing()),
         lambda n, seed: 1.0 + 0.3 * np.random.default_rng(seed).random((2, n))),
        (lambda: physical_op(INS_RE, "robin"), in_box_state),
        (lambda: physical_op(INS_RE, "dirichlet"), in_box_state),
        (mixed_op, in_box_state),
    ], ids=["verify-robin", "ins_re-robin", "ins_re-dirichlet", "mixed"])
    def test_buffer_is_byte_equal_to_new_array(self, make, states):
        op = make()
        buf = np.full((2, op.n), np.nan)
        for seed, t in ((1, 0.0), (2, 0.37), (3, 1.25)):
            y = states(op.n, seed)
            want = op.rhs(t, y)
            assert op.rhs(t, y, None, buf) is buf
            assert buf.tobytes() == want.tobytes()


@st.composite
def robin_walls(draw, kinds=("constant", "storage", "transport"),
                robin_sides=((True, True), (True, False), (False, True))):
    """(operator, [(t, y), ...]): a one- or two-layer wall whose materials
    are all constant, vary only in storage or vary only in transport; a
    Robin side on the left, the right or both, any other side Dirichlet;
    each Robin side with or without flux terms and with or without
    radiation; random states at random times, the first time twice.
    ``kinds`` and ``robin_sides`` narrow the first two choices."""
    kind = draw(st.sampled_from(kinds))
    dx = 0.05
    layers = []
    for i in range(draw(st.integers(1, 2))):
        spec = {}
        for name in COEFFICIENT_NAMES:
            varies = kind == ("storage" if name == "c_t" else "transport")
            spec[name] = draw(st.lists(positive, min_size=1 + varies, max_size=1 + 2 * varies))
        layers.append((CoefficientModel.polynomials(f"m{i}", **spec), draw(st.integers(2, 8)) * dx))
    wall = WallAssembly(layers)
    n = int(round(wall.total_length / dx)) + 1
    biots, sides = [], []
    for robin in draw(st.sampled_from(robin_sides)):
        if not robin:
            biots.append(BiotSet())
            sides.append(dirichlet_forcing(1.0, 0.5))
            continue
        a = draw(st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5))
        extra, t_g = {}, 0.0
        if draw(st.booleans()):
            extra.update(flux_m=lambda t, a=a: a[2] * math.cos(t),
                         flux_t=lambda t, a=a: a[3] * math.sin(2.0 * t))
        if draw(st.booleans()):
            t_g = draw(positive)
            extra["g_inf"] = lambda t, a=a: 1.0 + a[4] * math.sin(3.0 * t)
        biots.append(BiotSet(m_theta=draw(positive), t_t=draw(positive),
                             t_theta=draw(positive), t_g=t_g))
        sides.append(SideForcing.robin(lambda t, a=a: 1.0 + a[0] * math.sin(t),
                                       lambda t, a=a: 0.5 + a[1] * math.cos(t), **extra))
    groups = DimensionlessGroups(fo_m=draw(positive), fo_t=draw(positive), gamma=draw(positive),
                                 delta=draw(positive), alpha=draw(positive),
                                 biot_left=biots[0], biot_right=biots[1])
    op = SemiDiscreteOperator(wall, Grid1D(wall.total_length, n), groups, BoundaryForcing(*sides))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3))
    return op, [(t, np.stack([0.5 + rng.random(n), 0.05 + 0.9 * rng.random(n)]))
                for t in times[:1] + times]


def robin_rows(op, t, y):
    """{side: (u entry, v entry)} of each Robin side, each written as
    ``fo ((s - e) + sign q) 2 / den`` with the end-face flux q, the half-cell
    denominator den (dx c for u, dx for v) and sign +1 on the left, -1 on
    the right.  The flux terms and radiation s and the surface excess e come
    from :func:`apply_robin_closure` one at a time: with the surface on its
    ambient values e is zero, and with the flux terms and radiation taken
    away s is."""
    g, dx = op.groups, op.dx
    faces, c = op._coefficients(y[1])
    k_t, k_tm, d_t, d_th = faces
    grad_u, grad_v = (y[:, 1:] - y[:, :-1]) / dx
    q_t = k_t * grad_u + g.delta * k_tm * grad_v
    q_m = d_th * grad_v + g.gamma * d_t * grad_u
    rows = {}
    for side, j, sign in (("left", 0, 1.0), ("right", -1, -1.0)):
        sf = op.forcing.side(side)
        if sf.kind != "robin":
            continue
        at_ambient = y.copy()
        at_ambient[:, j] = sf.u_inf(t), sf.v_inf(t)
        s_m, s_t = apply_robin_closure(side, at_ambient, t, g, op.forcing)
        bare = dataclasses.replace(sf, g_inf=_zero, flux_m=_zero, flux_t=_zero)
        e_m, e_t = apply_robin_closure(side, y, t, g, BoundaryForcing(bare, bare))
        rows[side] = (g.fo_t * ((s_t - e_t) + sign * q_t[j]) * 2.0 / (dx * c[j]),
                      g.fo_m * ((s_m - e_m) + sign * q_m[j]) * 2.0 / dx)
    return rows


class TestRobinRows:
    """The RHS writes each Robin side's two entries from constants bound at
    assembly; they must equal the closure's own terms bit for bit."""

    @wall_cases
    @given(robin_walls())
    def test_boundary_rows_equal_closure_transcription(self, case):
        op, samples = case
        for t, y in samples:
            got = op.rhs(t, y).copy()
            rows = robin_rows(op, t, y)
            assert rows
            for side, j in (("left", 0), ("right", -1)):
                want = rows.get(side, (0.0, 0.0))     # a Dirichlet side's rows are zero
                assert np.array([got[0, j], got[1, j]]).tobytes() == np.array(want).tobytes()


class TestLinearRobinForm:
    """The exact verify reference steps rhs(t, y) = -A y + b(t), with A the
    frozen matrix and b = rhs(t, 0) zero but in the four end rows, which
    ``boundary_forcing`` writes bit for bit."""

    @wall_cases
    @given(robin_walls(kinds=["constant"], robin_sides=[(True, True)]))
    def test_rhs_is_frozen_matrix_plus_forcing(self, case):
        op, samples = case
        assert op.is_linear
        a = op.frozen_matrix()
        for t, y in samples:
            b = op.rhs(t, np.zeros_like(y))
            assert not b[:, 1:-1].any()
            assert op.boundary_forcing(t, np.zeros(2 * op.n)).tobytes() == b.tobytes()
            linear = -(a @ y.ravel()).reshape(y.shape)
            scale = max(np.max(np.abs(linear)), np.max(np.abs(b)))
            assert np.max(np.abs(op.rhs(t, y) - (linear + b))) <= 1e-12 * scale

    @wall_cases
    @given(robin_walls(kinds=["constant"], robin_sides=[(True, True)]))
    def test_forcing_at_times_equals_stacked_forcing(self, case):
        # flux terms and radiation included where the wall draws them
        op, samples = case
        times = np.array([[t, t + 0.25, 2.0 * t] for t, _ in samples])
        want = np.array([[op.boundary_forcing(t, np.zeros(2 * op.n)).reshape(2, op.n)[:, ::op.n - 1]
                          for t in row] for row in times.tolist()])
        got = op.boundary_forcing_at(times)
        assert got.shape == (len(times), 3, 2, 2) and got.tobytes() == want.tobytes()

    def test_forcing_at_times_stops_before_a_row_that_raises(self):
        # the right u is log(1 - t) + 1, undefined from t = 1 on; a row holding
        # such a time ends the rows, and raises where it is the first
        forcing = verification_forcing()
        right = dataclasses.replace(forcing.right, u_inf=parse_time_function("1 + log(1 - t)"))
        op = verification_op(BoundaryForcing(forcing.left, right))
        times = np.array([[0.1, 0.2], [0.3, 0.4], [0.9, 1.5], [0.5, 0.6]])
        assert op.boundary_forcing_at(times).tobytes() == op.boundary_forcing_at(times[:2]).tobytes()
        assert op.boundary_forcing_at(times[:0]).shape == (0, 2, 2, 2)
        with pytest.raises(ConfigError, match=r"fails at t=1\.5: math domain error"):
            op.boundary_forcing_at(times[2:])


class TestCoefficientPass:
    """The row-sum bound, the node blocks and the dense matrix read one
    stencil from one coefficient pass; the readers must agree with each
    other and the stencil with the flux-form RHS."""

    @wall_cases
    @given(polynomial_walls())
    def test_interior_rhs_equals_frozen_matrix_product(self, case):
        op, y = case
        a = op.frozen_matrix(y[1])
        flat = y.ravel()
        want = -(a @ flat).reshape(2, op.n)[:, 1:-1]
        scale = (np.abs(a) @ np.abs(flat)).reshape(2, op.n)[:, 1:-1]
        assert np.all(np.abs(op.rhs(0.3, y)[:, 1:-1] - want) <= 1e-14 * scale)

    @wall_cases
    @given(polynomial_walls())
    def test_constant_materials_make_a_linear_operator(self, case):
        # The exchange terms are linear, so whatever the sides, only a varying
        # coefficient makes the operator nonlinear; a linear one is -A y + b(t)
        # with A the same at every state.
        op, y = case
        constant = not any(any(p[1:]) for model, _ in op.wall.layers for p in model.poly)
        assert op.is_linear == constant
        if constant:
            a = op.frozen_matrix(y[1])
            assert np.array_equal(a, op.frozen_matrix())
            b = op.rhs(0.3, np.zeros_like(y))
            want = -(a @ y.ravel()).reshape(2, op.n) + b
            scale = (np.abs(a) @ np.abs(y.ravel())).reshape(2, op.n) + np.abs(b)
            assert np.all(np.abs(op.rhs(0.3, y) - want) <= 1e-13 * scale)

    @wall_cases
    @given(polynomial_walls())
    def test_bound_equals_dense_row_sum(self, case):
        op, y = case
        dense = float(np.max(np.sum(np.abs(op.frozen_matrix(y[1])), axis=1)))
        assert op.gershgorin_lambda_max(y[1]) == pytest.approx(dense, rel=1e-14)

    @wall_cases
    @given(polynomial_walls())
    def test_bound_dominates_dense_spectral_radius(self, case):
        op, y = case
        rho = np.max(np.abs(np.linalg.eigvals(op.frozen_matrix(y[1]))))
        assert op.gershgorin_lambda_max(y[1]) >= rho * (1 - 1e-12)

    @wall_cases
    @given(polynomial_walls())
    def test_node_blocks_equal_dense_diagonal_blocks(self, case):
        op, y = case
        a = op.frozen_matrix(y[1])
        j = np.arange(op.n)
        want = (a[j, j], a[j, j + op.n], a[j + op.n, j], a[j + op.n, j + op.n])
        for got, dense in zip(op.jacobian_node_blocks(y[1]), want):
            assert np.array_equal(got, dense)

    @pytest.mark.parametrize("make", [lambda: verification_op(verification_forcing()),
                                      lambda: physical_op(INS_RE, "robin"),
                                      lambda: physical_op_n(INS_RE, "dirichlet", 1001)],
                             ids=["verify", "ins_re", "fine-grid"])
    def test_node_blocks_are_the_stencil_diagonal(self, make):
        op = make()
        for seed in (1, 2):
            y = in_box_state(op.n, seed)
            assert op.jacobian_node_blocks(y[1]).tobytes() == op._stencil(y[1])[1].tobytes()

    @wall_cases
    @given(polynomial_walls())
    def test_node_blocks_are_the_stencil_diagonal_on_random_walls(self, case):
        op, y = case
        assert op.jacobian_node_blocks(y[1]).tobytes() == op._stencil(y[1])[1].tobytes()

    @wall_cases
    @given(polynomial_walls())
    def test_handed_pass_gives_identical_results(self, case):
        op, y = case
        coeffs = op._coefficients(y[1])
        assert np.array_equal(op.rhs(0.3, y, coeffs=coeffs), op.rhs(0.3, y))
        assert op.gershgorin_lambda_max(y[1], coeffs=coeffs) == op.gershgorin_lambda_max(y[1])
        for got, want in zip(op.jacobian_node_blocks(y[1], coeffs), op.jacobian_node_blocks(y[1])):
            assert np.array_equal(got, want)


class TestFullWidthStencil:
    """The stencil made on full-width rows is byte-equal to the one made on
    interior slices (tests/frozen_stencil.py) for every reader of it, and
    raises no floating-point warning."""

    @staticmethod
    def readings(op, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return [op._stencil(v), op._stencil(v, diagonal=True), op.jacobian_node_blocks(v),
                    op.jacobian_node_blocks(v, op._coefficients(v)), np.array(op.gershgorin_lambda_max(v)),
                    np.array(op.gershgorin_box_bound()), op.frozen_matrix(v), op.frozen_matrix()]

    def check(self, op, states):
        op.admissible_box = (0.0, 2.0, 0.0, 1.0)
        for y in states:
            got = self.readings(op, y[1])
            op._weights = lambda faces, c, diagonal=False: interior_weights(op, faces, c, diagonal)
            want = self.readings(op, y[1])
            del op._weights
            assert np.isfinite(got[5]) and [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @wall_cases
    @given(polynomial_walls(side_by_side=True))
    def test_polynomial_walls(self, case):
        op, y = case
        self.check(op, [y, y[:, ::-1].copy()])

    @wall_cases
    @given(robin_walls())
    def test_robin_walls(self, case):
        op, samples = case
        self.check(op, [y for _, y in samples])


def full_table(op):
    """Horner table of all five coefficients, (terms, side, coefficient, n):
    the v**d term of k_t, k_tm, d_t, d_theta and c_t of the layer on each
    side (0 left, 1 right) of every node."""
    order = ("k_t", "k_tm", "d_t", "d_theta", "c_t")
    face_layer = face_layers(op)
    sides = np.stack([np.r_[face_layer[0], face_layer], np.r_[face_layer, face_layer[-1]]])
    terms = max(len(p) for model, _ in op.wall.layers for p in model.poly)
    layer_tables = np.zeros((len(op.wall.layers), terms, 5))
    for i, (model, _) in enumerate(op.wall.layers):
        for k, name in enumerate(order):
            p = model.poly[COEFFICIENT_NAMES.index(name)]
            layer_tables[i, :len(p), k] = p
    return layer_tables[sides].transpose(2, 0, 3, 1)


def full_table_pass(op, v):
    """Transcription of the full-table coefficient pass: all five
    coefficients on both sides of every node by Horner's rule, then the
    harmonic means of the faces and the half-cell average of the storage."""
    table = full_table(op)
    vals = table[-1]
    for row in table[-2::-1]:
        vals = vals * v
        vals += row
    a, b = vals[1, :4, :-1], vals[0, :4, 1:]
    return 2.0 * a * b / (a + b + 1e-300), 0.5 * (vals[0, 4] + vals[1, 4])


def read_by_rows(op):
    """(faces, nodes): masks of the faces, (n-1,), and the storage values,
    (n,), that some row of the RHS or the stencil reads.  A Dirichlet node's
    row is zero, so a face between two of them (a seam cell) and a Dirichlet
    node's storage are read by none."""
    live = np.ones(op.n, dtype=bool)
    live[[j for j, _ in op._dirichlet]] = False
    return live[:-1] | live[1:], live


def full_table_rhs(op, t, y):
    """The RHS from :func:`full_table_pass`: flux factors scaled from the
    faces, the stacked flux divergence and the closure of :func:`robin_inflow`,
    in the order of operations of the operator's RHS."""
    g, n, dx = op.groups, op.n, op.dx
    faces, c = full_table_pass(op, y[1])
    cu, cv, grad = np.zeros((3, 2, n))
    cu[:, :-1] = faces[0::2] * np.array([[1.0], [g.gamma]])
    cv[:, :-1] = faces[1::2] * np.array([[g.delta], [1.0]])
    den = np.full((2, n), dx)
    den[0] = c * dx
    grad.ravel()[:-1] = y.ravel()[1:] - y.ravel()[:-1]
    grad /= dx
    flux = cu * grad[0]
    flux += cv * grad[1]
    out = np.zeros((2, n))
    fo = np.repeat([g.fo_t, g.fo_m], n)
    out.ravel()[1:-1] = (flux.ravel()[1:-1] - flux.ravel()[:-2]) * fo[1:-1] / den.ravel()[1:-1]
    for j, _, sign in op._robin:
        phi_m, phi_t = robin_inflow(op, "left" if j == 0 else "right", t, float(y[0, j]), float(y[1, j]))
        face = 0 if j == 0 else n - 2
        out[0, j] = g.fo_t * (phi_t + sign * float(flux[0, face])) * 2.0 / float(den[0, j])
        out[1, j] = g.fo_m * (phi_m + sign * float(flux[1, face])) * 2.0 / dx
    if op.source_u is not None:
        out[0] += op.source_u(op.grid.node_positions, t)
    if op.source_v is not None:
        out[1] += op.source_v(op.grid.node_positions, t)
    for j, _ in op._dirichlet:
        out[:, j] = 0.0
    return out


def poisoned_rhs(op, t, y):
    """``op.rhs(t, y)`` with every array numpy allocates uninitialised
    during the call filled with NaN first."""
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "empty", nan_empty)
        return op.rhs(t, y)


class TestStateDependentRows:
    """The pass evaluates only the rows that vary with the state and fixes
    the rest at assembly; every result must equal the full-table pass's."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(polynomial_walls(side_by_side=True))
    def test_results_equal_full_table_pass(self, case):
        # one-cell layers put interface nodes side by side and next to the
        # ends, and seams next to interfaces: every fix-up of the pass
        op, y = case
        full = copy.copy(op)        # the same operator fed by the full-table pass
        full._coefficients = lambda v: full_table_pass(op, v)
        (want_faces, want_c), (faces, c) = full_table_pass(op, y[1]), op._coefficients(y[1])
        read_faces, read_c = read_by_rows(op)
        assert np.array_equal(faces[:, read_faces], want_faces[:, read_faces])
        assert np.array_equal(c[read_c], want_c[read_c])
        assert np.array_equal(op.rhs(0.3, y), full_table_rhs(op, 0.3, y))
        assert op.gershgorin_lambda_max(y[1]) == full.gershgorin_lambda_max(y[1])
        for got, want in zip(op.jacobian_node_blocks(y[1]), full.jacobian_node_blocks(y[1])):
            assert np.array_equal(got, want)

    @wall_cases
    @given(polynomial_walls())
    def test_stale_pass_is_made_again(self, case):
        op, a = case
        b = a[:, ::-1].copy()
        pass_a = op._coefficients(a[1])
        op.rhs(0.3, b)
        assert np.array_equal(op.rhs(0.3, a, coeffs=pass_a), op.rhs(0.3, a))
        assert np.array_equal(op.rhs(0.3, a, coeffs=pass_a), full_table_rhs(op, 0.3, a))
        pass_a = op._coefficients(a[1])
        op.jacobian_node_blocks(b[1])
        assert op.gershgorin_lambda_max(a[1], coeffs=pass_a) == op.gershgorin_lambda_max(a[1])

    @wall_cases
    @given(polynomial_walls())
    def test_rhs_writes_every_entry(self, case):
        # Robin or Dirichlet on each side, drawn or unit Fourier numbers,
        # with and without sources: no entry of the output keeps its NaN.
        op, y = case
        biot = BiotSet(m_theta=0.5, t_t=0.7, t_theta=0.2)
        sides = {"robin": SideForcing.robin(lambda t: 1.0 + 0.1 * t, lambda t: 0.5),
                 "dirichlet": dirichlet_forcing(1.0, 0.5)}
        sources = {"source_u": lambda x, t: np.sin(x) + t, "source_v": lambda x, t: x * x - t}
        g = op.groups
        for left, right in itertools.product(sides, repeat=2):
            for fo_t, fo_m in ((g.fo_t, g.fo_m), (1.0, 1.0)):
                groups = dataclasses.replace(g, fo_t=fo_t, fo_m=fo_m, biot_left=biot, biot_right=biot)
                for kwargs in ({}, sources):
                    other = SemiDiscreteOperator(op.wall, op.grid, groups,
                                                 BoundaryForcing(sides[left], sides[right]), **kwargs)
                    want = full_table_rhs(other, 0.3, y)
                    assert np.array_equal(poisoned_rhs(other, 0.3, y), want)
                    out = np.full((2, other.n), np.nan)     # a caller's buffer, NaN-poisoned
                    assert other.rhs(0.3, y, out=out) is out and np.array_equal(out, want)
                    assert out.tobytes() == other.rhs(0.3, y).tobytes()

    @pytest.mark.parametrize("make, interface", [(lambda: physical_op(INS_RE), 25),
                                                 (lambda: physical_op(RE_INS), 100),
                                                 (preset_composite_op, 100)],
                             ids=["ins_re", "re_ins", "composite"])
    def test_table3_walls_fix_k_tm_and_d_t(self, make, interface):
        op = make()
        faces, _ = op._coefficients(in_box_state(op.n, 5)[1])
        fixed = faces[1:3].copy()
        op._coefficients(in_box_state(op.n, 6)[1])
        assert np.array_equal(faces[1:3], fixed)
        # the table holds k_t, d_theta and c_t of each node's right-face layer
        assert np.array_equal(op._table[::-1], full_table(op)[:, 1, [0, 3, 4]])
        # one fix-up, at the interface re|ins or ins|re; on the composite none
        # at the seam, whose interface (node 126) is a Dirichlet node
        (i, fixes), = op._fixups
        assert i == interface
        polys = [poly for poly, _, _, _ in fixes]
        assert [face for *_, face in fixes] == [True, True, False]     # k_t, d_theta, then c_t
        assert polys[2][1]      # the left layer's c_t varies
        if i == 25:     # ins_re: glass wool's k_t and d_theta are constants
            assert polys[:2] == [(0.4875, ()), (1e-20, ())]

    def test_constant_wall_does_no_horner_work(self, monkeypatch):
        calls = []
        horner = operator_module._horner
        monkeypatch.setattr(operator_module, "_horner",
                            lambda *args: calls.append(1) or horner(*args))
        const = SemiDiscreteOperator(table1_wall(), Grid1D(1.0, 101),
                                     DimensionlessGroups(**TABLE1_GROUPS),
                                     BoundaryForcing(constant_forcing(), constant_forcing(0.5, 2.0)))
        y = np.stack([np.linspace(1.0, 2.0, 101), np.linspace(0.5, 1.5, 101)])
        first = const.rhs(0.0, y)
        for _ in range(5):
            assert np.array_equal(const.rhs(0.0, y), first)
        const.gershgorin_lambda_max(y[1])
        const.jacobian_node_blocks(y[1])
        assert calls == []
        physical = physical_op(INS_RE)
        state = in_box_state(physical.n, 2)
        for _ in range(3):
            physical.rhs(0.0, state)
        assert len(calls) == 3



@st.composite
def boxed_walls(draw):
    """(operator, v_min, v_max, shifted, rng): a random nonlinear 1-3-layer
    wall whose coefficients are polynomials of degree 0-3 that stay
    non-negative over [v_min, v_max] of its admissible box (the storage
    positive), between Robin or Dirichlet sides, or a composite of walls
    side by side with seams between Dirichlet sides.  ``shifted``
    polynomials have non-negative terms in (v - v_min)**d, which cancel in
    the operator's power basis; the others have non-negative power terms."""
    v_min = draw(st.floats(0.0, 0.5))
    v_max = v_min + draw(st.floats(0.05, 1.0))
    shifted = draw(st.booleans())

    def polynomial(least):
        terms = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
        terms[0] += least
        if shifted:     # raised where needed to the v**0 term a material needs, which only adds
            terms = np.polynomial.Polynomial(terms)(np.polynomial.Polynomial([-v_min, 1.0])).coef.tolist()
            terms[0] = max(terms[0], least)
        return terms

    dx = 0.05
    layers = [(CoefficientModel.polynomials(f"m{i}", *[polynomial(0.1 if name == "c_t" else 0.0)
                                                      for name in COEFFICIENT_NAMES]),
               draw(st.integers(2, 12)) * dx)
              for i in range(draw(st.integers(1, 3)))]
    wall = WallAssembly(layers)
    n = int(round(wall.total_length / dx)) + 1
    robin = [draw(st.booleans()) for _ in range(2)]
    biots = [BiotSet(m_theta=draw(positive), t_t=draw(positive), t_theta=draw(positive)) if r else BiotSet()
             for r in robin]
    sides = [SideForcing.robin(lambda t: 1.0, lambda t: 0.5) if r else dirichlet_forcing(1.0, 0.5) for r in robin]
    seams = ()
    if not any(robin) and n >= 8:      # walls of at least two nodes each
        seams = tuple(sorted(draw(st.sets(st.integers(1, n - 4), max_size=2))))
        if len(seams) == 2 and seams[1] - seams[0] < 2:
            seams = seams[:1]
    groups = DimensionlessGroups(fo_m=draw(positive), fo_t=draw(positive), gamma=draw(positive),
                                 delta=draw(positive), biot_left=biots[0], biot_right=biots[1])
    op = SemiDiscreteOperator(wall, Grid1D(wall.total_length, n), groups, BoundaryForcing(*sides),
                              seams=seams)
    op.admissible_box = (0.0, 2.0, v_min, v_max)        # set after assembly, as the tests of marches do
    return op, v_min, v_max, shifted, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


class TestBoxBound:
    """gershgorin_box_bound bounds the Gershgorin bound of every state whose
    v lies in the admissible box, and is inf where it could not."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(boxed_walls())
    def test_bounds_every_state_in_the_box(self, case):
        op, v_min, v_max, shifted, rng = case
        bound = op.gershgorin_box_bound()
        assert shifted or math.isfinite(bound)      # interval Horner is exact on non-negative power terms
        ends = np.array([v_min, v_max])
        for v in [rng.uniform(v_min, v_max, op.n), rng.choice(ends, op.n), np.full(op.n, v_min),
                  np.full(op.n, v_max), np.where(np.arange(op.n) % 2, v_min, v_max)]:
            assert op.gershgorin_lambda_max(v) <= bound

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(boxed_walls(), st.sampled_from(COEFFICIENT_NAMES), st.floats(0.05, 0.95))
    def test_coefficient_not_positive_in_the_box_gives_inf(self, case, name, where):
        # the coefficient falls linearly through 0 (c_t: to 0) at a v inside the box
        op, v_min, v_max, _, _ = case
        root = v_min + where * (v_max - v_min)
        model, thickness = op.wall.layers[-1]
        spec = dict(zip(COEFFICIENT_NAMES, model.poly))
        spec[name] = [root, -1.0]
        layers = (*op.wall.layers[:-1], (CoefficientModel.polynomials("falling", **spec), thickness))
        other = SemiDiscreteOperator(WallAssembly(layers), op.grid, op.groups, op.forcing,
                                     admissible_box=op.admissible_box, seams=tuple(op._seams or ())[::2])
        assert other.gershgorin_box_bound() == math.inf

    def test_coefficient_whose_least_value_is_zero_gets_a_finite_bound(self):
        # d_theta = 0.5 v is exactly 0 at v_min = 0: valid, and the bound's
        # rounding slack must not read it as negative
        model = CoefficientModel.polynomials("rising", d_theta=[0.0, 0.5], d_t=0.0, c_t=1.0, k_t=0.1, k_tm=0.0)
        op = SemiDiscreteOperator(WallAssembly([(model, 1.0)]), Grid1D(1.0, 11),
                                  DimensionlessGroups(fo_m=1.0, fo_t=1.0, gamma=1.0, delta=1.0),
                                  BoundaryForcing(dirichlet_forcing(1.0, 0.5), dirichlet_forcing(1.0, 0.5)),
                                  admissible_box=(0.0, 2.0, 0.0, 1.0))
        bound = op.gershgorin_box_bound()
        assert op.gershgorin_lambda_max(np.ones(op.n)) == pytest.approx(200.0, rel=1e-15)
        assert bound == pytest.approx(200.0, rel=1e-11)
        rng = np.random.default_rng(0)
        for v in [np.zeros(op.n), np.ones(op.n), np.where(np.arange(op.n) % 2, 0.0, 1.0),
                  *rng.uniform(0.0, 1.0, (20, op.n))]:
            assert op.gershgorin_lambda_max(v) <= bound

    def test_no_box_gives_inf_and_the_preset_walls_a_finite_bound(self):
        for layout in (INS_RE, RE_INS, [("re", 0.5)]):
            op = physical_op(layout)
            assert op.gershgorin_box_bound() == math.inf
            op.admissible_box = (240.0, 320.0, 0.0, 0.6)
            assert 0.0 < op.gershgorin_box_bound() < math.inf
