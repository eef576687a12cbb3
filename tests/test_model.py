import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stswall import cli
from stswall.cases import MAX_NODES, VERIFICATION_DT_EULER, _dimensionless_domain, verification_preset
from stswall.errors import AssemblyError, ConfigError
from stswall.integrators import build_schedule, dufort_frankel_run, euler_run, rk4_run, sts_run
from stswall.model import (
    COEFFICIENT_NAMES, BiotSet, BoundaryForcing, CoefficientModel, DimensionlessGroups, Grid1D, SideForcing,
    WallAssembly, builtin_material,
)
from stswall.operator import SemiDiscreteOperator


def coefficients_at(model, u, v):
    """The five coefficients of ``model`` at one state, in COEFFICIENT_NAMES order,
    from its callables."""
    return tuple(float(getattr(model, name)(u, v)) for name in COEFFICIENT_NAMES)


class TestMaterials:
    def test_table1_constants(self):
        m1 = builtin_material("table1_mat1")
        assert coefficients_at(m1, 1.0, 1.0) == pytest.approx((0.3, 2.1, 0.1, 0.5, 0.4))
        m2 = builtin_material("table1_mat2")
        assert coefficients_at(m2, 1.3, 0.7) == pytest.approx((0.1, 3.2, 0.3, 0.2, 0.1))

    def test_rammed_earth_moisture_dependence(self):
        re = builtin_material("table3_re")
        d_th, d_t, c_t, k_t, k_tm = coefficients_at(re, 291.3, 0.1)
        # the moisture correction vanishes at v = 0.1
        assert d_th == pytest.approx(1e-7, rel=1e-12)
        assert d_t == pytest.approx(1e-10)
        assert c_t == pytest.approx(1730 * 648 + 1000 * 4180 * 0.1)
        assert k_t == pytest.approx(5 * 0.1 + 0.6)
        assert k_tm == pytest.approx(4e-18)

    def test_insulation(self):
        ins = builtin_material("table3_ins")
        d_th, d_t, c_t, k_t, _ = coefficients_at(ins, 291.3, 0.053)
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
        g = Grid1D(1.0, 101)
        assert g.node_count == 101
        assert g.spacing == pytest.approx(1e-2, rel=1e-14)
        assert g.length == pytest.approx(1.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(0.0, 10.0, exclude_min=True), st.integers(2, MAX_NODES))
    def test_spacing_and_end_equal_linspace(self, length, n):
        x = np.linspace(0.0, length, n)
        g = Grid1D(length, n)
        assert g.spacing == x[1] - x[0] and g.node_positions[-1] == x[-1] == length

    @pytest.mark.parametrize("length,n", [(0.0, 11), (-1.0, 11), (math.inf, 11), (math.nan, 11), (1.0, 1)])
    def test_rejects_empty_or_infinite(self, length, n):
        with pytest.raises(ConfigError, match="grid needs a finite length > 0 and at least two nodes"):
            Grid1D(length, n)


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
        spans = wall.node_spans(Grid1D(1.0, 101))
        assert spans == [(0, 60), (60, 100)]     # node 60 (x = 0.6) closes layer 0 and opens layer 1
        cfg = verification_preset()
        cfg.initial_v = [0.2, 0.7]
        v0 = _dimensionless_domain(cfg).state0[1]
        assert v0[60] == 0.2 and v0[61] == 0.7


def layers_at(wall, x, tol=0.0):
    """Layer owning each coordinate of ``x`` (x <= x_int maps left): a
    bisection over the interface positions, written apart from
    ``WallAssembly.node_spans``."""
    return np.array([bisect.bisect_left(wall.interface_positions, xi - tol) for xi in x])


class TestEvaluateCoefficients:
    """Every node and face is evaluated with the coefficients of the layer
    that ``WallAssembly.node_spans`` gives it."""

    @pytest.fixture
    def wall(self):
        return WallAssembly([(builtin_material("table1_mat1"), 0.6),
                             (builtin_material("table1_mat2"), 0.4)])

    @staticmethod
    def coefficients(wall, n=101, v=1.0):
        """(faces, storage) of the operator on ``wall`` at the uniform moisture ``v``."""
        grid = Grid1D(wall.total_length, n)
        side = SideForcing.dirichlet(lambda t: 1.0, lambda t: 1.0)
        op = SemiDiscreteOperator(wall, grid, DimensionlessGroups(fo_m=1.0, fo_t=1.0),
                                  BoundaryForcing(side, side))
        return op._coefficients(np.full(n, v))

    def test_left_layer(self, wall):
        faces, c = self.coefficients(wall)
        mat1 = [[0.5], [0.4], [2.1], [0.3]]        # k_t, k_tm, d_t, d_theta
        assert np.allclose(faces[:, :60], mat1, rtol=1e-15, atol=0.0)
        assert np.all(c[:60] == 0.1)

    def test_right_layer(self, wall):
        faces, c = self.coefficients(wall)
        assert np.allclose(faces[:, 60:], [[0.2], [0.1], [3.2], [0.1]], rtol=1e-15, atol=0.0)
        assert np.all(c[61:] == 0.3)

    def test_out_of_domain(self, wall):
        for length in (1.5, 0.5):
            with pytest.raises(AssemblyError, match="does not cover the wall length"):
                wall.node_spans(Grid1D(length, 11))

    @given(st.integers(0, 99), st.integers(0, 99))
    def test_piecewise_constant_in_x(self, j1, j2):
        wall = WallAssembly([(builtin_material("table3_re"), 0.5),
                             (builtin_material("table3_ins"), 0.125)])
        faces, c = self.coefficients(wall, n=126, v=0.08)
        assert c[j1] == c[j2]        # bit-identical within one layer
        assert np.array_equal(faces[:, j1], faces[:, j2])

    def test_round_trips_layer_membership_on_grid(self, wall):
        _, c = self.coefficients(wall)
        for j, layers in enumerate(node_layer_sets(wall.node_spans(Grid1D(1.0, 101)))):
            c_t = [wall.layers[k][0].c_t(1.0, 1.0) for k in layers]
            assert c[j] == pytest.approx(sum(c_t) / len(c_t), rel=1e-15)


def node_layer_sets(spans):
    """The layers whose span holds each node: one, or two at an interface."""
    sets = [[] for _ in range(spans[-1][1] + 1)]
    for k, (a, b) in enumerate(spans):
        for j in range(a, b + 1):
            sets[j].append(k)
    return sets


@st.composite
def layered_cases(draw):
    """(verification config, faces per layer): 1-4 constant layers, each a
    whole number of faces of a drawn spacing, with per-layer initial values."""
    dx = draw(st.sampled_from([0.1, 0.05, 0.02, 0.3]))
    counts = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    cfg = verification_preset()
    cfg.dx = dx
    cfg.materials = {f"m{i}": CoefficientModel.constants(f"m{i}", 0.1 + i, 1.0, 0.5 + i, 1.0, 0.0)
                     for i in range(len(counts))}
    cfg.layers = [(f"m{i}", k * dx) for i, k in enumerate(counts)]
    cfg.initial_u = [1.0 + i for i in range(len(counts))]
    cfg.initial_v = [0.1 * (i + 1) for i in range(len(counts))]
    return cfg, counts


class TestNodeSpans:
    """``WallAssembly.node_spans`` is the one map from layers to grid nodes:
    the operator's faces, the initial fields and the storage check read it."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(layered_cases())
    def test_spans_tile_the_grid(self, case):
        cfg, counts = case
        dom = _dimensionless_domain(cfg)
        spans, n = dom.spans, dom.grid.node_count
        assert spans == dom.wall.node_spans(dom.grid)
        assert spans[0][0] == 0 and spans[-1][1] == n - 1
        assert [b - a for a, b in spans] == counts
        assert all(left[1] == right[0] for left, right in zip(spans, spans[1:]))  # shared interfaces
        # each face of the operator takes the layer a bisection at its midpoint
        # gives: m_i's d_theta is 0.1 + i
        x = dom.grid.node_positions
        faces, _ = dom.operator()._coefficients(dom.state0[1])
        mids = layers_at(dom.wall, 0.5 * (x[:-1] + x[1:]))
        assert np.allclose(faces[3], 0.1 + mids, rtol=1e-15, atol=0.0)
        # per-layer initial fields: an interface node keeps the left layer's value
        nodes = layers_at(dom.wall, x, 1e-9 * dom.grid.spacing)
        u0, v0 = dom.state0
        assert np.array_equal(u0, np.asarray(cfg.initial_u)[nodes])
        assert np.array_equal(v0, np.asarray(cfg.initial_v)[nodes])
        for k, (_, b) in enumerate(spans[:-1]):
            assert v0[b] == cfg.initial_v[k]
        # half a face moved across the first interface puts it off every node
        if len(counts) > 1:
            (m0, th0), (m1, th1) = cfg.layers[:2]
            cfg.layers[:2] = [(m0, th0 + 0.5 * cfg.dx), (m1, th1 - 0.5 * cfg.dx)]
            with pytest.raises(AssemblyError, match="does not coincide with an interior grid node"):
                _dimensionless_domain(cfg)

    def test_off_node_interface_exits_1(self, tmp_path, capsys):
        assert cli.main(["verify", "--dx", "0.25", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: interface at x=0.6 does not coincide with an interior grid node")


class TestStateAndForcing:
    def test_state_validation(self):
        # Each runner marches a copy of a finite (2, n) initial state and
        # refuses any other before it steps; a case's initial fields are
        # refused where they are read.
        dom = _dimensionless_domain(verification_preset())
        y0 = dom.state0
        schedule = build_schedule("rkl", 4, VERIFICATION_DT_EULER)
        runners = [lambda op, y: euler_run(op, y, 1e-5, 1e-4), lambda op, y: rk4_run(op, y, 1e-5, 1e-4),
                   lambda op, y: dufort_frankel_run(op, y, 1e-4, 2e-4),
                   lambda op, y: sts_run(op, y, schedule, 1e-4)]
        non_finite = [y0.copy() for _ in range(3)]
        for y, value in zip(non_finite, (np.nan, np.inf, -np.inf)):
            y[1, 7] = value
        for run in runners:
            for y in [y0[:, :-1], y0[0], y0[None], np.vstack([y0, y0[:1]]), y0.T, *non_finite]:
                with pytest.raises(ConfigError, match=r"^initial state must be a finite \(2, 101\) array"):
                    run(dom.operator(), y)
            report = run(dom.operator(), y0)
            assert np.array_equal(y0, np.ones((2, 101))) and not np.shares_memory(report.final_state.u, y0)
        for key in ("initial_u", "initial_v"):
            for value in (math.nan, math.inf, [1.0, -math.inf]):
                cfg = verification_preset()
                setattr(cfg, key, value)
                with pytest.raises(ConfigError, match=f"^initial field {key[-1]} must be finite"):
                    _dimensionless_domain(cfg)

    def test_biot_validation(self):
        with pytest.raises(ConfigError):
            BiotSet(m_theta=-1.0)

    def test_forcing_kind(self):
        with pytest.raises(ConfigError):
            SideForcing(kind="neumann", u_inf=lambda t: 1.0, v_inf=lambda t: 1.0)
