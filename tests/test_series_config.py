import dataclasses
import hashlib
import math
import re
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stswall import cases, config
from stswall.config import CaseConfig, load_config, parse_duration, parse_time_function
from stswall.errors import ConfigError, IngestionError
from stswall.model import BoundaryForcing, _zero
from stswall.operator import SemiDiscreteOperator
from stswall.series import (
    BoundarySeries, ingest_boundary_series, synthetic_climate_values, write_synthetic_climate,
)


class TestIngestion:
    def write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(textwrap.dedent(text))
        return path

    def test_linear_interpolation(self, tmp_path):
        path = self.write(tmp_path, """\
            t,val
            0,1
            1,2
        """)
        series = ingest_boundary_series(path)
        assert series.interpolator("val")(0.5) == pytest.approx(1.5)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_names_its_path(self, tmp_path, kind):
        path = tmp_path / "series.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"t,val\n0,\xff\n1,2\n")
        with pytest.raises(IngestionError, match="cannot read series file") as err:
            ingest_boundary_series(path)
        assert str(path) in str(err.value)

    def test_single_row_rejected(self, tmp_path):
        path = self.write(tmp_path, """\
            t,val
            0,1
        """)
        with pytest.raises(IngestionError):
            ingest_boundary_series(path)

    def test_shuffled_rows_name_the_line(self, tmp_path):
        path = self.write(tmp_path, """\
            t,val
            0,1
            2,2
            1,3
        """)
        with pytest.raises(IngestionError, match="line 4"):
            ingest_boundary_series(path)

    def test_first_non_increasing_time_names_its_file_line(self, tmp_path):
        # comments count in the line numbers; a repeated time is rejected too
        path = self.write(tmp_path, """\
            # station 1
            t,val
            0,1
            1,2
            # gap
            1,3
            0.5,4
        """)
        with pytest.raises(IngestionError) as info:
            ingest_boundary_series(path)
        assert str(info.value) == f"{path}: line 6: time 1 not greater than previous 1"

    def test_non_numeric_cell_names_the_line(self, tmp_path):
        path = self.write(tmp_path, """\
            t,val
            0,1
            1,abc
        """)
        with pytest.raises(IngestionError, match="line 3"):
            ingest_boundary_series(path)

    @pytest.mark.parametrize("rows,message", [
        ("0,1\nnan,2\n2,3\n", "line 3: non-finite t nan"),
        ("0,1\n1,2\n2,inf\n", "line 4: non-finite val inf"),
    ], ids=["nan-time", "inf-value"])
    def test_non_finite_cell_names_its_line(self, tmp_path, rows, message):
        # float() parses 'nan' and 'inf'; a NaN time would also slip past the order check
        path = self.write(tmp_path, "t,val\n" + rows)
        with pytest.raises(IngestionError) as info:
            ingest_boundary_series(path)
        assert str(info.value) == f"{path}: {message}"

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, """\
            t,a,b
            0,1,2
            1,3
        """)
        with pytest.raises(IngestionError, match="line 3"):
            ingest_boundary_series(path)

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, """\
            t,val
            0,1
            1,2
        """)
        with pytest.raises(IngestionError, match="no column"):
            ingest_boundary_series(path).interpolator("other")

    def test_span_check(self, tmp_path):
        path = self.write(tmp_path, """\
            t,val
            0,1
            10,2
        """)
        series = ingest_boundary_series(path)
        series.require_span(0.0, 10.0)
        with pytest.raises(IngestionError):
            series.require_span(0.0, 11.0)

    def test_comments_skipped(self, tmp_path):
        path = self.write(tmp_path, """\
            # a comment line
            t,val
            0,1
            1,2
        """)
        assert ingest_boundary_series(path).interpolator("val")(1.0) == 2.0


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestInterpolator:
    """The series interpolant equals ``np.interp`` bit for bit."""

    @staticmethod
    def check(series, times):
        for name, column in series.columns.items():
            fn = series.interpolator(name)
            got = [fn(t) for t in times]
            assert got == np.interp(times, series.time, column).tolist()
            assert all(type(x) is float for x in got)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-6, 1e4), finite), min_size=2, max_size=40),
           finite, st.lists(st.floats(-0.1, 1.1), max_size=60))
    def test_random_series_and_times(self, rows, t0, fractions):
        gaps, values = zip(*rows)
        time = t0 + np.cumsum(gaps)
        series = BoundarySeries(time=time, columns={"val": np.array(values)})
        span = time[-1] - time[0]
        # random times in any order, through, around and outside the span,
        # then every knot forwards and backwards
        times = [float(time[0] + f * span) for f in fractions]
        self.check(series, times + time.tolist() + time[::-1].tolist())

    def test_climate_at_euler_steps_and_knots(self, tmp_path):
        path = tmp_path / "climate.csv"
        write_synthetic_climate(path, days=3.0)
        series = ingest_boundary_series(path)
        euler = (2.04 * np.arange(int(3 * 86400.0 / 2.04) + 2)).tolist()
        self.check(series, euler + series.time.tolist() + [-1.0, 4 * 86400.0])


class TestSyntheticClimate:
    def test_bounds(self):
        t = np.linspace(0.0, 366 * 86400.0, 200_001)
        t_out, theta_out, t_in, theta_in = synthetic_climate_values(t)
        assert t_out.min() >= 271.0 - 1e-9 and t_out.max() <= 301.0 + 1e-9
        for theta in (theta_out, theta_in):
            assert theta.min() >= 0.25 - 1e-9
            assert theta.max() <= 0.53 + 1e-9

    def test_written_file_round_trips(self, tmp_path):
        path = tmp_path / "climate.csv"
        write_synthetic_climate(path, days=3.0, step_hours=2.0)
        series = ingest_boundary_series(path)
        assert set(series.columns) == {"T_out", "theta_out", "T_in", "theta_in"}
        series.require_span(0.0, 3 * 86400.0)
        assert "synthetic" in path.read_text().splitlines()[0]

    @pytest.mark.parametrize("kwargs,digest", [
        (dict(days=3.0, step_hours=2.0),
         "8f52b0b02c0247b0a1930be3c9d895c56a725d63be82b02a63ddca8e07670bde"),
        ({}, "2d1c216421498aac6e72760b9ae64d4f7a843c535831ec50d4e21b33e07482f0"),
    ], ids=["3d-2h", "366d-1h"])
    def test_bytes_are_pinned(self, tmp_path, kwargs, digest):
        # The physical goldens skip the climate file, so its exact bytes
        # (CRLF rows of fixed-precision values) are pinned here.
        path = tmp_path / "climate.csv"
        write_synthetic_climate(path, **kwargs)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_synthetic_climate(a, days=2.0)
        write_synthetic_climate(b, days=2.0)
        assert a.read_bytes() == b.read_bytes()


class TestExpressions:
    def test_closed_form(self):
        fn = parse_time_function("1 + (3/5)*sin(2*pi*t/5)**2")
        assert fn(0.0) == pytest.approx(1.0)
        assert fn(1.25) == pytest.approx(1.6)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            parse_time_function("__import__('os').system('true')")
        with pytest.raises(ConfigError):
            parse_time_function("open('x')")

    def test_syntax_error(self):
        with pytest.raises(ConfigError):
            parse_time_function("1 +")

    @pytest.mark.parametrize("expr", [
        # names inside a nested lambda never reach a check of co_names
        "(lambda: ().__class__.__base__.__subclasses__().__len__())()",
        "t.real", "(1.5).hex()", "[t][0]", "t[0]", "{'a': t}['a']",
        "[x for x in (t,)][0]", "sum(x for x in (t,))", "{x for x in (t,)}",
        "t if t else 1", "t < 1", "1j", "'t'", "True", "sin(x=t)", "sin(*[t])",
        "float(t)", "sin", "x", "(t := 1)",
    ])
    def test_outside_grammar_rejected_at_parse(self, expr):
        with pytest.raises(ConfigError):
            parse_time_function(expr)

    def test_too_deep_nesting_rejected_at_parse(self):
        for expr in ("t+" * 3000 + "t", "-" * 100000 + "t"):
            with pytest.raises(ConfigError):
                parse_time_function(expr)

    def test_overflowing_constant_rejected_at_parse(self):
        # literals are floats, so the tower overflows at once instead of
        # building an integer with hundreds of millions of digits
        for expr in ("9**9**9", "t + 9**9**9", "sin(t) * (-9)**9**9", "1/0"):
            with pytest.raises(ConfigError):
                parse_time_function(expr)

    def test_float_literals_keep_the_values_of_python_arithmetic(self):
        namespace = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt,
                     "log": math.log, "abs": abs, "pi": math.pi}
        exprs = ("1 + (3/5)*sin(2*pi*t/5)**2", "1 + (9/10)*sin(2*pi*t/6)**2",
                 "2**-3 * t - 7 % 3 + abs(-t)", "-(t/3)**3 + sqrt(2) * exp(-t) / log(10)")
        for expr in exprs:
            fn = parse_time_function(expr)
            for t in (0.0, 0.37, 1.25, np.float64(2.4), 1e5):
                want = float(eval(expr, {"__builtins__": {}}, {**namespace, "t": t}))
                assert fn(t) == want


class TestDurations:
    @pytest.mark.parametrize("text,expected", [
        ("365d", 365 * 86400.0), ("2h", 7200.0), ("30min", 1800.0),
        ("7200s", 7200.0), ("7200", 7200.0), (1.5, 1.5),
    ])
    def test_parse(self, text, expected):
        assert parse_duration(text) == expected


class TestConfigFile:
    def test_full_custom_case(self, tmp_path):
        series_path = tmp_path / "bc.csv"
        series_path.write_text("t,T_amb,theta_amb\n0,1.0,1.0\n100,1.2,1.1\n")
        cfg_path = tmp_path / "case.ini"
        cfg_path.write_text(textwrap.dedent("""\
            [case]
            title = a two-material slab

            [grid]
            dx = 0.05

            [time]
            tau = 0.5
            dt_euler = 1e-4

            [schemes]
            run = euler, rkl
            ns_rkl = 8

            [groups]
            fo_m = 0.09
            fo_t = 0.07
            gamma = 0.07
            delta = 0.05

            [biot.left]
            m_theta = 25.5
            t_t = 50.5
            t_theta = 0.496

            [materials]
            names = m1, m2
            m1 = table1_mat1
            m2.d_theta = 0.2
            m2.d_t = 1.0, 0.5
            m2.c_t = 0.3
            m2.k_t = 0.2
            m2.k_tm = 0.1

            [wall]
            layers = m1:0.6, m2:0.4

            [initial]
            u = 1.0
            v = 1.0, 0.8

            [forcing.left]
            kind = robin
            u = 1 + 0.5*sin(2*pi*t/3)**2
            v = 1.0

            [forcing.right]
            kind = dirichlet
            series = bc.csv
            u = T_amb
            v = theta_amb
        """))
        cfg = load_config(cfg_path)
        assert cfg.kind == "verification"     # the kind a file without one has
        assert cfg.dx == 0.05
        assert cfg.schemes == ["euler", "rkl"]
        assert cfg.ns["rkl"] == 8
        assert cfg.groups.biot_left.m_theta == 25.5
        assert cfg.groups.biot_right.m_theta == 0.0
        assert [name for name, _ in cfg.layers] == ["m1", "m2"]
        assert cfg.initial_v == [1.0, 0.8]
        # builtin and polynomial materials
        assert cfg.materials["m1"].d_theta == (0.3,)
        assert cfg.materials["m2"].d_t == (1.0, 0.5)
        # closed-form and series-backed forcing
        assert cfg.forcing_left.u_inf(0.75) == pytest.approx(1.5)
        assert cfg.forcing_right.kind == "dirichlet"
        assert cfg.forcing_right.u_inf(50.0) == pytest.approx(1.1)

    def test_absent_robin_terms_resolve_away(self, tmp_path):
        cfg_path = tmp_path / "case.ini"
        cfg_path.write_text(textwrap.dedent("""\
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
            gamma = 0.07
            delta = 0.05
            alpha = 0.3

            [biot.left]
            m_theta = 25.5
            t_t = 50.5
            t_g = 2.0

            [biot.right]
            m_theta = 51.8
            t_t = 19.8

            [materials]
            m1 = table1_mat1

            [wall]
            layers = m1:1.0

            [forcing.left]
            kind = robin
            u = 1 + 0.5*sin(2*pi*t/3)**2

            [forcing.right]
            kind = robin
            v = 1.2
            flux_t = 0.1*t
        """))
        cfg = load_config(cfg_path)
        left, right = cfg.forcing_left, cfg.forcing_right
        for key in ("g_inf", "flux_m", "flux_t"):
            assert getattr(left, key) is _zero
        assert right.flux_t is not _zero and right.flux_m is _zero
        dom = cases._build_domain(cfg, BoundaryForcing(left, right), cfg.groups)
        wall, grid, state0 = dom.wall, dom.grid, dom.state0
        op = SemiDiscreteOperator(wall, grid, cfg.groups, BoundaryForcing(left, right))
        (_, left_side, _), (_, right_side, _) = op._robin
        assert (left_side.flux_m, left_side.flux_t, left_side.g_inf) == (None, None, None)
        assert right_side.flux_t is right.flux_t

        # The parser used to fill every absent key with the expression "0".
        def spelled_out(sf):
            return dataclasses.replace(sf, **{key: parse_time_function("0") for key in
                                              ("g_inf", "flux_m", "flux_t")
                                              if getattr(sf, key) is _zero})

        before = SemiDiscreteOperator(wall, grid, cfg.groups,
                                      BoundaryForcing(spelled_out(left), spelled_out(right)))
        y = state0 + np.linspace(0.0, 0.2, grid.node_count)
        for t in (0.0, 0.4, 1.3):
            assert np.array_equal(op.rhs(t, y), before.rhs(t, y))

    def test_missing_case_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\ndx = 0.1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_constants_set_the_builtin_water_storage(self, tmp_path):
        path = tmp_path / "case.ini"
        path.write_text("[case]\nkind = physical\n[constants]\nrho2 = 500\nc2 = 4000\n"
                        "[materials]\nre = table3_re\n[wall]\nlayers = re:0.5\n"
                        "[physical]\nconfigurations = re\n")
        assert load_config(path).materials["re"].poly[2] == (1730.0 * 648.0, 2e6)

    def test_physical_tau_days_without_time_section(self, tmp_path):
        # tau keeps its 1 s default, so tau_days is one second in days
        path = tmp_path / "case.ini"
        path.write_text("[case]\nkind = physical\n[materials]\nre = table3_re\n"
                        "[wall]\nlayers = re:0.5\n[physical]\nconfigurations = re\n")
        cfg = load_config(path)
        assert (cfg.tau, cases._tau_days(cfg)) == (1.0, 1.0 / 86400.0)

    def test_unknown_scheme_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(textwrap.dedent("""\
            [case]
            kind = verification
            [schemes]
            run = euler, leapfrog
            [groups]
            fo_m = 1.0
            fo_t = 1.0
            [materials]
            m1 = table1_mat1
            [wall]
            layers = m1:1.0
        """))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_layer_with_unknown_material(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(textwrap.dedent("""\
            [case]
            kind = verification
            [groups]
            fo_m = 1.0
            fo_t = 1.0
            [materials]
            m1 = table1_mat1
            [wall]
            layers = m2:1.0
        """))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_validate_catches_bad_values(self):
        cfg = CaseConfig(kind="verification")
        cfg.materials = {"m": None}
        cfg.layers = [("m", 1.0)]
        cfg.dx = -1.0
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("change,named", [
        ({"admissible_box": (2.0, 1.0, 0.0, 2.0)}, "[box]"),
        ({"admissible_box": (0.5, 2.5, 2.0, 2.0)}, "[box]"),
        ({"admissible_box": (math.nan, 2.5, 0.0, 2.0)}, "[box]"),
        ({"admissible_box": (0.5, math.inf, 0.0, 2.0)}, "[box]"),
        ({"damping_rkc": math.nan}, "damping_rkc"),
        ({"damping_rkc": math.inf}, "damping_rkc"),
        ({"damping_rkc": -0.1}, "damping_rkc"),
    ], ids=["box-inverted", "box-empty", "box-nan", "box-inf", "damping-nan", "damping-inf", "damping-negative"])
    def test_validate_rejects_bad_box_and_damping_in_presets(self, change, named):
        # a box no state fits was reported as a divergence, a NaN damping as a ValueError
        for preset in (cases.verification_preset, cases.physical_preset):
            cfg = dataclasses.replace(preset(), **change)
            with pytest.raises(ConfigError, match=re.escape(named)):
                cfg.validate()


# Every section and key that some case kind reads, with a valid value for
# each kind that reads it; "*" stands for the keys of [materials].
TABLE_FILES = {
    "verification": {
        "case": {"kind": "verification", "title": "every key"},
        "grid": {"dx": "0.1"},
        "time": {"tau": "0.01", "dt_euler": "1e-4", "dt_df": "1e-3", "dt_exp": "auto"},
        "schemes": {"run": "euler, rkl", "ns_rkc": "4", "ns_rkl": "8", "damping_rkc": "0"},
        "constants": {"rho2": "1000", "c2": "4180"},
        "materials": {"names": "m1, m2", "m1": "table1_mat1", "m2.d_theta": "0.2", "m2.d_t": "1.0, 0.5",
                      "m2.c_t": "0.3", "m2.k_t": "0.2", "m2.k_tm": "0.1"},
        "wall": {"layers": "m1:0.6, m2:0.4"},
        "box": {"u_min": "0.5", "u_max": "2.5", "v_min": "0", "v_max": "2"},
        "groups": {"fo_m": "0.09", "fo_t": "0.07", "gamma": "0.07", "delta": "0.05", "alpha": "0.3"},
        **{f"biot.{side}": {"m_theta": "25.5", "t_t": "50.5", "t_theta": "0.496", "t_g": "2"}
           for side in ("left", "right")},
        **{f"forcing.{side}": {"kind": "robin", "series": "bc.csv", "u": "T_amb", "v": "1",
                               "g_inf": "0.1", "flux_m": "0", "flux_t": "0.1*t"}
           for side in ("left", "right")},
        "initial": {"u": "1", "v": "1, 0.8"},
        "output": {"dump_matrix": "false"},
        "sweep": {"ns": "4, 8", "schemes": "rkc, rkl"},
    },
    "physical": {
        "case": {"kind": "physical", "title": "every key"},
        "grid": {"dx": "5e-3"},
        "time": {"tau": "1h", "dt_euler": "2s", "dt_df": "2s", "dt_exp": "auto"},
        "schemes": {"run": "rkc, rkl", "ns_rkc": "4", "ns_rkl": "8", "damping_rkc": "0"},
        "constants": {"rho2": "1000", "c2": "4180", "latent_heat": "2e6"},
        "materials": {"names": "re, ins", "re": "table3_re", "ins": "table3_ins"},
        "wall": {"layers": "re:0.5"},
        "box": {"u_min": "240", "u_max": "320", "v_min": "0", "v_max": "0.6"},
        "physical": {"configurations": "ins_re, re", "drying_scheme": "rkl", "climate": "synthetic"},
    },
}


class TestCaseFileTable:
    """The one table of what each case kind reads, checked from both sides."""

    @staticmethod
    def load(tmp_path, sections, head=""):
        (tmp_path / "bc.csv").write_text("t,T_amb\n0,1.0\n100,1.2\n")
        lines = [head]
        for section, keys in sections.items():
            lines += [f"[{section}]"] + [f"{key} = {text}" for key, text in keys.items()]
        path = tmp_path / "case.ini"
        path.write_text("\n".join(lines) + "\n")
        return load_config(path)

    @pytest.mark.parametrize("kind", sorted(TABLE_FILES))
    def test_a_file_with_every_key_of_its_kind_loads(self, tmp_path, kind):
        sections = TABLE_FILES[kind]
        table = {(section, key) for (section, key), (_, parsers) in config._READS.items() if kind in parsers}
        given = {(section, "*" if section == "materials" else key)
                 for section, keys in sections.items() for key in keys}
        assert given == table
        cfg = self.load(tmp_path, sections)
        assert (cfg.kind, cfg.title, cfg.dt_exp_base) == (kind, "every key", None)
        assert cfg.tau == (3600.0 if kind == "physical" else 0.01)

    @pytest.mark.parametrize("kind", sorted(TABLE_FILES))
    def test_each_key_of_the_other_kind_is_rejected(self, tmp_path, kind):
        other = next(k for k in TABLE_FILES if k != kind)
        for section, keys in TABLE_FILES[other].items():
            for key, text in keys.items():
                if kind in (config._READS.get((section, key)) or config._READS[section, "*"])[1]:
                    continue
                sections = {name: dict(values) for name, values in TABLE_FILES[kind].items()}
                sections.setdefault(section, {})[key] = text
                with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} does not apply to {kind}"):
                    self.load(tmp_path, sections)
            if section not in TABLE_FILES[kind]:    # even empty, the section is an error
                with pytest.raises(ConfigError, match=rf"^\[{section}\] does not apply to {kind}"):
                    self.load(tmp_path, {**TABLE_FILES[kind], section: {}})

    @pytest.mark.parametrize("kind", sorted(TABLE_FILES))
    def test_unknown_sections_and_keys_are_rejected(self, tmp_path, kind):
        sections = TABLE_FILES[kind]
        with pytest.raises(ConfigError, match=r"^\[time\] dt_eulr is not a case-file key"):
            self.load(tmp_path, {**sections, "time": {**sections["time"], "dt_eulr": "1"}})
        with pytest.raises(ConfigError, match=r"^\[tme\] tau is not a case-file key"):
            self.load(tmp_path, {**sections, "tme": {"tau": "1"}})
        with pytest.raises(ConfigError, match=r"^\[tme\] does not apply"):
            self.load(tmp_path, {**sections, "tme": {}})
        # the saturation exchange keys are gone; psat_inf was read and never evaluated
        for side in ("left", "right"):
            for section, key in ((f"biot.{side}", "m_sat"), (f"biot.{side}", "t_sat"),
                                 (f"forcing.{side}", "psat_inf")):
                with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} is not a case-file key"):
                    self.load(tmp_path, {**sections, section: {**sections.get(section, {}), key: "0"}})
        # a [DEFAULT] key is a key of every section
        with pytest.raises(ConfigError, match=r"^\[grid\] title is not a case-file key"):
            self.load(tmp_path, sections, head="[DEFAULT]\ntitle = x")
