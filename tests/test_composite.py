"""The drying layouts outside the comparison table march as one composite
wall: their grids side by side on one state, joined by seam cells that no
real node reads.  A seam cell belongs to the last layer of the wall before
it, so the interface it makes falls on the next wall's first node, a
Dirichlet node whose storage no row reads, and the coefficient pass fixes
up nothing there.  Every result must be the walls' own, bit for bit, and
where it could not be, the walls march one by one."""
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stswall import cases
from stswall.cases import PHYSICAL_INITIAL_T, PHYSICAL_INITIAL_V, physical_preset, run_physical_case
from stswall.config import PHYSICAL_LAYOUTS
from stswall.errors import AssemblyError
from stswall.metrics import drying_rate
from stswall.model import CoefficientModel, DimensionlessGroups
from stswall.operator import SemiDiscreteOperator
from stswall.series import ingest_boundary_series, write_synthetic_climate

DAY_S = 86400.0
TAU = 2.0 * 3600.0      # rkl: 16 cycles and a landing; rkc: 35 and a landing; euler: 3530 steps


@pytest.fixture(scope="module")
def climate(tmp_path_factory):
    path = tmp_path_factory.mktemp("climate") / "climate.csv"
    write_synthetic_climate(path, days=1.0)
    return cases._physical_forcing(ingest_boundary_series(path))


def layout_domains(forcing, names, du=0.0, dv_re=1.0, dv_ins=1.0, **steps):
    """The domains of the layouts ``names``, each wall as run_physical_case builds it."""
    cfg = dataclasses.replace(physical_preset(), tau=TAU, initial_u=PHYSICAL_INITIAL_T + du,
                              initial_v={"re": PHYSICAL_INITIAL_V["re"] * dv_re,
                                         "ins": PHYSICAL_INITIAL_V["ins"] * dv_ins}, **steps)
    groups = DimensionlessGroups(fo_m=1.0, fo_t=1.0, gamma=1.0, delta=cfg.latent_heat)
    return [cases._layout_config(cfg, PHYSICAL_LAYOUTS[name], forcing, groups) for name in names]


def march(dom, scheme, spans):
    """(report, observer) of a drying march of ``dom``, observed at every step."""
    observer = cases._MoistureObserver(dom.grid, spans)
    return cases._run_one_scheme(scheme, dom, observe=observer, observe_every=1), observer


def re_span(dom):
    return dom.spans[cases._re_layer(dom)]


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from(["rkc", "rkl", "euler"]), st.permutations(["ins_re", "re_ins", "re"]), st.integers(2, 3),
       st.floats(-1.0, 1.0), st.floats(0.97, 1.03), st.floats(0.97, 1.03))
def test_composite_march_is_each_walls_own(climate, scheme, order, count, du, dv_re, dv_ins):
    """Final states, moisture totals and drying rates of the composite march are
    byte-equal to the walls' own marches, and so is its Gershgorin bound to the
    largest of theirs, for two and three walls of 101 and 126 nodes in any order,
    under every scheme the composite takes."""
    doms = layout_domains(climate, order[:count], du, dv_re, dv_ins)
    composite, spans = cases._composite_drying(scheme, doms)
    op = composite.operator()
    assert composite.grid.spacing == doms[0].grid.spacing
    assert op.gershgorin_lambda_max(composite.state0[1]) == max(
        dom.operator().gershgorin_lambda_max(dom.state0[1]) for dom in doms)
    report, observer = march(composite, scheme, spans)
    final = np.asarray(report.final_state)
    totals = np.array(observer.totals)
    offset = 0
    for k, dom in enumerate(doms):
        alone, alone_observer = march(dom, scheme, [re_span(dom)])
        n = dom.grid.node_count
        own = final[:, offset:offset + n]
        assert own.tobytes() == np.asarray(alone.final_state).tobytes()
        assert observer.times == alone_observer.times
        theta, theta_alone = totals[:, k], np.array(alone_observer.totals)[:, 0]
        assert theta.tobytes() == theta_alone.tobytes()
        t_days = np.asarray(observer.times) / DAY_S
        assert drying_rate(t_days, theta).tobytes() == drying_rate(t_days, theta_alone).tobytes()
        # the bound on the marched states too, where the moisture has moved
        assert dom.operator().gershgorin_lambda_max(own[1].copy()) <= op.gershgorin_lambda_max(final[1])
        offset += n
    assert op.gershgorin_lambda_max(final[1]) == max(
        dom.operator().gershgorin_lambda_max(final[1, a:a + dom.grid.node_count].copy())
        for dom, a in zip(doms, np.cumsum([0] + [d.grid.node_count for d in doms[:-1]]).tolist()))


def test_seams_need_dirichlet_sides_and_two_nodes_a_wall(climate):
    dom = layout_domains(climate, ["re"])[0]
    for seams in [(0,), (99,), (50, 51)]:
        with pytest.raises(AssemblyError, match="side by side"):
            SemiDiscreteOperator(dom.wall, dom.grid, dom.groups, dom.forcing, seams=seams)
    op = SemiDiscreteOperator(dom.wall, dom.grid, dom.groups, dom.forcing, seams=(50, 98))
    fixed = [j for j, _ in op._dirichlet]
    assert fixed == [0, 50, 51, 98, 99, 100]
    assert not op._stencil(dom.state0[1])[..., fixed].any()
    assert not op.rhs(0.0, dom.state0)[:, fixed].any()
    y = dom.state0.copy()
    op.apply_constraints(0.0, y)
    u_left, v_left = dom.forcing.left.u_inf(0.0), dom.forcing.left.v_inf(0.0)
    u_right, v_right = dom.forcing.right.u_inf(0.0), dom.forcing.right.v_inf(0.0)
    assert y[:, fixed].tolist() == [[u_left, u_right] * 3, [v_left, v_right] * 3]


def drying_run(tmp_path, name, composite=True, rebuilds=None, **changes):
    """(result, output files, march log) of a drying run; ``composite=False``
    marches every layout alone, as the per-wall path does.  Each march's
    schedule rebuild count goes into the list ``rebuilds`` if given."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        for runner in ("sts_run", "euler_run", "dufort_frankel_run"):
            def logged(op, *args, _run=getattr(cases, runner), **kwargs):
                log.append((op.n, bool(op._seams)))
                report = _run(op, *args, **kwargs)
                if rebuilds is not None:
                    rebuilds.append(report.flags.get("schedule_rebuilds", 0))
                return report
            mp.setattr(cases, runner, logged)
        if not composite:
            mp.setattr(cases, "_composite_drying", lambda scheme, doms: None)
        cfg = physical_preset()
        cfg.schemes, cfg.tau = ["rkl"], TAU
        for key, value in changes.items():
            setattr(cfg, key, value)
        out = tmp_path / name
        result = run_physical_case(cfg, out)
    files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out)) if f.endswith(".csv")}
    return result, files, log


def scrub(manifest):
    """A manifest without its timing fields."""
    if isinstance(manifest, dict):
        return {k: scrub(v) for k, v in manifest.items() if k != "created_at" and "cpu" not in k}
    return manifest


def without_cpu(files):
    """CSV bytes with comparison.csv's cpu cells dropped."""
    out = dict(files)
    out["comparison.csv"] = b"\n".join(b",".join(row.split(b",")[:10]) for row in files["comparison.csv"].split(b"\n"))
    return out


class TestSelection:

    def test_preset_marches_the_other_layouts_as_one_wall(self, tmp_path):
        res, files, log = drying_run(tmp_path, "composite")
        # ins_re alone (the table's rkl row), then re_ins and re side by side
        assert log == [(126, False), (227, True)]
        alone, alone_files, alone_log = drying_run(tmp_path, "alone", composite=False)
        assert alone_log == [(126, False), (126, False), (101, False)]
        assert without_cpu(files) == without_cpu(alone_files)
        assert scrub(res.manifest) == scrub(alone.manifest)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverging_wall_marches_alone(self, tmp_path):
        # an insulation whose moisture diffusivity turns negative: every wall with
        # it runs away, and re_ins takes the composite down with it
        materials = dict(physical_preset().materials)
        materials["ins"] = CoefficientModel.polynomials("ins", d_theta=[1e-8, -2e-6], d_t=0.0,
                                                        c_t=[146.0 * 840.0, 4.18e6], k_t=0.4875, k_tm=1e-17)
        res, files, log = drying_run(tmp_path, "composite", materials=materials, tau=DAY_S)
        assert log[:2] == [(126, False), (227, True)] and log[2:4] == [(126, False), (101, False)]
        alone, alone_files, _ = drying_run(tmp_path, "alone", composite=False, materials=materials, tau=DAY_S)
        assert res.failures == alone.failures
        assert sorted(res.failures) == ["drying-ins_re", "drying-re_ins", "rkl"]
        assert "diverged" in res.failures["drying-re_ins"]
        assert list(res.totals) == ["re"]
        assert without_cpu(files) == without_cpu(alone_files)

    def test_a_days_drying_computes_the_bound_only_for_the_entry_checks(self, tmp_path, monkeypatch):
        # every cycle's state stays inside the box, whose bound is within the
        # schedule's design value, so no cycle refreshes the bound
        calls = []
        bound = SemiDiscreteOperator.gershgorin_lambda_max

        def counted(self, *args, **kwargs):
            calls.append(self.n)
            return bound(self, *args, **kwargs)

        monkeypatch.setattr(SemiDiscreteOperator, "gershgorin_lambda_max", counted)
        res, _, log = drying_run(tmp_path, "day", tau=DAY_S)
        assert log == [(126, False), (227, True)] and calls == [126, 227]     # sts_run's checks
        assert res.reports["rkl"].n_steps > 200 and not res.failures

    def test_a_composite_that_rebuilds_its_schedule_marches_its_walls_alone(self, tmp_path, monkeypatch):
        # the composite's refreshes read a bound above the schedule's design value
        # (about 4.3x the walls' bound), so it rebuilds once and marches on; its
        # box bound is inflated as much, so that no cycle skips its refresh
        bound, box_bound = SemiDiscreteOperator.gershgorin_lambda_max, SemiDiscreteOperator.gershgorin_box_bound

        def inflated(self, v=None, coeffs=None):
            lam = bound(self, v, coeffs)
            return 5.0 * lam if self._seams and coeffs is not None else lam

        def inflated_box(self):
            return 5.0 * box_bound(self) if self._seams else box_bound(self)

        monkeypatch.setattr(SemiDiscreteOperator, "gershgorin_lambda_max", inflated)
        monkeypatch.setattr(SemiDiscreteOperator, "gershgorin_box_bound", inflated_box)
        rebuilds = []
        res, files, log = drying_run(tmp_path, "composite", rebuilds=rebuilds)
        assert log == [(126, False), (227, True), (126, False), (101, False)]
        assert rebuilds == [0, 1, 0, 0]     # the composite finished, and was set aside
        alone, alone_files, _ = drying_run(tmp_path, "alone", composite=False)
        assert without_cpu(files) == without_cpu(alone_files) and not res.failures

    def test_df_drying_marches_each_wall_alone(self, tmp_path):
        _, _, log = drying_run(tmp_path, "df", drying_scheme="df", dt_df=2.0, tau=600.0)
        assert log[:3] == [(126, False), (126, False), (101, False)]

    def test_auto_steps_march_each_wall_alone(self, tmp_path, monkeypatch):
        seen = []
        select = cases._composite_drying

        def recording(scheme, doms):
            seen.extend(dom.cfg.dt_exp_base for dom in doms)
            return select(scheme, doms)

        monkeypatch.setattr(cases, "_composite_drying", recording)
        _, _, log = drying_run(tmp_path, "auto", dt_euler=None, dt_exp_base=None, tau=3600.0)
        assert len(set(seen)) == 2      # each layout's own estimate
        assert log == [(126, False), (126, False), (101, False)]
