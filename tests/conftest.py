import pytest

DAY_S = 86400.0


@pytest.fixture(scope="session")
def verification_bundle(tmp_path_factory):
    """Full-horizon verification preset run, shared by the acceptance tests."""
    from stswall.cases import run_verification_case, verification_preset
    out = tmp_path_factory.mktemp("acc_verify")
    cfg = verification_preset()
    result = run_verification_case(cfg, out)
    return cfg, result, out


@pytest.fixture(scope="session")
def sweep_bundle(tmp_path_factory):
    from stswall.cases import run_ns_sweep, verification_preset
    out = tmp_path_factory.mktemp("acc_sweep")
    cfg = verification_preset()
    cfg.sweep_ns = [10, 20, 40, 80]
    result = run_ns_sweep(cfg, out_dir=out)
    return cfg, result


@pytest.fixture(scope="session")
def physical_week_bundle(tmp_path_factory):
    """Reduced-horizon physical marching; step counts are checked by formula."""
    from stswall.cases import physical_preset, run_physical_case
    out = tmp_path_factory.mktemp("acc_physical")
    cfg = physical_preset()
    cfg.tau = 7.0 * DAY_S
    result = run_physical_case(cfg, out)
    return cfg, result


@pytest.fixture(scope="session")
def physical_90d_bundle(tmp_path_factory):
    from stswall.cases import physical_preset, run_physical_case
    out = tmp_path_factory.mktemp("acc_drying")
    cfg = physical_preset()
    cfg.tau = 90.0 * DAY_S
    cfg.schemes = ["rkl"]
    result = run_physical_case(cfg, out)
    return cfg, result
