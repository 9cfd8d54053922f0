"""Monte-Carlo harness: reproducibility, aggregation identities, scenario I/O."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavewhittle import estimator, montecarlo
from wavewhittle.arfima import simulate_arfima
from wavewhittle.errors import CovarianceError, ScenarioError
from wavewhittle.estimator import estimate_panel, estimate_univariate_each
from wavewhittle.montecarlo import (
    MCReport,
    Scenario,
    load_scenario,
    omega_from_rho,
    parse_scenario_mapping,
    rate_check,
    ratio_m_u,
    run_scenario,
)


def small_scenario(**kw):
    base = dict(
        d=[0.2, 0.2],
        omega=omega_from_rho(0.4),
        n_samples=256,
        replications=12,
        seed=314,
        j0=1,
        j1=5,
    )
    base.update(kw)
    return Scenario(**base)


def report_payload(report):
    """Serialized report minus the wall-clock runtime field."""
    data = report.to_dict()
    data.pop("runtime_seconds")
    return json.dumps(data)


def test_report_is_bit_reproducible():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario())
    assert report_payload(a) == report_payload(b)


def test_different_seed_changes_results():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario(seed=315))
    assert a.record("d_1")["bias"] != b.record("d_1")["bias"]


def test_rmse_decomposition_identity():
    report = run_scenario(small_scenario(replications=20))
    for rec in report.records:
        assert rec["rmse"] ** 2 == pytest.approx(rec["bias"] ** 2 + rec["std"] ** 2, abs=1e-12)
        assert rec["std"] >= 0


def test_single_replication_degenerate_stats():
    report = run_scenario(small_scenario(replications=1))
    for rec in report.records:
        assert rec["std"] == 0.0
        assert rec["rmse"] == pytest.approx(abs(rec["bias"]), abs=1e-15)


def test_quantities_present():
    report = run_scenario(small_scenario(replications=3))
    names = {rec["quantity"] for rec in report.records}
    assert names == {"d_1", "d_2", "omega_1_1", "omega_1_2", "omega_2_2", "corr_1_2"}
    assert report.record("corr_1_2")["truth"] == pytest.approx(0.4)
    assert report.n_failures == 0


def test_ratio_requires_univariate_and_is_paired():
    ratios = ratio_m_u(small_scenario(replications=8))
    assert ratios.shape == (2,)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    with pytest.raises(ScenarioError):
        ratio_m_u(small_scenario(include_univariate=False))


def test_workers_do_not_change_results():
    serial = run_scenario(small_scenario(replications=8))
    parallel = run_scenario(small_scenario(replications=8), workers=2)
    assert report_payload(serial) == report_payload(parallel)


def test_all_failures_raise():
    # j0 beyond the feasible depth fails every replication
    bad = small_scenario(n_samples=64, j0=3, j1=None, replications=4)
    with pytest.raises(ScenarioError):
        run_scenario(bad)


def test_non_embeddable_scenario_fails_once(monkeypatch):
    # the embedding check runs before any replication is dispatched, so the
    # error is not swallowed into "all replications failed"
    calls = []
    monkeypatch.setattr(montecarlo, "_replication_worker", calls.append)
    edge = small_scenario(d=[0.0, 0.49], omega=omega_from_rho(0.99), n_samples=512)
    for workers in (1, 2):
        with pytest.raises(CovarianceError, match="not positive definite"):
            run_scenario(edge, workers=workers)
    assert calls == []


@pytest.mark.parametrize("path", ["scenarios/table1_row3.cfg",
                                  "scenarios/table1_nonstationary.cfg"])
def test_replication_reads_both_fits_from_one_pyramid(monkeypatch, path):
    """A replication builds one pyramid, at the univariate depth, and its
    joint and univariate estimates equal those of the stand-alone calls,
    each with its own pyramid, bit for bit."""
    scenario = load_scenario(path)
    spec, config = scenario.wavelet_spec(), scenario.estimation_config()
    built = []
    dwt_pyramid = estimator.dwt_pyramid
    monkeypatch.setattr(estimator, "dwt_pyramid", lambda *a: built.append(a) or dwt_pyramid(*a))
    for seed in np.random.SeedSequence(scenario.seed).spawn(40):
        out = montecarlo._run_replication(scenario, seed)
        assert len(built) == 1
        built.clear()
        panel = simulate_arfima(scenario.arfima_spec(seed))
        alone = estimate_panel(panel, spec, config)
        assert out["d"].tobytes() == alone.d_hat.tobytes()
        assert out["omega"].tobytes() == alone.omega.tobytes()
        d_univariate = estimate_univariate_each(panel, spec, config)[0]
        assert out["d_univariate"].tobytes() == d_univariate.tobytes()
        built.clear()


def test_scenario_has_no_truncation():
    with pytest.raises(TypeError):
        small_scenario(truncation=2560)
    scenario = small_scenario()
    assert scenario.truncation is None
    with pytest.raises(AttributeError):
        scenario.truncation = 2560
    assert "truncation" not in scenario.echo()


def test_failure_counting_excludes_bad_replications():
    report = run_scenario(small_scenario(replications=6))
    assert report.n_failures == 0
    assert report.n_replications == 6


def test_keep_raw():
    report = run_scenario(small_scenario(replications=5), keep_raw=True)
    assert np.asarray(report.raw["d"]).shape == (5, 2)
    assert "d_univariate" in report.raw


def test_rate_check_structure():
    sc = small_scenario(replications=10, include_univariate=False)
    out = rate_check(sc, [256, 512])
    assert [row["N"] for row in out["rows"]] == [256, 512]
    assert out["loglog_slope"] is not None
    single = rate_check(sc, [256])
    assert single["loglog_slope"] is None
    assert single["monotone_decreasing"] is None
    with pytest.raises(ScenarioError):
        rate_check(sc, [512, 256])


@pytest.mark.slow
def test_rate_check_rmse_decreases():
    sc = small_scenario(replications=60, include_univariate=False, j1=9)
    out = rate_check(sc, [256, 1024])
    assert out["monotone_decreasing"] is True
    assert out["loglog_slope"] < 0


def test_scenario_validation():
    # an invalid omega is a CovarianceError wherever it is given
    with pytest.raises(CovarianceError):
        Scenario(d=[0.2, 0.2], omega=np.eye(3))
    with pytest.raises(CovarianceError):
        Scenario(d=[0.2, 0.2], omega=omega_from_rho(1.5))
    with pytest.raises(ScenarioError):
        Scenario(d=[0.2], omega=np.eye(1), replications=0)
    with pytest.raises(ScenarioError):
        Scenario(d=[np.nan, 0.2], omega=np.eye(2))
    with pytest.raises(ScenarioError):
        Scenario(d=[0.5, 0.2], omega=np.eye(2))
    with pytest.raises(ScenarioError):
        Scenario(d=[4.2], omega=np.eye(1), vanishing_moments=4)
    with pytest.raises(ScenarioError):
        Scenario(d=[0.2], omega=np.eye(1), seed=-1)


@pytest.mark.parametrize("value, expected", [
    (True, True), (False, False), ("false", False), ("No", False), (" off ", False),
    ("true", True), ("yes", True), ("ON", True),
])
def test_univariate_flag_parsed_strictly(value, expected):
    sc = parse_scenario_mapping({"d": [0.2], "univariate": value})
    assert sc.include_univariate is expected


@pytest.mark.parametrize("value", ["maybe", "", 1, 0, None, [True]])
def test_univariate_flag_rejects_non_booleans(value):
    with pytest.raises(ScenarioError):
        parse_scenario_mapping({"d": [0.2], "univariate": value})


def test_parse_scenario_mapping():
    sc = parse_scenario_mapping({
        "d": [0.2, 0.4], "rho": 0.3, "N": 512, "M": 4, "j0": 1, "j1": 9,
        "reps": 50, "seed": 7, "label": "demo",
    })
    assert sc.n_samples == 512 and sc.replications == 50
    assert_allclose(sc.omega, [[1.0, 0.3], [0.3, 1.0]])
    with pytest.raises(ScenarioError):
        parse_scenario_mapping({"d": [0.2], "rho": 0.1, "omega": [[1.0]]})
    with pytest.raises(ScenarioError):
        parse_scenario_mapping({"d": [0.2], "bogus": 1})
    with pytest.raises(ScenarioError):
        parse_scenario_mapping({"rho": 0.1})


def test_load_scenario_keyvalue(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(
        """# demo scenario
label = demo
d = 0.2, 0.4
omega = 1, 0.3; 0.3, 1
N = 300
M = 3
j0 = 1
j1 = 5
reps = 9
seed = 123
univariate = false
""",
        encoding="utf-8",
    )
    sc = load_scenario(path)
    assert sc.label == "demo"
    assert sc.vanishing_moments == 3
    assert sc.replications == 9
    assert sc.include_univariate is False
    assert_allclose(sc.omega, [[1.0, 0.3], [0.3, 1.0]])


def test_load_scenario_json(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps({"d": [0.1], "N": 256, "reps": 4, "seed": 1}), encoding="utf-8")
    sc = load_scenario(path)
    assert sc.n_channels == 1
    assert_allclose(sc.omega, np.eye(1))


def test_load_scenario_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d 0.2, 0.2\n", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_report_files_roundtrip(tmp_path):
    report = run_scenario(small_scenario(replications=4))
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    report.write_json(jpath)
    report.write_csv(cpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["n_replications"] == 4
    assert loaded["scenario"]["seed"] == 314
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "quantity,truth,bias,std,rmse,ratio_mu"
    assert len(lines) == 1 + len(report.records)


def test_bundled_scenarios_parse():
    sc = load_scenario("scenarios/table1_row3.cfg")
    assert sc.n_samples == 512
    assert sc.replications == 1000
    assert sc.j0 == 1
    sc2 = load_scenario("scenarios/table1_nonstationary.cfg")
    assert sc2.j0 == 2
    assert_allclose(sc2.d, [1.2, 1.2])
