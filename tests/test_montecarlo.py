"""Monte-Carlo harness: reproducibility, aggregation identities, scenario I/O."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavewhittle import arfima, cli, estimator, montecarlo, wavelets
from wavewhittle.arfima import simulate_arfima
from wavewhittle.errors import (ConfigError, CovarianceError, LikelihoodError, ScaleRangeError,
                               ScenarioError)
from wavewhittle.estimator import estimate_panel, estimate_univariate_each
from wavewhittle.montecarlo import (
    SCENARIO_KEYS,
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


def test_report_does_not_depend_on_the_geometry_caches():
    for cache in (wavelets._counts, wavelets._filter_pair, estimator._scale_terms,
                  estimator._pair_indices, montecarlo._report_layout):
        cache.cache_clear()
    cold = run_scenario(small_scenario(replications=4), keep_raw=True)
    warm = run_scenario(small_scenario(replications=4), keep_raw=True)
    assert estimator._scale_terms.cache_info().hits > 0
    assert report_payload(cold) == report_payload(warm)


@pytest.mark.parametrize("univariate", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_scenario_truth_is_built_once(p, univariate):
    """The scenario's truth is what run_scenario built on each call before
    the scenario kept it: d, omega over the pairs l <= m, the correlations
    over the pairs l < m, then d again for the univariate fit; every record
    reads its own.  The kept vector is read-only, and a second run of one
    scenario reports the same records."""
    omega = omega_from_rho(0.3, p) * np.sqrt(np.arange(1, p + 1) * np.arange(1, p + 1)[:, None])
    scenario = Scenario(d=np.linspace(0.1, 0.4, p), omega=omega, n_samples=256, replications=3,
                        seed=11, j0=1, j1=5, include_univariate=univariate)
    rows, cols = np.triu_indices(p)
    upper = rows < cols
    truth = [scenario.d, omega[rows, cols],
             estimator.correlation_from_cov(omega)[rows[upper], cols[upper]]]
    if univariate:
        truth.append(scenario.d)
    expected = np.concatenate(truth).tolist()
    assert scenario.truth.tolist() == expected
    report = run_scenario(scenario)
    # the univariate truths serve the M/U ratios; they have no record of their own
    assert [rec["truth"] for rec in report.records] == expected[:len(report.records)]
    with pytest.raises(ValueError):
        scenario.truth[0] = 0.0
    assert run_scenario(scenario).records == report.records


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


@pytest.mark.parametrize("univariate", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("replications", [1, 2, 7, 40])
def test_records_are_numpy_statistics_of_the_raw_estimates(replications, p, univariate):
    """Each record's bias, std and rmse are np.mean(raw) - truth, np.std(raw)
    and their math.hypot, bit for bit, over the raw estimates the report
    keeps; truth is the scenario's d, omega and correlation, and the M/U
    ratio divides by the univariate rmse formed the same way.  At 40
    replications a sum takes numpy's unrolled blocks, which a reduction
    along a Fortran-ordered array would not."""
    scenario = small_scenario(d=[0.2, 0.3, 0.1][:p], omega=omega_from_rho(0.4, p),
                              replications=replications, include_univariate=univariate)
    report = run_scenario(scenario, keep_raw=True)
    assert report.n_failures == 0 and report.failures == {}
    raw, corr = report.raw, estimator.correlation_from_cov(scenario.omega)
    pairs = list(zip(*(index.tolist() for index in np.triu_indices(p))))
    expected = {f"d_{ell + 1}": (raw["d"][:, ell], scenario.d[ell]) for ell in range(p)}
    expected.update({f"omega_{ell + 1}_{m + 1}": (raw["omega"][:, ell, m], scenario.omega[ell, m])
                     for ell, m in pairs})
    expected.update({f"corr_{ell + 1}_{m + 1}": (raw["correlation"][:, ell, m], corr[ell, m])
                     for ell, m in pairs if ell < m})
    assert [rec["quantity"] for rec in report.records] == list(expected)

    def statistics(values, truth):
        values = np.ascontiguousarray(values)
        bias, std = float(np.mean(values) - truth), float(np.std(values))
        return float(truth), bias, std, math.hypot(bias, std)

    for rec in report.records:
        assert (rec["truth"], rec["bias"], rec["std"], rec["rmse"]) == statistics(
            *expected[rec["quantity"]]), rec["quantity"]
    for ell in range(p):
        ratio = report.record(f"d_{ell + 1}")["ratio_mu"]
        if univariate:
            rmse_u = statistics(raw["d_univariate"][:, ell], scenario.d[ell])[3]
            assert ratio == report.record(f"d_{ell + 1}")["rmse"] / rmse_u
        else:
            assert ratio is None


def test_quantities_present():
    report = run_scenario(small_scenario(replications=3))
    names = {rec["quantity"] for rec in report.records}
    assert names == {"d_1", "d_2", "omega_1_1", "omega_1_2", "omega_2_2", "corr_1_2"}
    assert report.record("corr_1_2")["truth"] == pytest.approx(0.4)
    assert report.n_failures == 0 and report.to_dict()["failures"] == {}


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


@pytest.mark.parametrize("workers, message", [
    (0, "workers must be at least 1, got 0"),
    (-3, "workers must be at least 1, got -3"),
    (1.5, "workers must be an integer, got 1.5"),
    (True, "workers must be an integer, got True"),
])
def test_workers_below_one_or_not_integers_are_refused(monkeypatch, workers, message):
    calls = []
    monkeypatch.setattr(montecarlo, "_replication_worker", calls.append)
    with pytest.raises(ConfigError, match=message):
        run_scenario(small_scenario(replications=2), workers=workers)
    assert calls == []


@pytest.mark.parametrize("replications", [1, 7, 64])
def test_replication_seeds_are_the_spawned_children(monkeypatch, replications):
    """Replication i draws from SeedSequence(seed, spawn_key=(i,)), built
    without a parent: child i of SeedSequence(seed).spawn(R), state for
    state."""
    seeds = []
    monkeypatch.setattr(montecarlo, "_replication_worker",
                        lambda job: seeds.append(job[1]) or "non_converged")
    with pytest.raises(ScenarioError, match="all replications failed"):
        run_scenario(small_scenario(replications=replications, seed=2718))
    spawned = np.random.SeedSequence(2718).spawn(replications)
    assert ([seed.generate_state(4).tolist() for seed in seeds]
            == [child.generate_state(4).tolist() for child in spawned])


def test_infeasible_scale_range_raises_before_any_replication():
    # j0 beyond the feasible depth is the estimator's own error, raised once,
    # when the scenario is built, not "all replications failed"
    with pytest.raises(ScaleRangeError, match="j0=3, j1=3 leaves fewer than two scales"):
        small_scenario(n_samples=64, j0=3, j1=None, replications=4)


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


def assert_record_is_the_public_fit(monkeypatch, scenario, replications=40):
    """A replication builds one pyramid and one scalogram, over the scales of
    its deeper fit, and its record equals the stand-alone ``estimate_panel``
    (d, omega, correlation) and ``estimate_univariate_each`` (d) on its
    panel, bit for bit."""
    spec, config = scenario.wavelet_spec(), scenario.estimation_config()
    deepest = scenario.univariate_scales if scenario.include_univariate else scenario.joint_scales
    built = []
    for name in ("dwt_pyramid", "scalogram"):
        original = getattr(estimator, name)
        spy = lambda *a, original=original: built.append(a) or original(*a)
        for module in (estimator, montecarlo):
            monkeypatch.setattr(module, name, spy)
    for seed in np.random.SeedSequence(scenario.seed).spawn(replications):
        out = montecarlo._run_replication(scenario, seed)
        assert len(built) == 2 and built[1][1:] == deepest
        panel = simulate_arfima(scenario.arfima_spec(seed))
        alone = estimate_panel(panel, spec, config)
        assert out["converged"] is alone.diagnostics["converged"]
        for key, value in (("d", alone.d_hat), ("omega", alone.omega),
                           ("correlation", alone.correlation)):
            assert out[key].tobytes() == value.tobytes()
        if scenario.include_univariate:
            d_univariate = estimate_univariate_each(panel, spec, config)[0]
            assert out["d_univariate"].tobytes() == d_univariate.tobytes()
        else:
            assert "d_univariate" not in out
        built.clear()


@pytest.mark.parametrize("path", ["scenarios/table1_row3.cfg",
                                  "scenarios/table1_nonstationary.cfg"])
def test_replication_reads_both_fits_from_one_pyramid(monkeypatch, path):
    assert_record_is_the_public_fit(monkeypatch, load_scenario(path))


@pytest.mark.parametrize("univariate", [True, False], ids=["univariate", "joint-only"])
def test_replication_record_is_the_public_fit(monkeypatch, univariate):
    """At p = 3, N = 512 and the default j1 the joint fit reads scales 1..5
    and the univariate one 1..6: the joint fit takes the leading levels of
    the one scalogram, which stops at 5 without the univariate fit."""
    scenario = small_scenario(d=[0.1, 0.3, 0.4], omega=omega_from_rho(0.3, 3),
                              n_samples=512, j1=None, include_univariate=univariate)
    assert scenario.joint_scales == (1, 5) and scenario.univariate_scales == (1, 6)
    assert_record_is_the_public_fit(monkeypatch, scenario, replications=20)


def test_replication_builds_no_settings(monkeypatch):
    """A replication fits with the scenario's own spec and config; the
    stand-alone accessors hand back the same objects."""
    scenario = small_scenario()
    built = []
    for cls in (wavelets.WaveletSpec, estimator.EstimationConfig):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, post_init=post_init: built.append(self) or post_init(self))
    for seed in np.random.SeedSequence(scenario.seed).spawn(3):
        montecarlo._run_replication(scenario, seed)
    assert built == []
    assert scenario.wavelet_spec() is scenario.spec
    assert scenario.estimation_config() is scenario.config


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


def run_mc_cli(monkeypatch, scenario, base):
    """``wavewhittle mc --output base`` on a file holding ``scenario``'s echo;
    returns the MCReport that the command wrote to base.json and base.csv."""
    reports = []

    def run(*args, **kwargs):
        reports.append(run_scenario(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(montecarlo, "run_scenario", run)
    path = base.parent / "scenario.json"
    path.write_text(json.dumps(scenario.echo()), encoding="utf-8")
    assert cli.main(["mc", "--scenario", str(path), "--output", str(base)]) == 0
    return reports[0]


def test_failures_are_counted_by_reason(monkeypatch, tmp_path):
    """Every third replication raises, every third hits a one-iteration cap."""
    estimate_d, cap = montecarlo.estimate_d, estimator.NEWTON_MAX_ITERATIONS
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) % 3 == 1:
            raise LikelihoodError("singular G in criterion")
        monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", 1 if len(calls) % 3 == 2 else cap)
        return estimate_d(*args)

    monkeypatch.setattr(montecarlo, "estimate_d", flaky)
    report = run_mc_cli(monkeypatch, small_scenario(replications=9), tmp_path / "report")
    assert report.failures == {"LikelihoodError": 3, "non_converged": 3}
    assert sum(report.failures.values()) == report.n_failures == 6
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["failures"] == report.failures and saved["n_failures"] == 6


def test_non_converged_univariate_fit_drops_the_replication(monkeypatch, tmp_path):
    """Every third univariate fit hits a one-iteration cap: its replication
    is a failure of its own reason, and its converged joint fit is dropped
    with it, so both columns of the M/U ratio come from the same panels."""
    scenario = small_scenario(replications=9)
    clean = run_scenario(scenario, keep_raw=True)
    fit_univariate, cap = montecarlo._fit_univariate, estimator.NEWTON_MAX_ITERATIONS
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) % 3 == 1:
            monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", 1)
        try:
            return fit_univariate(*args)
        finally:
            monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", cap)

    monkeypatch.setattr(montecarlo, "_fit_univariate", flaky)
    report = run_mc_cli(monkeypatch, scenario, tmp_path / "report")
    assert report.failures == {"non_converged_univariate": 3} and report.n_failures == 3
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["failures"] == report.failures
    calls.clear()
    raw = run_scenario(scenario, keep_raw=True).raw
    kept = [i for i in range(9) if i % 3 != 0]
    for key in ("d", "omega", "correlation", "d_univariate"):
        assert raw[key].tobytes() == clean.raw[key][kept].tobytes()


def test_all_non_converged_names_the_reason(monkeypatch):
    scenario = small_scenario(replications=4)
    monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", 1)
    seed = np.random.SeedSequence(scenario.seed).spawn(1)[0]
    assert montecarlo._replication_worker((scenario, seed)) == "non_converged"
    with pytest.raises(ScenarioError, match="all replications failed: {'non_converged': 4}"):
        run_scenario(scenario)


def test_failed_joint_fit_skips_the_univariate_fit(monkeypatch):
    scenario = small_scenario(replications=3)
    monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", 1)

    def spy(*args):
        pytest.fail("the univariate fit ran after a failed joint fit")

    monkeypatch.setattr(montecarlo, "_fit_univariate", spy)
    seed = np.random.SeedSequence(scenario.seed).spawn(1)[0]
    out = montecarlo._run_replication(scenario, seed)
    assert not out["converged"] and "d_univariate" not in out
    assert montecarlo._replication_worker((scenario, seed)) == "non_converged"
    with pytest.raises(ScenarioError, match="all replications failed: {'non_converged': 3}"):
        run_scenario(scenario)


def test_pool_workers_inherit_the_band_cache():
    """The parent fills the K band cache of the scenario's M before it forks,
    so a fresh pool's workers do not each build it."""
    scenario = small_scenario(replications=2, vanishing_moments=3)
    wavelets._psi_bands.cache_clear()
    pooled = run_scenario(scenario, workers=2)
    hits = wavelets._psi_bands.cache_info().hits
    wavelets._psi_bands(scenario.vanishing_moments)
    assert wavelets._psi_bands.cache_info().hits == hits + 1
    assert report_payload(pooled) == report_payload(run_scenario(scenario, workers=1))


@pytest.mark.parametrize("replications", [1, 7])
def test_model_is_validated_once_per_run(monkeypatch, replications):
    # once when the scenario is built, and never while it runs
    calls = []
    validate = arfima.validate_long_run_cov
    monkeypatch.setattr(arfima, "validate_long_run_cov",
                        lambda omega: calls.append(None) or validate(omega))
    scenario = small_scenario(replications=replications)
    assert len(calls) == 1
    run_scenario(scenario)
    assert len(calls) == 1


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


@pytest.mark.parametrize("n_values, message", [
    ([512, 512], r"strictly increasing: \[512, 512\]"),
    ([256, 512, 384], "strictly increasing"),
    ([256.7, 512], "must be an integer, got 256.7"),
    ([True, 512], "must be an integer, got True"),
    ([], r"one or more, strictly increasing: \[\]"),
])
def test_rate_check_refuses_bad_sizes_before_any_replication(monkeypatch, n_values, message):
    """Repeated or falling sample sizes, a fraction (never truncated) and no
    size at all are ScenarioErrors raised before ``run_scenario`` runs."""
    runs = []
    monkeypatch.setattr(montecarlo, "run_scenario", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ScenarioError, match=message):
        rate_check(small_scenario(replications=10, include_univariate=False), n_values)
    assert runs == []


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
        Scenario(d=[0.2, 0.2], omega=[[1.0, 1.5], [1.5, 1.0]])
    # rho itself is checked, so one channel, whose omega would be [[1.0]], too
    with pytest.raises(CovarianceError, match="^omega is not positive definite$"):
        omega_from_rho(1.5, 1)
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


@pytest.mark.parametrize("field, value, message", [
    ("n_samples", 300.5, "scenario key 'n' must be an integer, got 300.5"),
    ("replications", 2.5, "scenario key 'reps' must be an integer, got 2.5"),
    ("j0", True, "scenario key 'j0' must be an integer, got True"),
    ("j1", "5", "scenario key 'j1' must be an integer, got '5'"),
    ("d", "abc", "could not convert string to float: 'abc'"),
    ("omega", [[1.0, 0.4], [0.4]], "inhomogeneous"),
])
def test_scenario_checks_its_fields(field, value, message):
    """The Python API gets the checks a scenario file gets."""
    with pytest.raises(ScenarioError, match=message):
        small_scenario(**{field: value})


def test_scenario_takes_integral_floats():
    scenario = small_scenario(n_samples=300.0, replications=np.int64(3), j1=5.0)
    assert (scenario.n_samples, scenario.replications, scenario.j1) == (300, 3, 5)
    echo = scenario.echo()
    assert [type(echo[key]) for key in ("N", "reps", "j1")] == [int, int, int]
    assert small_scenario(j1=None).j1 is None


def test_scenario_is_frozen():
    """A scenario, its model and its estimation settings cannot change after
    their checks: no field takes a new value, no array a new entry."""
    source = np.array([0.2, 0.2])
    scenario = small_scenario(d=source)
    source[0] = 0.4  # the scenario holds its own copy
    assert scenario.d.tolist() == [0.2, 0.2]
    for obj in (scenario, scenario.model, scenario.estimation_config()):
        for name in (f.name for f in dataclasses.fields(obj)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
    for array in (scenario.d, scenario.omega, scenario.model.d, scenario.model.omega):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.n_samples = 300.5


def test_scenario_keeps_its_model_and_scale_ranges():
    scenario = small_scenario(j1=None, include_univariate=np.True_)
    assert scenario.include_univariate is True
    model = scenario.model
    assert model.d.tobytes() == scenario.d.tobytes()
    assert model.omega.tobytes() == scenario.omega.tobytes()
    assert (model.n_samples, model.seed, model.moment_cap) == (256, 314, 4)
    assert scenario.joint_scales == (1, 5) and scenario.univariate_scales == (1, 5)
    assert scenario.spec.vanishing_moments == 4
    assert (scenario.config.j0, scenario.config.j1) == (1, None)
    # replace() builds, and checks, a new scenario with its own model and ranges
    longer = dataclasses.replace(scenario, n_samples=4096)
    assert longer.model.n_samples == 4096 and longer.model is not model
    assert longer.joint_scales == (1, 9) and longer.univariate_scales == (1, 9)
    assert not any(name in repr(scenario) for name in ("model", "scales", "spec", "config"))
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, model=model)
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, config=scenario.config)


@pytest.mark.parametrize("settings_, error, message", [
    ({"j0": -3}, ScenarioError, "invalid scenario: j0 must be at least 1"),
    ({"vanishing_moments": 11}, ScenarioError,
     r"invalid scenario: vanishing moments must be an integer in \[1, 10\], got 11"),
    ({"n_samples": 64, "j0": 6, "j1": None}, ScaleRangeError,
     r"finest scale j0=6 infeasible for N=64 \(max 3\)"),
    ({"include_univariate": 1}, ScenarioError,
     "invalid scenario: scenario key 'univariate' must be true or false, got 1"),
    ({"n_samples": 10**20}, ScenarioError,
     "invalid scenario: N=100000000000000000000 exceeds the int64 range"),
    ({"replications": 0}, ScenarioError, "invalid scenario: replication count must be at least 1"),
])
def test_scenario_fails_when_it_is_built(settings_, error, message):
    with pytest.raises(error, match=message):
        small_scenario(**settings_)


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
    # keys are case-insensitive, so N and n name one key, given twice
    with pytest.raises(ScenarioError, match="scenario key 'n' given twice"):
        parse_scenario_mapping({"d": [0.2], "N": 512, "n": 256})


# every key a scenario file may hold: SCENARIO_KEYS plus rho
FILE_KEYS = ["label", "d", "rho", "omega", "N", "M", "j0", "j1", "reps", "seed", "univariate"]
_scalars = (st.none() | st.booleans() | st.integers(-10, 10**20)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5))
junk_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                           max_leaves=6)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mapping=st.dictionaries(st.sampled_from(FILE_KEYS), junk_values, max_size=6)
       | st.fixed_dictionaries({"d": junk_values},
                               optional={key: junk_values for key in FILE_KEYS[2:]}))
def test_scenario_parser_raises_only_documented_errors(mapping):
    """Junk values under the known keys give a Scenario or a ScenarioError /
    ScaleRangeError / CovarianceError (exit 2 / 3 / 4 from ``mc``), never
    another exception."""
    try:
        scenario = parse_scenario_mapping(mapping)
    except (ScenarioError, ScaleRangeError, CovarianceError):
        return
    assert isinstance(scenario, Scenario)


@st.composite
def scenario_settings(draw, valid_range=False):
    """Scenario keywords: stationary d, a constant correlation, any settings;
    with ``valid_range``, only j0 >= 1 and j1 > j0."""
    p = draw(st.integers(1, 3))
    d = draw(st.lists(st.floats(-0.45, 0.45), min_size=p, max_size=p))
    if valid_range:
        j0 = draw(st.integers(1, 8))
        j1 = draw(st.none() | st.integers(j0 + 1, 20))
    else:
        j0, j1 = draw(st.integers(-3, 20)), draw(st.none() | st.integers(-3, 20))
    return dict(
        d=d,
        omega=omega_from_rho(draw(st.floats(-0.4, 0.9)) / p, p),
        n_samples=draw(st.integers(1, 10**6)),
        replications=draw(st.integers(1, 10**4)),
        seed=draw(st.integers(0, 2**64)),
        vanishing_moments=draw(st.integers(1, 10)),
        j0=j0,
        j1=j1,
        include_univariate=draw(st.booleans()),
        label=draw(st.text(max_size=8)),
    )


@st.composite
def scenarios(draw):
    """Scenarios a Scenario accepts; the rare sample too short for its
    scale range is rejected."""
    try:
        return Scenario(**draw(scenario_settings(valid_range=True)))
    except ScaleRangeError:
        reject()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_echo_parses_back_to_the_same_scenario(scenario):
    """A report's scenario block rebuilds its scenario, field for field."""
    echo = json.loads(json.dumps(scenario.echo()))
    assert list(echo) == list(SCENARIO_KEYS)
    assert sorted(FILE_KEYS) == sorted([*SCENARIO_KEYS, "rho"])
    rebuilt = parse_scenario_mapping(echo)
    for name in SCENARIO_KEYS.values():
        expected, got = getattr(scenario, name), getattr(rebuilt, name)
        if isinstance(expected, np.ndarray):
            assert got.tobytes() == expected.tobytes() and got.shape == expected.shape
        else:
            assert got == expected and type(got) is type(expected)
    assert rebuilt.joint_scales == scenario.joint_scales
    assert rebuilt.univariate_scales == scenario.univariate_scales


@settings(derandomize=True, max_examples=200, deadline=None)
@given(settings_=scenario_settings())
def test_scenario_accepts_or_raises_a_documented_error(settings_):
    """Any settings build a Scenario, whose scale ranges are those the
    estimator resolves, or raise when it is built: ScenarioError (exit 2)
    for a j0 below 1 or a j1 not above j0, ScaleRangeError (exit 3) for a
    range the sample length cannot hold, nothing else."""
    j0, j1 = settings_["j0"], settings_["j1"]
    bad_config = j0 < 1 or (j1 is not None and j1 <= j0)
    try:
        scenario = Scenario(**settings_)
    except ScenarioError:
        assert bad_config
        return
    except ScaleRangeError:
        assert not bad_config
        return
    assert not bad_config
    spec, config = scenario.wavelet_spec(), scenario.estimation_config()
    for scales, p in ((scenario.joint_scales, scenario.n_channels),
                      (scenario.univariate_scales, 1)):
        assert scales == estimator.resolve_scales(scenario.n_samples, spec, config, p)


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


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_scenario_file_is_a_scenario_error(tmp_path, kind):
    path = tmp_path / "scenario.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"d = 0.2\n# r\xe9sum\xe9\n")
    with pytest.raises(ScenarioError, match="cannot read scenario file: "):
        load_scenario(path)


def test_load_scenario_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d 0.2, 0.2\n", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_report_files_roundtrip(monkeypatch, tmp_path):
    report = run_mc_cli(monkeypatch, small_scenario(replications=4), tmp_path / "rep")
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    loaded = json.loads(jpath.read_text())
    assert loaded["n_replications"] == 4
    assert loaded["scenario"]["seed"] == 314
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "quantity,truth,bias,std,rmse,ratio_mu"
    assert len(lines) == 1 + len(report.records)


def test_factor_cache_holds_both_table1_models():
    """The two Table 1 models have different factor keys (1.2 - 1 is
    0.19999999999999996, not 0.2); draws alternating between them build each
    factor once, and fill the cache."""
    models = [load_scenario(f"scenarios/{name}.cfg").model
              for name in ("table1_row3", "table1_nonstationary")]
    assert models[0]._stationary != models[1]._stationary
    arfima._embedding_factor.cache_clear()
    for _ in range(3):
        for model in models:
            simulate_arfima(model)
    info = arfima._embedding_factor.cache_info()
    assert info.misses == 2 and info.currsize == arfima.FACTOR_CACHE_SIZE


def test_bundled_scenarios_parse():
    sc = load_scenario("scenarios/table1_row3.cfg")
    assert sc.n_samples == 512
    assert sc.replications == 1000
    assert sc.j0 == 1
    sc2 = load_scenario("scenarios/table1_nonstationary.cfg")
    assert sc2.j0 == 2
    assert_allclose(sc2.d, [1.2, 1.2])
