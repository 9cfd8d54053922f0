"""Acceptance criteria, one printed pass/fail line each (run with -s to see them).

Monte-Carlo criteria use fixed root seeds and at least 500 replications; the
tolerances are pinned here, not tuned at runtime.  Criterion 6 is implemented
literally and marked as a strict expected failure: the exact wavelet
cross-covariance of the (0.2, 1.2) pair is strictly positive at fine scales
(the first-order phase factor vanishes, the next-order term does not), so no
replication count can place the Monte-Carlo average within two standard
errors of zero at every scale.  The companion test asserts the degeneracy
content that does hold: the cross-correlation collapses geometrically and the
average matches the exact cospectrum integral instead of zero.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import brute_force_pyramid, random_scalogram

from wavewhittle.arfima import ArfimaSpec, model_wavelet_cov, simulate_arfima
from wavewhittle.estimator import (
    EstimationConfig,
    estimate_panel,
    g_hat,
    objective_R,
    whittle_likelihood,
)
from wavewhittle.montecarlo import Scenario, omega_from_rho, rate_check, run_scenario
from wavewhittle.wavelets import (
    WaveletSpec,
    daubechies_filters,
    dwt_pyramid,
    max_feasible_level,
    spectral_k,
)

ROOT_SEED = 20250808
WSPEC = WaveletSpec(vanishing_moments=4)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared Monte-Carlo runs


@pytest.fixture(scope="module")
def table1_stationary():
    scenario = Scenario(
        d=[0.2, 0.2], omega=omega_from_rho(0.4), n_samples=512, replications=1000,
        seed=ROOT_SEED, vanishing_moments=4, j0=1, j1=9,
    )
    return run_scenario(scenario)


@pytest.fixture(scope="module")
def table1_nonstationary():
    scenario = Scenario(
        d=[1.2, 1.2], omega=omega_from_rho(0.4), n_samples=512, replications=1000,
        seed=ROOT_SEED, vanishing_moments=4, j0=2, j1=9, include_univariate=False,
    )
    return run_scenario(scenario)


@pytest.fixture(scope="module")
def rho_zero_control():
    scenario = Scenario(
        d=[0.2, 0.2], omega=np.eye(2), n_samples=512, replications=500,
        seed=ROOT_SEED + 1, vanishing_moments=4, j0=1, j1=9,
    )
    return run_scenario(scenario)


# ---------------------------------------------------------------------------
# criteria 1-4: simulation-study reproduction


@pytest.mark.slow
def test_criterion_1_table1_stationary(table1_stationary):
    targets_rmse = {"d_1": 0.0563, "d_2": 0.0554}
    details = []
    ok = True
    for name, target in targets_rmse.items():
        rec = table1_stationary.record(name)
        details.append(f"{name}: rmse={rec['rmse']:.4f} (target {target}+-0.010), "
                       f"bias={rec['bias']:+.4f} (target -0.033+-0.012)")
        ok &= abs(rec["rmse"] - target) <= 0.010
        ok &= abs(rec["bias"] - (-0.033)) <= 0.012
    _line("1 (stationary d)", ok, "; ".join(details))
    for name, target in targets_rmse.items():
        rec = table1_stationary.record(name)
        assert abs(rec["rmse"] - target) <= 0.010
        assert abs(rec["bias"] - (-0.033)) <= 0.012


@pytest.mark.slow
def test_criterion_2_table1_nonstationary(table1_nonstationary):
    targets = {"d_1": 0.0970, "d_2": 0.0936}
    details = []
    ok = True
    for name, target in targets.items():
        rec = table1_nonstationary.record(name)
        details.append(f"{name}: rmse={rec['rmse']:.4f} (target {target}+-0.015)")
        ok &= abs(rec["rmse"] - target) <= 0.015
    _line("2 (nonstationary d)", ok, "; ".join(details))
    for name, target in targets.items():
        assert abs(table1_nonstationary.record(name)["rmse"] - target) <= 0.015


@pytest.mark.slow
def test_criterion_3_table3_covariance(table1_stationary):
    corr = table1_stationary.record("corr_1_2")
    omega11 = table1_stationary.record("omega_1_1")
    ok = abs(corr["rmse"] - 0.0386) <= 0.008 and abs(omega11["rmse"] - 0.0790) <= 0.015
    _line(
        "3 (long-run covariance)", ok,
        f"corr rmse={corr['rmse']:.4f} (target 0.0386+-0.008), "
        f"omega11 rmse={omega11['rmse']:.4f} (target 0.0790+-0.015)",
    )
    assert abs(corr["rmse"] - 0.0386) <= 0.008
    assert abs(omega11["rmse"] - 0.0790) <= 0.015


@pytest.mark.slow
def test_criterion_4_ratio_m_u(table1_stationary, rho_zero_control):
    ratios = [table1_stationary.record(f"d_{i}")["ratio_mu"] for i in (1, 2)]
    control = [rho_zero_control.record(f"d_{i}")["ratio_mu"] for i in (1, 2)]
    ok = all(0.90 <= r <= 1.02 for r in ratios) and all(0.97 <= r <= 1.05 for r in control)
    _line(
        "4 (ratio M/U)", ok,
        f"rho=0.4: {ratios[0]:.4f}/{ratios[1]:.4f} in [0.90, 1.02]; "
        f"rho=0: {control[0]:.4f}/{control[1]:.4f} in [0.97, 1.05]",
    )
    for r in ratios:
        assert 0.90 <= r <= 1.02
    for r in control:
        assert 0.97 <= r <= 1.05


# ---------------------------------------------------------------------------
# criterion 5: first-order covariance approximation quality


@pytest.mark.slow
def test_criterion_5_approximation_quality():
    d = np.array([0.2, 0.4])
    omega = np.array([[1.0, 0.4], [0.4, 1.0]])
    reps, n = 3000, 2048
    sums = np.zeros(4)
    seeds = np.random.SeedSequence(ROOT_SEED + 5).spawn(reps)
    for seed in seeds:
        panel = simulate_arfima(ArfimaSpec(d=d, omega=omega, n_samples=n, seed=seed))
        pyr = dwt_pyramid(panel, WSPEC, 4)
        for j in range(1, 5):
            w = pyr.level(j)
            sums[j - 1] += float(np.mean(w[:, 0] * w[:, 1]))
    rel_errors = []
    for j in range(1, 5):
        mc = sums[j - 1] / reps
        model = model_wavelet_cov(j, 0, 1, d, omega, WSPEC)
        rel_errors.append(abs(mc - model) / abs(model))
    monotone = all(b < a for a, b in zip(rel_errors, rel_errors[1:]))
    ok = rel_errors[-1] <= 0.10 and monotone
    _line(
        "5 (approximation quality)", ok,
        "relative errors j=1..4: " + ", ".join(f"{e:.4f}" for e in rel_errors)
        + f"; j=4 <= 0.10 and monotone={monotone}",
    )
    assert rel_errors[-1] <= 0.10
    assert monotone


# ---------------------------------------------------------------------------
# criterion 6: phase degeneracy


def _degenerate_pair_mc(reps=600, n=512, j_max=6):
    """Per-replication cross covariances and per-scale pooled second moments."""
    omega = np.array([[1.0, 0.4], [0.4, 1.0]])
    seeds = np.random.SeedSequence(ROOT_SEED + 6).spawn(reps)
    cross = [[] for _ in range(j_max)]
    diag = np.zeros((j_max, 2))
    for seed in seeds:
        panel = simulate_arfima(ArfimaSpec(d=[0.2, 1.2], omega=omega, n_samples=n, seed=seed))
        pyr = dwt_pyramid(panel, WSPEC, j_max)
        for j in range(1, j_max + 1):
            w = pyr.level(j)
            cross[j - 1].append(float(np.mean(w[:, 0] * w[:, 1])))
            diag[j - 1] += [np.mean(w[:, 0] ** 2), np.mean(w[:, 1] ** 2)]
    return [np.array(v) for v in cross], diag / reps


def _exact_wavelet_moments(j_values, d1=0.2, d2=1.2, rho=0.4):
    """Cospectrum integrals of the wavelet (cross) covariances via the filters."""
    h, g = daubechies_filters(4)
    lam = np.linspace(1e-8, math.pi, 400001)

    def transfer_sq(c, w):
        return np.abs(np.exp(-1j * np.outer(w, np.arange(c.size))) @ c) ** 2 / 2.0

    cross, corr = [], []
    re_f = rho * (2 * np.sin(lam / 2)) ** (-(d1 + d2)) * np.cos(
        (math.pi - lam) * (d1 - d2) / 2.0
    ) / (2 * math.pi)
    f11 = (2 * np.sin(lam / 2)) ** (-2 * d1) / (2 * math.pi)
    f22 = (2 * np.sin(lam / 2)) ** (-2 * d2) / (2 * math.pi)
    for j in j_values:
        gain = 2.0**j * transfer_sq(g, 2.0 ** (j - 1) * lam)
        for k in range(j - 1):
            gain *= transfer_sq(h, 2.0**k * lam)
        th12 = 2 * np.trapezoid(re_f * gain, lam)
        th11 = 2 * np.trapezoid(f11 * gain, lam)
        th22 = 2 * np.trapezoid(f22 * gain, lam)
        cross.append(th12)
        corr.append(th12 / math.sqrt(th11 * th22))
    return np.array(cross), np.array(corr)


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="The first-order cross term vanishes (cos(pi/2) = 0) but the exact "
    "wavelet cross-covariance of the (0.2, 1.2) pair keeps a strictly positive "
    "next-order component ~2^-j in relative size, so the Monte-Carlo average "
    "sits tens of standard errors from zero at fine scales for any replication "
    "count.  See the degeneracy-content test below for what does hold.",
)
def test_criterion_6_literal_zero_cross_covariance():
    values, _ = _degenerate_pair_mc()
    z_scores = [abs(v.mean()) / (v.std() / math.sqrt(v.size)) for v in values]
    ok = all(z <= 2.0 for z in z_scores)
    _line(
        "6 (phase degeneracy, literal)", ok,
        "z-scores j=1..6: " + ", ".join(f"{z:.1f}" for z in z_scores),
    )
    assert ok


@pytest.mark.slow
def test_criterion_6_degeneracy_content():
    """What the phase degeneracy does imply: cross-correlation collapse.

    The Monte-Carlo cross covariance matches the exact cospectrum integral
    (which is nonzero, hence the literal criterion's failure), and the pooled
    wavelet cross-correlation collapses geometrically towards zero, so the
    pair carries no usable long-run covariance signal at coarse scales.
    """
    values, diag = _degenerate_pair_mc()
    exact_cross, exact_corr = _exact_wavelet_moments(range(1, 7))
    for j, v in enumerate(values, start=1):
        se = v.std() / math.sqrt(v.size)
        assert abs(v.mean() - exact_cross[j - 1]) < 4 * se + 0.02 * abs(exact_cross[j - 1])
    pooled = [
        v.mean() / math.sqrt(diag[i, 0] * diag[i, 1]) for i, v in enumerate(values)
    ]
    # the coarsest level holds only 2 coefficients; assert on j <= 5 where the
    # Monte-Carlo error of the pooled correlation is under control
    firm = pooled[:5]
    collapse = all(abs(b) < 0.75 * abs(a) for a, b in zip(firm, firm[1:]))
    ok = collapse and abs(firm[-1]) < 0.05
    _line(
        "6 (phase degeneracy, content)", ok,
        "pooled wavelet correlations j=1..6: "
        + ", ".join(f"{c:+.3f}" for c in pooled)
        + "; exact: "
        + ", ".join(f"{c:+.3f}" for c in exact_corr),
    )
    assert collapse
    assert abs(firm[-1]) < 0.05
    assert_allclose(firm, exact_corr[:5], atol=0.02)


# ---------------------------------------------------------------------------
# criterion 7: consistency rate


@pytest.mark.slow
def test_criterion_7_rate():
    scenario = Scenario(
        d=[0.2, 0.2], omega=omega_from_rho(0.4), n_samples=512, replications=500,
        seed=ROOT_SEED + 7, vanishing_moments=4, j0=1, j1=9, include_univariate=False,
    )
    out = rate_check(scenario, [512, 2048])
    means = [row["rmse_mean"] for row in out["rows"]]
    ratio = means[1] / means[0]
    ok = 0.45 <= ratio <= 0.80 and out["monotone_decreasing"]
    _line(
        "7 (rate)", ok,
        f"rmse {means[0]:.4f} -> {means[1]:.4f}, ratio={ratio:.4f} in [0.45, 0.80], "
        f"loglog slope={out['loglog_slope']:.3f}",
    )
    assert 0.45 <= ratio <= 0.80
    assert out["monotone_decreasing"]


# ---------------------------------------------------------------------------
# criterion 8: exact identities


def test_criterion_8_exact_identities():
    checks = {}

    checks["K(0)=2pi"] = abs(spectral_k(0.0, WSPEC) - 2 * math.pi) < 1e-5

    rng = np.random.default_rng(ROOT_SEED)
    identity_ok = True
    for _ in range(20):
        p = int(rng.integers(1, 4))
        scal = random_scalogram(rng, p=p, j1=6, base=100)
        d = rng.uniform(-0.4, 1.4, size=p)
        lhs = objective_R(scal, d)
        rhs = whittle_likelihood(scal, g_hat(scal, d), d) - 1.0
        identity_ok &= abs(lhs - rhs) < 1e-10
    checks["R = L(G_hat)-1"] = identity_ok

    pyramid_ok = True
    for n in (48, 64):
        x = rng.standard_normal((n, 2))
        pyr = dwt_pyramid(x, WSPEC, max_feasible_level(n, WSPEC))
        oracle = brute_force_pyramid(x, 4, pyr.j_max)
        for lvl, ref in zip(pyr.details, oracle):
            pyramid_ok &= bool(np.max(np.abs(lvl - ref)) < 1e-10)
    checks["pyramid = brute force"] = pyramid_ok

    minimizer_ok = True
    tested = 0
    while tested < 100:
        p = int(rng.integers(1, 4))
        scal = random_scalogram(rng, p=p, j1=5, base=120)
        d = rng.uniform(-0.3, 1.0, size=p)
        base_g = g_hat(scal, d)
        base_val = whittle_likelihood(scal, base_g, d)
        raw = rng.standard_normal((p, p))
        delta = (raw + raw.T) / 2
        delta /= np.linalg.norm(delta)
        for eps in (1e-3, 1e-4):
            trial = base_g + eps * delta
            if np.linalg.eigvalsh(trial).min() <= 0:
                continue
            minimizer_ok &= whittle_likelihood(scal, trial, d) >= base_val - 1e-8
        tested += 1
    checks["G_hat minimizer"] = minimizer_ok

    config = EstimationConfig(j0=1, j1=5)
    perm_ok = True
    scale_ok = True
    for i in range(50):
        seed = 9000 + i
        spec = ArfimaSpec(d=[0.2, 0.6], omega=np.array([[1.0, 0.3], [0.3, 1.0]]),
                          n_samples=256, seed=seed)
        panel = simulate_arfima(spec)
        est = estimate_panel(panel, WSPEC, config)
        est_perm = estimate_panel(panel[:, ::-1], WSPEC, config)
        perm_ok &= bool(np.max(np.abs(est_perm.d_hat - est.d_hat[::-1])) < 1e-3)
        perm_ok &= bool(
            np.max(np.abs(est_perm.omega - est.omega[::-1, ::-1]))
            < 1e-3 * (1 + np.max(np.abs(est.omega)))
        )
        scaled = panel.copy()
        scaled[:, 0] *= 3.0
        est_scaled = estimate_panel(scaled, WSPEC, config)
        scale_ok &= bool(np.max(np.abs(est_scaled.d_hat - est.d_hat)) < 1e-3)
        scale_ok &= bool(
            abs(est_scaled.correlation[0, 1] - est.correlation[0, 1]) < 5e-3
        )
        scale_ok &= bool(
            abs(est_scaled.omega[0, 0] - 9.0 * est.omega[0, 0]) < 5e-3 * abs(9.0 * est.omega[0, 0])
        )
    checks["permutation equivariance"] = perm_ok
    checks["channel-scale invariance"] = scale_ok

    ok = all(checks.values())
    _line("8 (exact identities)", ok,
          "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))
    for name, passed in checks.items():
        assert passed, name


# ---------------------------------------------------------------------------
# criterion 9: determinism


@pytest.mark.slow
def test_criterion_9_determinism():
    spec = ArfimaSpec(d=[0.2, 0.2], omega=omega_from_rho(0.4), n_samples=512, seed=77)
    sim_ok = np.array_equal(simulate_arfima(spec), simulate_arfima(spec))

    panel = simulate_arfima(spec)
    config = EstimationConfig(j0=1, j1=6)
    est1 = estimate_panel(panel, WSPEC, config)
    est2 = estimate_panel(panel, WSPEC, config)
    est_ok = np.array_equal(est1.d_hat, est2.d_hat) and np.array_equal(est1.omega, est2.omega)

    scenario = Scenario(d=[0.2, 0.2], omega=omega_from_rho(0.4), n_samples=256,
                        replications=10, seed=123, j0=1, j1=5)
    r1 = run_scenario(scenario).to_dict()
    r2 = run_scenario(scenario).to_dict()
    r1.pop("runtime_seconds"); r2.pop("runtime_seconds")
    mc_ok = json.dumps(r1) == json.dumps(r2)

    ok = sim_ok and est_ok and mc_ok
    _line("9 (determinism)", ok, f"simulate={sim_ok}, estimate={est_ok}, mc={mc_ok}")
    assert sim_ok and est_ok and mc_ok
