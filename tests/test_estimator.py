"""Scalogram, Whittle objective, and estimation pipeline tests.

The cross-checks deliberately recompute the criterion through independent
routes: the scalogram against double loops, the likelihood against the
per-coefficient quadratic-form sum, the reduced objective against its
explicit composition, and the objective's gradient and Hessian against
central differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavewhittle import estimator
from wavewhittle.arfima import ArfimaSpec, simulate_arfima
from wavewhittle.errors import ConfigError, LikelihoodError, ScaleRangeError
from wavewhittle.estimator import (
    BOX_LOW,
    EstimationConfig,
    Scalogram,
    _log_regression_init,
    _objective_derivatives,
    estimate_d,
    estimate_omega,
    estimate_panel,
    estimate_univariate_each,
    g_hat,
    objective_R,
    rate_rule_j0,
    resolve_scales,
    scalogram,
    search_box,
    whittle_likelihood,
)
from wavewhittle.montecarlo import load_scenario, omega_from_rho
from wavewhittle.wavelets import WaveletSpec, dwt_pyramid, spectral_k

from helpers import (
    lbfgsb_search,
    make_pyramid,
    multistart_nelder_mead,
    per_pair_omega,
    polyfit_start,
    random_scalogram,
    reference_g_weighted,
    reference_objective_derivatives,
    unweighted_start,
)

WSPEC = WaveletSpec(vanishing_moments=4)
LOG2 = math.log(2.0)


def simulated_scalogram(seed=0, d=(0.2, 0.2), rho=0.4, n=512, j0=1):
    omega = np.array([[1.0, rho], [rho, 1.0]])[: len(d), : len(d)]
    spec = ArfimaSpec(d=np.array(d), omega=omega, n_samples=n, seed=seed)
    pyr = dwt_pyramid(simulate_arfima(spec), WSPEC)
    return scalogram(pyr, j0, pyr.j_max)


def scale_domain_scalogram(seed, d, rho):
    """Scalogram of scales j = 1..7 of a 1024-sample panel drawn in the scale
    domain: 1024 >> j coefficient vectors per scale, channels 0 and 1 with
    correlation rho and any others independent, channel l scaled by 2^(j d_l)."""
    rng = np.random.default_rng(seed)
    d = np.asarray(d, dtype=np.float64)
    omega = np.eye(d.size)
    omega[0, 1] = omega[1, 0] = rho
    chol = np.linalg.cholesky(omega)
    details = [(rng.standard_normal((1024 >> j, d.size)) @ chol.T) * 2.0 ** (j * d)
               for j in range(1, 8)]
    return scalogram(make_pyramid(details), 1, 7)


# ---------------------------------------------------------------------------
# scalogram


def test_scalogram_single_channel_example():
    details = [np.array([[1.0], [2.0], [2.0]])]
    pyr = make_pyramid(details)
    scal = scalogram(pyr, 1, 1)
    assert scal.matrices[0, 0, 0] == pytest.approx(9.0)
    assert scal.n_coefficients == 3
    assert scal.mean_scale == 1.0


def test_scalogram_symmetric_psd():
    rng = np.random.default_rng(5)
    scal = random_scalogram(rng, p=3)
    for mat in scal.matrices:
        assert_allclose(mat, mat.T, atol=0)
        eigvals = np.linalg.eigvalsh(mat)
        assert eigvals.min() > -1e-12


def test_scalogram_brute_force_double_loop():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((64, 2))
    pyr = dwt_pyramid(x, WSPEC)
    scal = scalogram(pyr, 1, pyr.j_max)
    for idx, j in enumerate(range(1, pyr.j_max + 1)):
        w = pyr.level(j)
        ref = np.zeros((2, 2))
        for k in range(w.shape[0]):
            for a in range(2):
                for b in range(2):
                    ref[a, b] += w[k, a] * w[k, b]
        assert_allclose(scal.matrices[idx], ref, atol=1e-12)


def test_scalogram_range_errors():
    rng = np.random.default_rng(3)
    pyr = make_pyramid([rng.standard_normal((8, 1)), rng.standard_normal((4, 1))])
    with pytest.raises(ScaleRangeError):
        scalogram(pyr, 1, 3)
    with pytest.raises(ScaleRangeError):
        scalogram(pyr, 2, 1)
    empty = make_pyramid([rng.standard_normal((4, 1)), np.empty((0, 1))])
    with pytest.raises(ScaleRangeError):
        scalogram(empty, 1, 2)


def test_mean_scale_within_range():
    rng = np.random.default_rng(9)
    scal = random_scalogram(rng, j1=5, base=64)
    assert scal.j0 <= scal.mean_scale <= scal.j1


# ---------------------------------------------------------------------------
# profile covariance and likelihood


def test_g_hat_zero_memory_is_plain_average():
    rng = np.random.default_rng(21)
    scal = random_scalogram(rng)
    expected = scal.matrices.sum(axis=0) / scal.n_coefficients
    assert_allclose(g_hat(scal, np.zeros(2)), expected, atol=1e-14)


def test_g_hat_single_scale_arithmetic():
    # one scale at j=1 with I = [[4,2],[2,4]] and d = (1,1): factor 2^-2
    details = [np.array([[2.0, 1.0], [0.0, np.sqrt(3.0)]])]
    scal = scalogram(make_pyramid(details), 1, 1)
    assert_allclose(scal.matrices[0], [[4, 2], [2, 4]], atol=1e-12)
    got = g_hat(scal, np.array([1.0, 1.0]))
    assert_allclose(got, np.array([[4, 2], [2, 4]]) / (4.0 * 2.0), atol=1e-12)


def test_g_hat_entrywise_formula():
    rng = np.random.default_rng(33)
    scal = random_scalogram(rng, p=3, j1=5, base=96)
    d = np.array([0.1, -0.4, 1.3])
    got = g_hat(scal, d)
    js = np.arange(scal.j0, scal.j1 + 1)
    for ell in range(3):
        for m in range(3):
            ref = sum(
                2.0 ** (-j * (d[ell] + d[m])) * scal.matrices[i, ell, m]
                for i, j in enumerate(js)
            ) / scal.n_coefficients
            assert got[ell, m] == pytest.approx(ref, rel=1e-12)


def whittle_sum_over_k(pyramid, j0, j1, g_matrix, d):
    """Eq-style per-coefficient quadratic-form evaluation of the criterion."""
    n = sum(int(pyramid.counts[j - 1]) for j in range(j0, j1 + 1))
    total = 0.0
    for j in range(j0, j1 + 1):
        lam = np.diag(2.0 ** (j * np.asarray(d, float)))
        cov = lam @ g_matrix @ lam
        cov_inv = np.linalg.inv(cov)
        sign, logdet = np.linalg.slogdet(cov)
        n_j = int(pyramid.counts[j - 1])
        total += n_j * logdet
        w = pyramid.level(j)
        for k in range(n_j):
            total += float(w[k] @ cov_inv @ w[k])
    return total / n


def test_whittle_likelihood_matches_sum_over_k():
    rng = np.random.default_rng(55)
    details = [rng.standard_normal((24 >> (j - 1), 2)) for j in range(1, 4)]
    pyr = make_pyramid(details)
    scal = scalogram(pyr, 1, 3)
    g_matrix = np.array([[1.5, 0.4], [0.4, 0.9]])
    for d in ([0.0, 0.0], [0.3, -0.2], [1.1, 0.7]):
        direct = whittle_sum_over_k(pyr, 1, 3, g_matrix, d)
        assert whittle_likelihood(scal, g_matrix, d) == pytest.approx(direct, abs=1e-10)


def test_whittle_likelihood_singular_g():
    rng = np.random.default_rng(2)
    scal = random_scalogram(rng)
    with pytest.raises(LikelihoodError):
        whittle_likelihood(scal, np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2))


def test_single_channel_single_scale_reduction():
    # p=1, one scale, G=1, d=0: L = log(1) + I(j)/n_j -> I(j)/n
    details = [np.array([[1.0], [2.0], [2.0]])]
    scal = scalogram(make_pyramid(details), 1, 1)
    got = whittle_likelihood(scal, np.array([[1.0]]), np.array([0.0]))
    assert got == pytest.approx(9.0 / 3.0)


def test_objective_identity_with_likelihood():
    # R(d) = L(G_hat(d), d) - 1 to 1e-10, via two different code paths
    rng = np.random.default_rng(77)
    for p in (1, 2, 3):
        scal = random_scalogram(rng, p=p, j1=5, base=120)
        for _ in range(5):
            d = rng.uniform(-0.4, 1.4, size=p)
            lhs = objective_R(scal, d)
            rhs = whittle_likelihood(scal, g_hat(scal, d), d) - 1.0
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_objective_composition():
    rng = np.random.default_rng(78)
    scal = random_scalogram(rng, p=2, j1=6, base=150)
    d = np.array([0.25, 0.8])
    sign, logdet = np.linalg.slogdet(g_hat(scal, d))
    ref = logdet + 2 * LOG2 * scal.mean_scale * d.sum() + (2 - 1)
    assert objective_R(scal, d) == pytest.approx(ref, abs=1e-12)


def test_objective_singular_returns_inf():
    # rank-deficient panel (duplicated channel) makes G_hat singular
    rng = np.random.default_rng(79)
    col = rng.standard_normal((200, 1))
    pyr = dwt_pyramid(np.hstack([col, col]), WSPEC)
    scal = scalogram(pyr, 1, pyr.j_max)
    assert objective_R(scal, np.array([0.2, 0.2])) == math.inf


def test_objective_gradient_against_analytic_trace():
    """Central differences of R agree with the analytic trace-form gradient."""
    rng = np.random.default_rng(101)
    scal = random_scalogram(rng, p=2, j1=6, base=200)
    js = np.arange(scal.j0, scal.j1 + 1, dtype=float)

    def analytic_grad(d):
        center = scal.mean_scale
        factors = 2.0 ** (-np.outer(js - center, d))
        g_bar = np.einsum("jl,jlm,jm->lm", factors, scal.matrices, factors)
        g_bar /= scal.n_coefficients
        g_inv = np.linalg.inv(g_bar)
        grad = np.zeros(d.size)
        for a in range(d.size):
            dfactors = factors * (-(js - center)[:, None] * LOG2)
            sel = np.zeros_like(factors)
            sel[:, a] = dfactors[:, a]
            dg = np.einsum("jl,jlm,jm->lm", sel, scal.matrices, factors)
            dg = (dg + dg.T) / scal.n_coefficients
            grad[a] = float(np.trace(g_inv @ dg))
        return grad

    for _ in range(4):
        d = rng.uniform(-0.2, 0.8, size=2)
        grad = analytic_grad(d)
        assert_allclose(_objective_derivatives(scal, d)[1], grad, rtol=1e-10, atol=1e-12)
        h = 1e-5
        for a in range(2):
            dp = d.copy(); dp[a] += h
            dm = d.copy(); dm[a] -= h
            fd = (objective_R(scal, dp) - objective_R(scal, dm)) / (2 * h)
            assert fd == pytest.approx(grad[a], rel=1e-5, abs=1e-7)


def test_g_hat_minimizer_property():
    # L(G_hat(d) + eps Delta, d) >= L(G_hat(d), d) - 1e-8 for PSD-preserving Delta
    rng = np.random.default_rng(88)
    for _ in range(20):
        scal = random_scalogram(rng, p=2, j1=5, base=100)
        d = rng.uniform(-0.3, 1.0, size=2)
        base_g = g_hat(scal, d)
        base_val = whittle_likelihood(scal, base_g, d)
        for eps in (1e-3, 1e-4):
            raw = rng.standard_normal((2, 2))
            delta = (raw + raw.T) / 2
            delta /= np.linalg.norm(delta)
            trial = base_g + eps * delta
            if np.linalg.eigvalsh(trial).min() <= 0:
                continue
            assert whittle_likelihood(scal, trial, d) >= base_val - 1e-8


# ---------------------------------------------------------------------------
# estimate_d / estimate_omega / pipelines


def test_estimate_d_recovery_single_replication():
    scal = simulated_scalogram(seed=20250808)
    config = EstimationConfig(j0=1, j1=9)
    d_hat, value, diag = estimate_d(scal, config, WSPEC)
    assert np.all(np.abs(d_hat - 0.2) < 0.15)
    assert value == pytest.approx(objective_R(scal, d_hat), abs=1e-12)
    assert diag["method"] == "newton" and diag["converged"] is True


def test_estimate_d_deterministic():
    scal = simulated_scalogram(seed=4)
    config = EstimationConfig(j0=1, j1=6)
    first = estimate_d(scal, config, WSPEC)
    second = estimate_d(scal, config, WSPEC)
    assert np.array_equal(first[0], second[0])


def test_estimate_d_requires_two_scales():
    details = [np.random.default_rng(1).standard_normal((8, 1))]
    scal = scalogram(make_pyramid(details), 1, 1)
    with pytest.raises(ConfigError):
        estimate_d(scal, EstimationConfig(j0=1, j1=4), WSPEC)


def test_estimate_d_refuses_fewer_coefficients_than_channels():
    rng = np.random.default_rng(6)
    details = [rng.standard_normal((1, 3)), rng.standard_normal((1, 3))]
    scal = scalogram(make_pyramid(details), 1, 2)
    with pytest.raises(ConfigError):
        estimate_d(scal, EstimationConfig(), WSPEC)


def test_estimate_d_nonconvergence_flagged(monkeypatch):
    monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", 2)
    scal = simulated_scalogram(seed=10)
    d_hat, _, diag = estimate_d(scal, EstimationConfig(j0=1, j1=6), WSPEC)
    assert diag["converged"] is False and diag["iterations"] == 2
    assert np.all(np.isfinite(d_hat))


def test_estimate_d_converged_at_roundoff(monkeypatch):
    """A search that ends where no step lowers R, with a projected gradient
    just above GRAD_TOL but a Newton decrement below what R resolves, sits at
    the optimum and counts as converged.

    The scalogram is drawn in the scale domain: at each scale j = 1..7 of a
    1024-sample panel, 1024 >> j coefficient pairs with correlation 0.98,
    scaled by 2^(j d) for d = (0.2, 0.4) (seed 5).  The search stops after
    11 evaluations with max|g| = 1.64e-7 and g^T H^-1 g = 3.0e-15 at
    R = -0.689.  That stall depends on the last bits of the arithmetic, so
    the search starts from the unweighted log-regression slope
    (``unweighted_start``) it was found with: from the count-weighted start
    the same scalogram converges by its step size after 5 evaluations, as
    the wide pool panel that first showed a stall (the seed-405 variant of
    p6-1 on the reference pyramid) has since the objective's per-fit
    constants were hoisted.
    """
    monkeypatch.setattr(estimator, "_log_regression_init", unweighted_start)
    scal = scale_domain_scalogram(5, [0.2, 0.4], 0.98)
    config = EstimationConfig()
    d_hat, value, diag = estimate_d(scal, config, WSPEC)
    assert diag["converged"] is True and diag["function_evaluations"] == 11
    _, grad, _ = _objective_derivatives(scal, d_hat)
    assert np.max(np.abs(grad)) > estimator.GRAD_TOL  # only the decrement rule applies
    assert value == pytest.approx(-0.689, abs=0.01)
    monkeypatch.setattr(estimator, "DECREMENT_TOL", 0.0)
    assert estimate_d(scal, config, WSPEC)[2]["converged"] is False


def test_roundoff_decrement_counts_only_free_coordinates(monkeypatch):
    """The stall above with a third, independent channel held at BOX_LOW:
    its gradient (about 1.08) stays out of the decrement, which is read on
    the free block alone (seed 3: 9 evaluations, R = -6.957, from the
    unweighted start as above)."""
    monkeypatch.setattr(estimator, "_log_regression_init", unweighted_start)
    scal = scale_domain_scalogram(3, [0.2, 0.4, -3.0], 0.98)
    config = EstimationConfig()
    d_hat, value, diag = estimate_d(scal, config, WSPEC)
    assert diag["converged"] is True and diag["function_evaluations"] == 9
    assert diag["active_bounds"] == [2]
    _, grad, _ = _objective_derivatives(scal, d_hat)
    assert np.max(np.abs(grad[:2])) > estimator.GRAD_TOL and grad[2] > 1.0
    assert value == pytest.approx(-6.957, abs=0.01)
    monkeypatch.setattr(estimator, "DECREMENT_TOL", 0.0)
    assert estimate_d(scal, config, WSPEC)[2]["converged"] is False


def test_permutation_equivariance():
    rng = np.random.default_rng(404)
    config = EstimationConfig(j0=1, j1=6)
    for _ in range(5):
        seed = int(rng.integers(1 << 30))
        spec = ArfimaSpec(d=[0.2, 0.6], omega=np.array([[1.0, 0.3], [0.3, 1.0]]),
                          n_samples=512, seed=seed)
        panel = simulate_arfima(spec)
        est = estimate_panel(panel, WSPEC, config)
        est_perm = estimate_panel(panel[:, ::-1], WSPEC, config)
        assert_allclose(est_perm.d_hat, est.d_hat[::-1], atol=5e-4)
        assert_allclose(est_perm.omega, est.omega[::-1, ::-1], rtol=2e-3, atol=1e-5)


def test_channel_scaling_invariance():
    config = EstimationConfig(j0=1, j1=6)
    spec = ArfimaSpec(d=[0.2, 0.2], omega=np.array([[1.0, 0.4], [0.4, 1.0]]),
                      n_samples=512, seed=17)
    panel = simulate_arfima(spec)
    c = 10.0
    scaled = panel.copy()
    scaled[:, 0] *= c
    est = estimate_panel(panel, WSPEC, config)
    est_scaled = estimate_panel(scaled, WSPEC, config)
    assert_allclose(est_scaled.d_hat, est.d_hat, atol=5e-4)
    assert_allclose(est_scaled.correlation[0, 1], est.correlation[0, 1], atol=2e-3)
    assert est_scaled.omega[0, 0] == pytest.approx(c**2 * est.omega[0, 0], rel=2e-3)


def test_estimate_omega_equal_memory_closed_form():
    scal = simulated_scalogram(seed=21)
    config = EstimationConfig(j0=1, j1=6)
    d_hat = np.array([0.25, 0.25])
    omega, corr, g_matrix, warnings = estimate_omega(scal, d_hat, WSPEC, config)
    k_norm = spectral_k(0.5, WSPEC) / (2 * math.pi)
    assert_allclose(omega, g_matrix / k_norm, rtol=1e-12)
    assert not warnings["degenerate_pairs"]
    assert corr[0, 1] == pytest.approx(omega[0, 1] / math.sqrt(omega[0, 0] * omega[1, 1]))


def test_estimate_omega_degeneracy_warning():
    scal = simulated_scalogram(seed=22, d=(0.2, 1.2), j0=2)
    config = EstimationConfig(j0=2, j1=6)
    omega, corr, _, warnings = estimate_omega(scal, np.array([0.2, 1.19]), WSPEC, config)
    assert (0, 1) in warnings["degenerate_pairs"]
    assert np.isfinite(omega[0, 1])
    omega, corr, _, warnings = estimate_omega(scal, np.array([0.2, 1.2]), WSPEC, config)
    assert (0, 1) in warnings["undefined_pairs"]
    assert not np.isfinite(omega[0, 1])


def test_estimate_omega_k_domain_pairs_undefined():
    # M=4: d_l + d_m must lie below 4, so the pairs among channels 0 and 1
    # leave the K domain while their cosines stay far from zero
    scal = random_scalogram(np.random.default_rng(31), p=3, base=400)
    omega, corr, _, warnings = estimate_omega(scal, np.array([2.05, 2.0, 0.2]), WSPEC)
    assert warnings["undefined_pairs"] == [(0, 0), (0, 1), (1, 1)]
    assert warnings["invalid_channels"] == [0, 1]
    assert not warnings["degenerate_pairs"]
    for ell, m in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert np.isnan(omega[ell, m])
    assert np.all(np.isfinite(omega[2])) and np.all(np.isfinite(omega[:, 2]))
    assert np.isnan(corr[0, 2]) and corr[2, 2] == pytest.approx(1.0)


def test_estimate_omega_matches_per_pair_formula_wide():
    rng = np.random.default_rng(32)
    scal = random_scalogram(rng, p=20, base=4000, j1=8)
    d_hat = rng.uniform(-0.5, 1.8, 20)
    d_hat[3] = d_hat[5] + 1.0  # vanishing cosine
    d_hat[7], d_hat[8] = 2.1, 2.05  # pairs outside the K domain
    d_hat[9] = d_hat[10] + 0.95  # degenerate but defined
    omega, _, _, warnings = estimate_omega(scal, d_hat, WSPEC)
    ref_omega, ref_warnings = per_pair_omega(scal, d_hat, WSPEC)
    assert warnings == ref_warnings
    assert all(ref_warnings.values())  # every warning list is exercised
    assert ref_warnings["invalid_channels"] == [7, 8]
    assert np.array_equal(np.isnan(omega), np.isnan(ref_omega))
    finite = np.isfinite(ref_omega)
    assert_allclose(omega[finite], ref_omega[finite], rtol=1e-12)


def test_estimate_omega_zero_channel_flagged():
    rng = np.random.default_rng(60)
    x = rng.standard_normal((300, 2))
    x[:, 1] = 0.0
    pyr = dwt_pyramid(x, WSPEC)
    scal = scalogram(pyr, 1, pyr.j_max)
    config = EstimationConfig()
    omega, corr, _, warnings = estimate_omega(scal, np.array([0.0, 0.0]), WSPEC, config)
    assert 1 in warnings["invalid_channels"]
    assert not np.isfinite(corr[0, 1])


def test_constant_channel_is_flagged_zero():
    # a constant channel still gets a finite d_hat and converges; only the
    # warning tells it apart
    x = np.random.default_rng(63).standard_normal((512, 2))
    x[:, 1] = 3.0
    est = estimate_panel(x, WSPEC, EstimationConfig())
    assert est.warnings["zero_channels"] == [1]
    assert est.diagnostics["converged"] is True
    assert est.warnings == estimate_panel(x * 1e-12, WSPEC, EstimationConfig()).warnings
    tiny = x.copy()
    tiny[:, 1] = 1e-12 * np.random.default_rng(64).standard_normal(512)
    assert estimate_panel(tiny, WSPEC, EstimationConfig()).warnings["zero_channels"] == []


def test_estimate_panel_clamps_requested_depth():
    config = EstimationConfig(j0=1, j1=9)
    spec = ArfimaSpec(d=[0.2, 0.2], omega=np.eye(2), n_samples=512, seed=2)
    est = estimate_panel(simulate_arfima(spec), WSPEC, config)
    assert est.j1 == 6
    assert est.diagnostics["requested_j1"] == 9
    assert list(est.counts) == [253, 123, 58, 26, 10, 2]


def test_resolve_scales_default_depth_depends_on_channels():
    config = EstimationConfig(j0=1)
    assert resolve_scales(512, WSPEC, config, 2) == (1, 6)
    assert resolve_scales(512, WSPEC, config, 3) == (1, 5)
    with pytest.raises(ScaleRangeError):
        resolve_scales(40, WSPEC, EstimationConfig(j0=4), 1)


def test_univariate_each_matches_single_channel_run():
    spec = ArfimaSpec(d=[0.2, 0.4, 1.2], omega=omega_from_rho(0.4, 3), n_samples=512, seed=31)
    panel = simulate_arfima(spec)
    config = EstimationConfig(j0=1, j1=6)
    d_each, diags = estimate_univariate_each(panel, WSPEC, config)
    assert len(diags) == 3 and all(diag["converged"] for diag in diags)
    for ell in range(3):
        single = estimate_panel(panel[:, ell], WSPEC, config)
        assert single.diagnostics["converged"] is True
        assert d_each[ell] == pytest.approx(single.d_hat[0], abs=1e-10)


def test_univariate_each_is_one_fit(monkeypatch):
    calls = []
    solver = estimator._projected_newton

    def counted(scal, spec):
        calls.append(scal.n_channels)
        return solver(scal, spec)

    monkeypatch.setattr(estimator, "_projected_newton", counted)
    panel = simulate_arfima(ArfimaSpec(d=np.full(5, 0.3), omega=np.eye(5), n_samples=512, seed=3))
    estimate_univariate_each(panel, WSPEC, EstimationConfig())
    assert calls == [5]


def test_univariate_each_zero_channel_not_converged():
    # a zero channel makes its criterion, and so the joint one, singular; the
    # multivariate fit of the same panel is not finite either
    x = simulate_arfima(ArfimaSpec(d=[0.2, 0.3], omega=np.eye(2), n_samples=512, seed=5))
    x[:, 1] = 0.0
    _, diags = estimate_univariate_each(x, WSPEC, EstimationConfig())
    assert [diag["converged"] for diag in diags] == [False, False]
    est = estimate_panel(x, WSPEC, EstimationConfig())
    assert est.diagnostics["converged"] is False
    assert not math.isfinite(est.objective_value)


def test_univariate_each_allows_fewer_coefficients_than_channels():
    # the joint fit of the diagonal is p univariate fits, so the rank
    # condition of estimate_d on the full p x p sums does not apply
    p = 50
    panel = simulate_arfima(ArfimaSpec(d=np.full(p, 0.2), omega=np.eye(p), n_samples=64, seed=8))
    config = EstimationConfig()
    j0, j1 = resolve_scales(64, WSPEC, config, 1)
    scal = scalogram(dwt_pyramid(panel, WSPEC, j1), j0, j1)
    assert scal.n_coefficients < p
    with pytest.raises(ConfigError):
        estimate_d(scal, config, WSPEC)
    d_each, diags = estimate_univariate_each(panel, WSPEC, config)
    assert np.all(np.isfinite(d_each)) and diags[0]["converged"] is True


def test_p1_reduction_objective():
    # for p = 1 the reduced objective is log G_hat + 2 log 2 <J> d
    rng = np.random.default_rng(111)
    scal = random_scalogram(rng, p=1, j1=5, base=80)
    for d in (-0.3, 0.0, 0.7):
        ref = math.log(g_hat(scal, [d])[0, 0]) + 2 * LOG2 * scal.mean_scale * d
        assert objective_R(scal, [d]) == pytest.approx(ref, abs=1e-12)


def test_estimate_d_recovery_five_channels():
    p = 5
    spec = ArfimaSpec(d=np.full(p, 0.2), omega=np.eye(p), n_samples=1024, seed=9)
    est = estimate_panel(simulate_arfima(spec), WSPEC, EstimationConfig(j0=1, j1=6))
    assert est.diagnostics["converged"] is True
    assert np.all(np.abs(est.d_hat - 0.2) < 0.2)


@pytest.mark.parametrize("p", [2, 6])
@pytest.mark.parametrize("pair", [(0.2, 0.2), (1.2, 1.2), (0.2, 1.2)])
def test_estimate_d_matches_multistart_oracle(p, pair):
    """The Newton search finds the multistart simplex and the L-BFGS-B minima or better."""
    d = np.resize(pair, p)
    config = EstimationConfig()
    for seed in (1, 2, 3):
        spec = ArfimaSpec(d=d, omega=omega_from_rho(0.4, p), n_samples=512, seed=seed)
        panel = simulate_arfima(spec)
        j0, j1 = resolve_scales(512, WSPEC, config, p)
        scal = scalogram(dwt_pyramid(panel, WSPEC, j1), j0, j1)
        d_hat, value, diag = estimate_d(scal, config, WSPEC)
        d_ref, value_ref = multistart_nelder_mead(scal, search_box(WSPEC))
        d_lbfgsb, value_lbfgsb = lbfgsb_search(scal, search_box(WSPEC))
        assert diag["converged"] is True
        assert value <= value_ref + 1e-9
        assert value <= value_lbfgsb + 1e-9
        assert_allclose(d_hat, d_ref, atol=1e-4)
        assert_allclose(d_hat, d_lbfgsb, atol=1e-6)


@pytest.mark.parametrize("p", [1, 2, 6, 20])
def test_objective_gradient_central_differences(p):
    rng = np.random.default_rng(202 + p)
    scal = random_scalogram(rng, p=p, j1=6, base=400)
    h = 1e-6
    for _ in range(4):
        d = rng.uniform(-0.3, 1.3, size=p)
        value, grad, hess = _objective_derivatives(scal, d)
        assert value == pytest.approx(objective_R(scal, d), abs=1e-12)
        fd = [(objective_R(scal, d + h * e) - objective_R(scal, d - h * e)) / (2 * h)
              for e in np.eye(p)]
        assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)
        # the Hessian against central differences of the gradient
        fd_hess = np.array([
            _objective_derivatives(scal, d + h * e)[1] - _objective_derivatives(scal, d - h * e)[1]
            for e in np.eye(p)
        ]) / (2 * h)
        assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12)
        assert_allclose(hess, fd_hess, rtol=1e-8, atol=1e-8 * np.abs(hess).max())


def test_closed_form_start_matches_polyfit():
    box = search_box(WSPEC)
    rng = np.random.default_rng(12)
    for p in (1, 2, 6):
        for j0, j1 in ((1, 6), (2, 4), (3, 4)):
            scal = random_scalogram(rng, p=p, j0=j0, j1=j1, base=4000)
            assert_allclose(_log_regression_init(scal, box), polyfit_start(scal, box),
                            rtol=0, atol=1e-12)
    # zero coefficients make log-variances -inf: channel 1 keeps four usable
    # scales, channel 2 one and channel 3 none, so the last two start at 0.25
    details = [rng.standard_normal((256 >> j, 4)) * 2.0 ** (0.3 * j) for j in range(1, 7)]
    for j in (1, 3):
        details[j - 1][:, 1] = 0.0
    for j in range(1, 6):
        details[j - 1][:, 2] = 0.0
    for level in details:
        level[:, 3] = 0.0
    scal = scalogram(make_pyramid(details), 1, 6)
    start = _log_regression_init(scal, box)
    assert_allclose(start, polyfit_start(scal, box), rtol=0, atol=1e-12)
    assert np.isfinite(start[1]) and start[1] != 0.25
    assert start[2] == start[3] == 0.25


def test_indefinite_hessian_falls_back_to_the_gradient_step(monkeypatch):
    """Bivariate scalograms whose correlation and variances jump from scale
    to scale make R nonconvex: at the start its Hessian is indefinite, the
    Cholesky test fails and the search steps along -gradient instead.  It
    still ends at the bounded L-BFGS-B minimum."""
    failures = []
    cholesky = np.linalg.cholesky

    def spy(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            failures.append(None)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    rng = np.random.default_rng(1)
    box, tested = search_box(WSPEC), 0
    while tested < 5:
        n_scales = int(rng.integers(2, 6))
        counts = np.array([max(256 >> j, 2) for j in range(1, n_scales + 1)])
        mats = []
        for n_j in counts:
            r, scale = rng.uniform(-0.999, 0.999), np.exp(rng.normal(0.0, 3.0, 2))
            mats.append(n_j * np.outer(scale, scale) * np.array([[1.0, r], [r, 1.0]]))
        scal = Scalogram(np.array(mats), counts, 1, n_scales)
        hess = _objective_derivatives(scal, _log_regression_init(scal, box))[2]
        if np.linalg.eigvalsh(hess).min() >= 0:
            continue
        failures.clear()
        d_hat, value, diag = estimate_d(scal, EstimationConfig(), WSPEC)
        d_ref, value_ref = lbfgsb_search(scal, box)
        assert failures and diag["converged"] is True
        assert value <= value_ref + 1e-9
        assert_allclose(d_hat, d_ref, atol=1e-6)
        tested += 1


@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_active_bounds_name_the_channels_held_at_the_box(rho):
    """Channel 1's wavelet variance falls like 2^(-6j): its optimum lies
    below the box, so the search holds it at BOX_LOW and the free channel
    takes the Newton step of its own block, to the bounded L-BFGS-B minimum."""
    scal = scale_domain_scalogram(8, [0.3, -3.0], rho)
    d_hat, value, diag = estimate_d(scal, EstimationConfig(), WSPEC)
    d_ref, value_ref = lbfgsb_search(scal, search_box(WSPEC))
    assert diag["converged"] is True and diag["function_evaluations"] <= 10
    assert diag["active_bounds"] == [1] and d_hat[1] == BOX_LOW
    assert_allclose(d_hat, d_ref, atol=1e-6)
    assert value <= value_ref + 1e-9


@pytest.mark.parametrize("path", ["scenarios/table1_row3.cfg",
                                  "scenarios/table1_nonstationary.cfg"])
def test_table1_fits_take_few_evaluations(path):
    """The count-weighted start: over the first 40 replications of a Table 1
    scenario, its joint and univariate fits take at most 5.2 evaluations on
    average (4.88 and 5.04 with it, 5.71 and 5.79 from the unweighted slope)."""
    scenario = load_scenario(path)
    spec, config = scenario.wavelet_spec(), scenario.estimation_config()
    evaluations = []
    for seed in np.random.SeedSequence(scenario.seed).spawn(40):
        panel = simulate_arfima(scenario.arfima_spec(seed))
        evaluations.append(estimate_panel(panel, spec, config).diagnostics["function_evaluations"])
        diagnostics = estimate_univariate_each(panel, spec, config)[1][0]
        evaluations.append(diagnostics["function_evaluations"])
    assert np.mean(evaluations) <= 5.2


def test_geometry_constants_are_read_only():
    scal = simulated_scalogram(seed=3)
    c, weights, _ = scal._centred_terms
    for constant in (c, weights, scal._geometry[3], *estimator._pair_indices(3)):
        with pytest.raises(ValueError):
            constant.flat[0] = 0


def test_table1_fit_has_no_active_bounds():
    scenario = load_scenario("scenarios/table1_row3.cfg")
    spec, config = scenario.wavelet_spec(), scenario.estimation_config()
    panel = simulate_arfima(scenario.arfima_spec(1))
    assert estimate_panel(panel, spec, config).diagnostics["active_bounds"] == []
    assert estimate_univariate_each(panel, spec, config)[1][0]["active_bounds"] == []


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.integers(1, 6), j0=st.integers(1, 3), n_scales=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1),
       d=st.lists(st.floats(-0.5, 2.0), min_size=6, max_size=6))
def test_objective_derivatives_match_reference(p, j0, n_scales, seed, d):
    """The hoisted derivatives equal the per-call formula (tests/helpers.py),
    <J>-centred; the 0-centred sum is g_hat."""
    j1 = j0 + n_scales - 1
    scal = random_scalogram(np.random.default_rng(seed), p=p, j0=j0, j1=j1, base=16 << j1)
    d = np.array(d[:p])
    value, grad, hess = _objective_derivatives(scal, d)
    ref_value, ref_grad, ref_hess = reference_objective_derivatives(scal, d)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert_allclose(grad, ref_grad, rtol=1e-12)
    assert_allclose(hess, ref_hess, rtol=1e-12)
    assert_allclose(g_hat(scal, d), reference_g_weighted(scal, d, 0.0), rtol=1e-12)


@pytest.mark.parametrize("second", [lambda x: x, lambda x: 2.0 * x + 1.0],
                         ids=["identical", "collinear"])
def test_degenerate_panel_never_converges_to_infinite_objective(second):
    x = np.random.default_rng(61).standard_normal(512)
    est = estimate_panel(np.column_stack([x, second(x)]), WSPEC, EstimationConfig())
    assert math.isfinite(est.objective_value) or est.diagnostics["converged"] is False


def test_rate_rule_j0():
    assert rate_rule_j0(512, 2.0) == 2
    assert rate_rule_j0(2048, 2.0) == 2
    assert rate_rule_j0(2**15, 1.0) == 5
    with pytest.raises(ConfigError):
        rate_rule_j0(512, 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        EstimationConfig(j0=0)
    with pytest.raises(ConfigError):
        EstimationConfig(j0=3, j1=3)
