"""Scalogram, Whittle objective, and estimation pipeline tests.

The cross-checks deliberately recompute the criterion through independent
routes: the scalogram against double loops, the likelihood against the
per-coefficient quadratic-form sum, the reduced objective against its
explicit composition, and the objective's gradient and Hessian against
central differences.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavewhittle import estimator, montecarlo, wavelets
from wavewhittle.arfima import ArfimaSpec, simulate_arfima
from wavewhittle.errors import ConfigError, LikelihoodError, ScaleRangeError
from wavewhittle.estimator import (
    BOX_LOW,
    EstimationConfig,
    Scalogram,
    _objective_derivatives,
    _start,
    estimate_d,
    estimate_omega,
    estimate_panel,
    estimate_univariate_each,
    g_hat,
    objective_R,
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
    mixed_panel,
    multistart_nelder_mead,
    off_half_integers,
    per_pair_omega,
    polyfit_start,
    random_scalogram,
    reference_g_weighted,
    reference_objective_derivatives,
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


def test_non_convergence_is_the_last_warning(monkeypatch):
    """``estimate_panel`` itself reports non-convergence, as the last
    warning, so a report's JSON key order is that of the CLI before."""
    panel = simulate_arfima(ArfimaSpec(d=[0.2, 0.3], omega=np.eye(2), n_samples=512, seed=5))
    est = estimate_panel(panel, WSPEC, EstimationConfig())
    assert list(est.warnings) == ["degenerate_pairs", "undefined_pairs", "invalid_channels",
                                  "out_of_range_correlation", "zero_channels", "non_convergence"]
    assert est.warnings["non_convergence"] is False and est.diagnostics["converged"] is True
    monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", 1)
    est = estimate_panel(panel, WSPEC, EstimationConfig())
    assert est.warnings["non_convergence"] is True and est.diagnostics["converged"] is False


# Near-collinear scale-domain scalograms (seed 18), searched again from
# their own d_hat: (d, rho, evaluations, active_bounds).  The second holds a
# third, independent channel at BOX_LOW, its gradient about 1.09.
STALLED_IN_ROUNDOFF = [pytest.param([0.2, 0.4], 1 - 1e-5, 2, [], id="free"),
                       pytest.param([0.2, 0.4, -3.0], 1 - 1e-6, 4, [2], id="held")]


@pytest.mark.parametrize("d, rho, evaluations, held", STALLED_IN_ROUNDOFF)
def test_a_search_stalled_in_roundoff_has_not_converged(monkeypatch, d, rho, evaluations, held):
    """A search where no step lowers R, with a projected gradient above
    GRAD_TOL, has not converged, however little R could still fall.

    Channels 0 and 1 correlate 1 - 1e-5 (or 1 - 1e-6), so the gradient's
    round-off is far above GRAD_TOL.  Each fit stops by the predicted step
    after 3 evaluations; searched again from that estimate, the first
    iteration has no earlier step to predict from, its Newton step (1.03e-8,
    or 6.5e-8) is above STEP_TOL, and no halving of it lowers R before the
    step falls to STEP_TOL: the search stops where it started, at R = -8.152
    (or -16.778), by ``no_descent``.
    """
    scal = scale_domain_scalogram(18, d, rho)
    d_fit, value_fit, _ = estimate_d(scal, EstimationConfig(), WSPEC)
    monkeypatch.setattr(estimator, "_start", lambda scal, box: d_fit)
    d_hat, value, diag = estimate_d(scal, EstimationConfig(), WSPEC)
    assert diag["converged"] is False and diag["stopped_by"] == "no_descent"
    assert diag["function_evaluations"] == evaluations and diag["iterations"] == 1
    assert diag["active_bounds"] == held
    assert d_hat.tobytes() == d_fit.tobytes() and value == value_fit
    # the projected gradient: a held coordinate's points out of the box
    _, grad, _ = _objective_derivatives(scal, d_hat)
    assert np.max(np.abs(np.delete(grad, held))) > estimator.GRAD_TOL


@pytest.mark.parametrize("d, rho, evaluations, held", STALLED_IN_ROUNDOFF)
def test_an_iteration_tries_one_direction(d, rho, evaluations, held):
    """Each iteration halves one direction: on the stalled searches above,
    every trial point is the box projection of x + 0.5^k times the Newton
    step of the free block (held rows and columns made identity), k = 0,
    1, ..., and none is a gradient trial after the Newton halvings fail."""
    scal = scale_domain_scalogram(18, d, rho)
    x = estimate_d(scal, EstimationConfig(), WSPEC)[0]
    box = search_box(WSPEC)
    _, grad, hess = _objective_derivatives(scal, x)
    free = np.ones(x.size, dtype=bool)
    free[held] = False
    newton = np.linalg.solve(np.where(free & free[:, None], hess, np.eye(x.size)), -grad)
    evaluated, (d_hat, _, diag) = drive(x.copy(), estimator._Vectors,
                                        lambda point: _objective_derivatives(scal, point))
    trials = [point for point, _ in evaluated[1:]]
    for k, trial in enumerate(trials):
        assert trial.tobytes() == estimator._project(x + 0.5**k * newton, *box).tobytes()
    assert len(trials) == evaluations - 1 and not any(confirming for _, confirming in evaluated)
    assert diag["stopped_by"] == "no_descent" and d_hat.tobytes() == x.tobytes()


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


def test_univariate_pass_makes_no_lapack_call(monkeypatch):
    """The univariate pass is one search on floats per channel: it calls
    neither the joint fit, nor the joint objective's derivatives, nor any
    LAPACK routine, also on a zero channel, whose start comes from its own
    log-variances."""
    def forbidden(*args):
        pytest.fail("the univariate pass called the joint fit or LAPACK")

    monkeypatch.setattr(estimator, "estimate_d", forbidden)
    monkeypatch.setattr(estimator, "_objective_derivatives", forbidden)
    for name in ("slogdet", "logdet_inv", "newton_step"):
        monkeypatch.setattr(estimator._Lapack, name, staticmethod(forbidden))
    panel = simulate_arfima(ArfimaSpec(d=np.full(5, 0.3), omega=np.eye(5), n_samples=512, seed=3))
    panel[:, 2] = 0.0
    d_each, diags = estimate_univariate_each(panel, WSPEC, EstimationConfig())
    assert [diag["converged"] for diag in diags] == [True, True, False, True, True]
    assert d_each[2] == 0.25


def test_univariate_each_zero_channel_not_converged():
    # a zero channel makes its own criterion singular, and only its own: it
    # keeps its start value; the multivariate fit of the panel is not finite
    x = simulate_arfima(ArfimaSpec(d=[0.2, 0.3], omega=np.eye(2), n_samples=512, seed=5))
    x[:, 1] = 0.0
    d_each, diags = estimate_univariate_each(x, WSPEC, EstimationConfig())
    assert [diag["converged"] for diag in diags] == [True, False]
    assert [diag["zero_channel"] for diag in diags] == [False, True]
    assert d_each[1] == 0.25 and diags[1]["iterations"] == 0
    alone = estimate_univariate_each(x[:, :1], WSPEC, EstimationConfig())[0][0]
    assert d_each[0] == pytest.approx(alone, abs=1e-10)
    est = estimate_panel(x, WSPEC, EstimationConfig())
    assert est.diagnostics["converged"] is False
    assert not math.isfinite(est.objective_value)


def test_univariate_each_allows_fewer_coefficients_than_channels():
    # each channel is fitted on its own variances, so the rank condition
    # of estimate_d on the full p x p sums does not apply
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
            assert_allclose(_start(scal, box), polyfit_start(scal, box),
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
    start = _start(scal, box)
    assert_allclose(start, polyfit_start(scal, box), rtol=0, atol=1e-12)
    assert np.isfinite(start[1]) and start[1] != 0.25
    assert start[2] == start[3] == 0.25


def lapack_cases(p: int) -> dict[str, np.ndarray]:
    """p x p matrices of every kind the fit's LAPACK calls can meet."""
    rng = np.random.default_rng(p)
    root = rng.normal(size=(p, p))
    spd = root @ root.T + p * np.eye(p)
    cases = {
        "spd": spd,
        "indefinite": root @ np.diag(np.r_[-1.0, np.ones(p - 1)]) @ root.T,
        "zero": np.zeros((p, p)),
        "rank_deficient": root[:, 1:] @ root[:, 1:].T,
        "nan_corner": spd.copy(),
        "nan_last": spd.copy(),
        "inf_corner": spd.copy(),
    }
    cases["nan_corner"][0, 0] = np.nan
    cases["nan_last"][-1, -1] = np.nan
    cases["inf_corner"][0, 0] = np.inf
    if p > 1:
        cases["zero_row"] = spd.copy()
        cases["zero_row"][-1] = cases["zero_row"][:, -1] = 0.0
        cases["nan_pair"] = spd.copy()
        cases["nan_pair"][0, -1] = cases["nan_pair"][-1, 0] = np.nan
    if p == 2:
        # the Hessian of a collinear [x, 2x] panel (seed 207): its Cholesky
        # factor exists, yet LU meets an exactly zero pivot
        cases["cholesky_then_singular"] = np.frombuffer(bytes.fromhex(
            "a495c6b1643b3243a295c6b1643b32c3a295c6b1643b32c3a095c6b1643b3243"),
            dtype="<f8").reshape(2, 2).copy()
    return cases


def linalg_outcome(call, *args):
    """The bytes of what ``call`` returns (None as "None"), or "LinAlgError"
    if it raises it."""
    try:
        out = call(*args)
    except np.linalg.LinAlgError:
        return "LinAlgError"
    return ["None" if part is None else np.asarray(part).dtype.str + np.asarray(part).tobytes().hex()
            for part in (out if isinstance(out, tuple) else (out,))]


def reference_logdet_inv(a):
    """numpy.linalg's slogdet, then its inverse only where the logdet is
    finite: what ``_Lapack.logdet_inv`` fuses."""
    sign, logdet = np.linalg.slogdet(a)
    if sign <= 0 or not math.isfinite(logdet):
        return math.inf, None
    return float(logdet), np.linalg.inv(a)


def reference_newton_step(a, b):
    """numpy.linalg's Cholesky test, then its solve only where the test
    passes: what ``_Lapack.newton_step`` fuses; None where either fails."""
    try:
        np.linalg.cholesky(a)
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("p", range(1, 9))
def test_lapack_adapter_matches_numpy_linalg(p):
    """Each adapter call returns numpy.linalg's bits, fails exactly where
    numpy.linalg does (slogdet flags failure as sign <= 0 in its bits, the
    fused calls by inf and None, ``newton_step`` also where the Cholesky
    test passes and the solve fails) and warns on nothing, numpy.linalg's
    own NaN warning included."""
    lapack = estimator._Lapack
    b = np.random.default_rng(100 + p).normal(size=p)
    pairs = [(np.linalg.slogdet, lapack.slogdet), (reference_logdet_inv, lapack.logdet_inv),
             (lambda a: reference_newton_step(a, b), lambda a: lapack.newton_step(a, b))]
    for name, a in lapack_cases(p).items():
        for reference, adapted in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = linalg_outcome(reference, a)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert linalg_outcome(adapted, a) == expected, (name, reference)
    cases = lapack_cases(p)
    for name in ("spd", "indefinite", "zero"):
        passes = name == "spd"
        assert (lapack.logdet_inv(cases[name])[1] is not None) is passes, name
        assert (lapack.newton_step(cases[name], b) is not None) is passes, name
    assert lapack.logdet_inv(cases["zero"])[0] == math.inf
    if p == 2:
        singular = cases["cholesky_then_singular"]
        np.linalg.cholesky(singular)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(singular, b)
        assert lapack.newton_step(singular, b) is None


def drive(x, algebra, evaluate):
    """Run ``_newton_search`` on the box of WSPEC from x, handing it
    evaluate(point) as its derivatives and evaluate(point)[0] as the value
    alone; returns the (point, confirming) pairs it evaluated, in order,
    confirming when it asked for the value alone, and its result."""
    evaluated = []

    def derivatives(point):
        evaluated.append((point, False))
        return evaluate(point)

    def value_at(point):
        evaluated.append((point, True))
        return evaluate(point)[0]

    result = estimator._newton_search(x, *search_box(WSPEC), algebra, derivatives, value_at)
    return evaluated, result


def test_indefinite_hessian_falls_back_to_the_gradient_step(monkeypatch):
    """Bivariate scalograms whose correlation and variances jump from scale
    to scale make R nonconvex: at the start its Hessian is indefinite, the
    Cholesky test in ``newton_step`` fails, and the first iteration's trials
    halve the projected step along -gradient until the Armijo test accepts
    one.  The search ends at the bounded L-BFGS-B minimum, and ``estimate_d``
    is this search."""
    newton_calls = []
    newton_step = estimator._Lapack.newton_step

    def newton_spy(a, b):
        step = newton_step(a, b)
        if step is None:
            assert np.linalg.eigvalsh(a).min() < 0  # the PD test failed on an indefinite block
        newton_calls.append(step is None)
        return step

    monkeypatch.setattr(estimator._Lapack, "newton_step", staticmethod(newton_spy))
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
        x = _start(scal, box)
        value, grad, hess = _objective_derivatives(scal, x)
        if np.linalg.eigvalsh(hess).min() >= 0:
            continue
        newton_calls.clear()
        iteration = []  # the newton_step calls made before each evaluated point

        def evaluate(point):
            iteration.append(len(newton_calls))
            return _objective_derivatives(scal, point)

        evaluated, (d_hat, value_hat, diag) = drive(x, estimator._Vectors, evaluate)
        # the first iteration's PD test fails, and its gradient step is taken
        assert newton_calls[0] is True and len(newton_calls) >= 2
        trials = [point for (point, _), k in zip(evaluated, iteration) if k == 1]
        for halvings, trial in enumerate(trials):
            assert trial.tobytes() == estimator._project(x + 0.5**halvings * -grad, *box).tobytes()
        trial_values = [_objective_derivatives(scal, trial)[0] for trial in trials]
        armijo = [r < value and r <= value + estimator.ARMIJO * grad @ (trial - x)
                  for r, trial in zip(trial_values, trials)]
        assert armijo == [False] * (len(trials) - 1) + [True]
        assert diag["converged"] is True
        public = estimate_d(scal, EstimationConfig(), WSPEC)
        assert public[0].tobytes() == d_hat.tobytes() and public[1:] == (value_hat, diag)
        d_ref, value_ref = lbfgsb_search(scal, box)
        assert value_hat <= value_ref + 1e-9
        assert_allclose(d_hat, d_ref, atol=1e-6)
        tested += 1


def test_backtracking_gives_up_on_a_nan_direction():
    """A NaN gradient gives NaN Newton and gradient steps, which never fall
    to STEP_TOL: the search, on vectors and on floats, evaluates no trial point
    instead of halving forever, and ends not converged after one iteration."""
    scal = Scalogram(np.array([4.0, 2.0, 1.0])[:, None, None] * np.eye(2),
                     np.array([4, 2, 1]), 1, 3)
    x = np.array([0.1, 0.2])
    value, grad, hess = _objective_derivatives(scal, x)
    grad[0] = np.nan
    for start, algebra, handed in ((x, estimator._Vectors, (value, grad, hess)),
                                   (0.1, estimator._Floats, (value, math.nan, hess[0, 0]))):
        evaluated, (d_hat, value_hat, diag) = drive(start, algebra, lambda point: handed)
        assert evaluated == [(start, False)] and d_hat is start and value_hat == value
        assert diag == {"method": "newton", "converged": False, "stopped_by": "no_descent",
                        "function_evaluations": 1, "iterations": 1, "active_bounds": []}


def univariate_derivatives(variances: np.ndarray, scal: Scalogram, d: float):
    """(R, R', R'') of the closed-form p = 1 criterion R(d) = log G(d) of one
    channel's wavelet variances, as in ``_fit_univariate``'s docstring."""
    _, negated, weights, _, _ = scal._geometry
    g, h, q = (weights @ (variances * np.exp2(2.0 * negated[:, 0] * d))).tolist()
    if not 0.0 < g < math.inf:
        return math.inf, 0.0, 0.0
    return math.log(g), -2.0 * LOG2 * h / g, 4.0 * LOG2**2 * (q / g - (h / g) ** 2)


def test_the_float_search_is_the_vector_search_at_p_1():
    """``_newton_search`` on one float (the univariate pass) and on a
    1-element array (the joint fit) is one search: handed the same (R, R', R'')
    of the closed-form univariate criterion, the two evaluate the same points
    and end at the same d, R and diagnostics, bit for bit.  Random wavelet
    variances at 2 to 9 scales, among them channels held at BOX_LOW and at
    M, and a zero channel; each searched from the univariate pass's start
    and from a random point of the box, which takes longer steps."""
    rng = np.random.default_rng(24)
    lo, hi = search_box(WSPEC)
    held, zero, halved = set(), 0, 0
    for _ in range(300):
        n_scales = int(rng.integers(2, 10))
        counts = np.array([max(8192 >> j, 1) for j in range(1, n_scales + 1)])
        d = np.append(rng.uniform(-0.5, 1.5, 4), [-3.0, 6.0, 0.0])
        j = np.arange(1, n_scales + 1)
        variances = counts * 2.0 ** (2.0 * d[:, None] * j) * rng.chisquare(counts) / counts
        variances[-1] = 0.0
        scal = Scalogram(variances.T[:, :, None] * np.eye(len(d)), counts, 1, n_scales)
        starts = _start(scal, (lo, hi)).tolist()
        for row, start in zip(variances, starts):
            for x in (start, float(rng.uniform(lo, hi))):
                def evaluate(point, vector):
                    value, grad, hess = univariate_derivatives(
                        row, scal, float(point[0]) if vector else point)
                    if vector:
                        return value, np.array([grad]), np.array([[hess]])
                    return value, grad, hess

                with np.errstate(divide="ignore", invalid="ignore"):
                    on_floats = drive(x, estimator._Floats, lambda point: evaluate(point, False))
                    on_vectors = drive(np.array([x]), estimator._Vectors,
                                       lambda point: evaluate(point, True))
                float_points, (d_float, r_float, diag_float) = on_floats
                vector_points, (d_vector, r_vector, diag_vector) = on_vectors
                assert (np.array([point for point, _ in float_points]).tobytes()
                        == np.concatenate([point for point, _ in vector_points]).tobytes())
                assert [flag for _, flag in float_points] == [flag for _, flag in vector_points]
                assert np.float64(d_float).tobytes() == d_vector.tobytes()
                assert r_float == r_vector and diag_float == diag_vector
                if diag_float["active_bounds"]:
                    held.add(d_float)
                zero += diag_float["iterations"] == 0
                halved += diag_float["function_evaluations"] > diag_float["iterations"] + 1
    assert held == {lo, hi} and zero == 600 and halved > 0


def test_each_channel_is_handed_its_closed_form_criterion(monkeypatch):
    """The callbacks that ``_fit_univariate`` hands a channel's search are its
    closed-form criterion: at random points of the box, (R, R', R'') equal
    the numpy oracle ``univariate_derivatives`` to 1e-13 relative to the
    larger of the value and the size of its terms (1, 2 log(2) max|c_j| and
    4 log(2)^2 max c_j^2: each of R, R' and R'' crosses zero, and R'' is a
    difference of terms that cancel near the box edges), and the value alone
    is R's bits.  Random variance tables at 2 to 12 scales, each with an
    all-zero row and a row with one infinite entry, whose callbacks give
    (inf, 0, 0) everywhere."""
    handed = []
    search = estimator._newton_search

    def spy(x, lo, hi, algebra, derivatives, value_at):
        handed.append((derivatives, value_at))
        return search(x, lo, hi, algebra, derivatives, value_at)

    monkeypatch.setattr(estimator, "_newton_search", spy)
    rng = np.random.default_rng(30)
    lo, hi = search_box(WSPEC)
    for _ in range(60):
        n_scales = int(rng.integers(2, 13))
        counts = np.array([max(8192 >> j, 1) for j in range(1, n_scales + 1)])
        j = np.arange(1, n_scales + 1)
        d = rng.uniform(-0.5, 1.5, 4)
        variances = counts * 2.0 ** (2.0 * d[:, None] * j) * rng.chisquare(counts) / counts
        variances = np.vstack([variances, np.zeros(n_scales), variances[0]])
        variances[-1, rng.integers(n_scales)] = math.inf
        p = len(variances)
        scal = Scalogram(np.zeros((n_scales, p, p)), counts, 1, n_scales, variances)
        c = np.max(np.abs(scal._geometry[1]))
        size = np.array([1.0, 2.0 * LOG2 * c, 4.0 * LOG2**2 * c * c])
        handed.clear()
        estimator._fit_univariate(scal, WSPEC)
        assert len(handed) == p
        for ell, (row, (derivatives, value_at)) in enumerate(zip(variances, handed)):
            for point in rng.uniform(lo, hi, 20).tolist():
                got = derivatives(point)
                assert value_at(point) == got[0]
                with np.errstate(invalid="ignore"):  # inf times a zero weight
                    expected = univariate_derivatives(row, scal, point)
                if ell >= p - 2:
                    assert got == expected == (math.inf, 0.0, 0.0)
                else:
                    error = np.abs(np.subtract(got, expected))
                    assert np.all(error <= 1e-13 * np.maximum(np.abs(expected), size))


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
    """Over the first 40 replications of a Table 1 scenario, its joint fits
    and each channel's univariate fit take at most 4.0 evaluations on
    average: 3.63 and 3.84 (joint 3.85 and 4.00, each channel 3.53 and
    3.76), a margin of 0.37 and 0.16.  Before the predicted-step stop they
    took 4.69 and 4.88, and 5.71 and 5.79 from the unweighted log-regression
    start."""
    scenario = load_scenario(path)
    spec, config = scenario.wavelet_spec(), scenario.estimation_config()
    evaluations = []
    for seed in np.random.SeedSequence(scenario.seed).spawn(40):
        panel = simulate_arfima(scenario.arfima_spec(seed))
        evaluations.append(estimate_panel(panel, spec, config).diagnostics["function_evaluations"])
        evaluations.extend(diagnostics["function_evaluations"]
                           for diagnostics in estimate_univariate_each(panel, spec, config)[1])
    assert np.mean(evaluations) <= 4.0


def newton_steps_left(panel, spec, config):
    """The largest |entry| of the Newton step left at the joint d_hat of
    ``estimate_panel`` (on the free block), and at each channel's univariate
    d_hat not held at a box edge."""
    est = estimate_panel(panel, spec, config)
    scal = estimator._scalogram(panel, spec, config, panel.shape[1])
    _, grad, hess = _objective_derivatives(scal, est.d_hat)
    free = np.ones(grad.size, dtype=bool)
    free[est.diagnostics["active_bounds"]] = False
    joint = np.max(np.abs(np.linalg.solve(hess[np.ix_(free, free)], grad[free])))
    d_uni, diagnostics = estimate_univariate_each(panel, spec, config)
    scal = estimator._scalogram(panel, spec, config, 1)
    univariate = []
    for row, d, diag in zip(scal.variances, d_uni.tolist(), diagnostics):
        if not diag["active_bounds"]:
            _, slope, curvature = univariate_derivatives(row, scal, d)
            univariate.append(abs(slope / curvature))
    assert est.diagnostics["converged"] and all(diag["converged"] for diag in diagnostics)
    return joint, max(univariate)


def test_predicted_stops_leave_a_step_of_at_most_twice_step_tol():
    """Where the predicted-step stop ends a fit, the Newton step left at d_hat
    is what the rule predicts, at most STEP_TOL, up to round-off: at every
    d_hat of 40 replications of each Table 1 cell and of wide panels shaped
    as the benchmark's (p = 20, N = 4096 and p = 6, N = 16384, channels
    correlated 0.3, d drawn as there), joint and univariate, it is at most
    2 STEP_TOL.  Measured: at most 0.75 STEP_TOL (joint) and 0.95 STEP_TOL
    (univariate).  With the step rule alone, a fit whose last Newton step
    (up to 2.7 STEP_TOL) changed R by less than it resolves failed the
    Armijo test on it, and stopped by the gradient rule without it."""
    limit = 2 * estimator.STEP_TOL
    left = []
    for path in ("scenarios/table1_row3.cfg", "scenarios/table1_nonstationary.cfg"):
        scenario = load_scenario(path)
        spec, config = scenario.wavelet_spec(), scenario.estimation_config()
        for seed in np.random.SeedSequence(scenario.seed).spawn(40):
            left.append(newton_steps_left(simulate_arfima(scenario.arfima_spec(seed)), spec, config))
    for p, n, count in ((20, 4096, 3), (6, 16384, 1)):
        omega = omega_from_rho(0.3, p)
        for k in range(count):
            d = np.sort(np.random.default_rng([20250808, p, k]).uniform(-0.1, 0.45, p))
            panel = simulate_arfima(ArfimaSpec(d=d, omega=omega, n_samples=n, seed=k))
            left.append(newton_steps_left(panel, WSPEC, EstimationConfig()))
    assert np.max(left) <= limit


def drive_floats(start, derivatives):
    """Run ``_newton_search`` on floats from start, handed derivatives(x) =
    (R, R', R''); returns the evaluated (point, confirming) pairs and the
    search's result."""
    return drive(start, estimator._Floats, derivatives)


def test_predicted_stop_in_the_quadratic_phase():
    """On R(x) = e^u - u, u = x - 0.3, Newton's error falls as u^2 / 2: from
    x = 0.8 it reads 0.5, 0.107, 5.48e-3 and 1.50e-5, after whole steps of
    0.393, 0.101 and 5.46e-3.  The next step, 1.50e-5, passes
    l^3 <= STEP_TOL l_prev^2 (3.4e-15 <= 3.0e-13), so it is taken and only
    R is evaluated there, at the predicted error l^3 / l_prev^2 = 1.1e-10:
    5 evaluations, where the step rule takes 6 (derivatives there, then a
    confirmed step of 1.1e-10)."""
    def derivatives(x):
        u = x - 0.3
        return math.exp(u) - u, math.exp(u) - 1.0, math.exp(u)

    evaluated, (x, value, diag) = drive_floats(0.8, derivatives)
    assert [confirming for _, confirming in evaluated] == [False] * 4 + [True]
    assert diag["stopped_by"] == "predicted_step" and diag["converged"] is True
    assert diag["function_evaluations"] == 5 and diag["iterations"] == 4
    assert abs(x - 0.3) < 2e-10 and value == 1.0
    steps = np.abs(np.diff([point for point, _ in evaluated]))
    assert steps[-1] ** 3 <= estimator.STEP_TOL * steps[-2] ** 2 and steps[-1] > estimator.STEP_TOL


def test_predicted_stop_at_a_degenerate_minimum():
    """At the quartic minimum R(x) = (x - 0.3)^4 the Newton error falls
    linearly, by r = 2/3 a step: the prediction fires once a step is at most
    STEP_TOL / r^2, and leaves an error of at most STEP_TOL / (r (1 - r)),
    4.5 STEP_TOL (from 0.8: a last step of 1.51e-8, an error of 3.0e-8 after
    42 evaluations).  On floats and on 1-vectors alike."""
    def derivatives(x):
        u = x - 0.3
        return u**4, 4.0 * u**3, 12.0 * u**2

    def on_vectors(x):
        value, grad, hess = derivatives(float(x[0]))
        return value, np.array([grad]), np.array([[hess]])

    searches = (drive_floats(0.8, derivatives),
                drive(np.array([0.8]), estimator._Vectors, on_vectors))
    for _, (x, _, diag) in searches:
        assert diag["stopped_by"] == "predicted_step" and diag["converged"] is True
        assert abs(float(np.squeeze(x)) - 0.3) <= 4.5 * estimator.STEP_TOL
    assert searches[0][1][2] == searches[1][1][2]


def test_a_halved_step_predicts_nothing():
    """The prediction reads only a whole Newton step before it.  A scripted
    R whose first whole step (0.5) is taken, whose second Newton step (0.2)
    fails the Armijo test and is taken halved, and whose third Newton step
    is 1e-4: after the whole step it would stop (1e-12 <= STEP_TOL 0.25),
    and also after a halved step of 0.1 (1e-12 <= STEP_TOL 0.01), but a
    halved step predicts nothing, so that step is evaluated in full."""
    script = {1.0: (10.0, -1.0, 2.0),       # Newton step +0.5
              1.5: (9.0, -0.4, 2.0),        # taken whole; next Newton step +0.2
              1.7: (9.5, 0.0, 1.0),         # R rose: halve
              1.6: (8.0, -1e-4, 1.0),       # taken halved; next Newton step +1e-4
              1.6001: (7.9, 0.0, 1.0)}      # taken, and a zero step ends the search

    def derivatives(x):
        return script[min(script, key=lambda key: abs(key - x))]

    evaluated, (_, _, diag) = drive_floats(1.0, derivatives)
    assert [round(point, 6) for point, _ in evaluated] == [1.0, 1.5, 1.7, 1.6, 1.6001, 1.6001]
    assert [confirming for _, confirming in evaluated] == [False] * 5 + [True]
    assert diag["stopped_by"] == "step" and diag["function_evaluations"] == 6


@pytest.mark.parametrize("case, stopped_by, converged", [
    ("table1", "predicted_step", True),
    ("zero_channel", "singular_start", False),
    ("iteration_cap", "iteration_cap", False),
])
def test_diagnostics_say_why_the_search_stopped(monkeypatch, case, stopped_by, converged):
    """``stopped_by`` names the rule that ended the search, in the joint fit
    and in each univariate channel alike."""
    panel = simulate_arfima(ArfimaSpec(d=[0.2, 0.3], omega=np.eye(2), n_samples=512, seed=5))
    if case == "zero_channel":
        panel[:, 1] = 0.0
    if case == "iteration_cap":
        monkeypatch.setattr(estimator, "NEWTON_MAX_ITERATIONS", 1)
    est = estimate_panel(panel, WSPEC, EstimationConfig())
    _, channels = estimate_univariate_each(panel, WSPEC, EstimationConfig())
    assert est.diagnostics["stopped_by"] == stopped_by
    assert est.diagnostics["converged"] is converged
    assert channels[-1]["stopped_by"] == stopped_by and channels[-1]["converged"] is converged


def test_leading_levels_are_the_shorter_scalogram():
    pyramid = dwt_pyramid(np.random.default_rng(5).standard_normal((512, 3)), WSPEC, 6)
    full, short = scalogram(pyramid, 2, 6), scalogram(pyramid, 2, 4)
    leading = full._leading(4)
    assert (leading.j0, leading.j1) == (2, 4)
    assert leading.matrices.tobytes() == short.matrices.tobytes()
    assert leading.counts.tolist() == short.counts.tolist()
    assert leading.mean_scale == short.mean_scale
    assert full._leading(6) is full
    assert leading.variances.tobytes() == short.variances.tobytes()


def test_variance_table_at_p_1_is_the_matrix_diagonal():
    """At p = 1 a level's ``w.T @ w`` and its per-row dot are the same BLAS
    dot: the variance table equals the matrices' diagonal bit for bit, on
    302 sample lengths; built from matrices alone, a Scalogram takes their
    diagonal as its table."""
    rng = np.random.default_rng(8)
    for n in range(64, 64 + 7 * 302, 7):
        pyramid = dwt_pyramid(rng.standard_normal(n) * rng.uniform(0.1, 100.0), WSPEC)
        scal = scalogram(pyramid, 1, pyramid.j_max)
        assert scal.variances.shape == (1, pyramid.j_max)
        assert scal.variances.tobytes() == scal.matrices[:, 0, 0].tobytes()
    scal = random_scalogram(rng, p=3)
    table = Scalogram(scal.matrices, scal.counts, scal.j0, scal.j1).variances
    assert table.flags.c_contiguous
    assert table.tobytes() == np.diagonal(scal.matrices, axis1=1, axis2=2).T.tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), mix=st.floats(0.0, 1.0), zero=st.booleans(),
       order=st.permutations(range(5)), size=st.integers(1, 5))
def test_univariate_estimate_of_a_column_is_its_own(seed, mix, zero, order, size):
    """``estimate_univariate_each`` on any subset or permutation of a panel's
    columns gives each channel the d and diagnostics of the whole panel's
    fit, and of the column alone, bit for bit: its pyramid, its row of the
    variance table, its start and its search see no other channel.  Five
    ARFIMA channels at N = 512 (independent, so that every draw is
    embeddable), correlated by adding mix times channel 4 to the others;
    channel 0 is sometimes all zero."""
    d = np.random.default_rng(seed).uniform(-0.3, 1.3, 5)
    panel = simulate_arfima(ArfimaSpec(d=d, omega=np.eye(5), n_samples=512, seed=seed))
    panel[:, :4] += mix * panel[:, 4:]
    if zero:
        panel[:, 0] = 0.0
    config = EstimationConfig()
    d_all, diags_all = estimate_univariate_each(panel, WSPEC, config)
    columns = list(order[:size])
    d_sub, diags_sub = estimate_univariate_each(panel[:, columns], WSPEC, config)
    assert d_sub.tobytes() == d_all[columns].tobytes()
    assert diags_sub == [diags_all[ell] for ell in columns]
    ell = columns[0]
    d_alone, diags_alone = estimate_univariate_each(panel[:, ell], WSPEC, config)
    assert d_alone.tobytes() == d_all[ell:ell + 1].tobytes() and diags_alone == [diags_all[ell]]


def test_joint_and_univariate_fits_share_the_start(monkeypatch):
    """Every fit starts from ``_start``: on one scalogram, the joint search
    and channel l's univariate search start at the same value, bit for bit,
    computed once for the scalogram and box and kept read-only.  Four
    channels, one with zero coefficients at scale 3 (its start takes the
    masked regression); seeds 0..9."""
    starts = []
    search = estimator._newton_search

    def spy(x, lo, hi, algebra, derivatives, value_at):
        starts.append(x)
        return search(x, lo, hi, algebra, derivatives, value_at)

    monkeypatch.setattr(estimator, "_newton_search", spy)
    for seed in range(10):
        panel = simulate_arfima(ArfimaSpec(d=[0.1, 0.3, 0.45, 0.2], omega=omega_from_rho(0.5, 4),
                                           n_samples=1024, seed=seed))
        pyramid = dwt_pyramid(panel, WSPEC, 7)
        pyramid.details[2][:, 1] = 0.0
        scal = scalogram(pyramid, 1, 7)
        starts.clear()
        estimate_d(scal, EstimationConfig(), WSPEC)
        estimator._fit_univariate(scal, WSPEC)
        joint, *each = starts
        assert joint.tobytes() == np.array(each).tobytes()
        (kept,) = scal._starts.values()
        assert kept.tobytes() == joint.tobytes() and not kept.flags.writeable


def test_a_fit_that_never_moves_returns_a_copy_of_the_start():
    """A joint fit whose G_bar is singular at the start (a zero channel)
    stops there: its d_hat holds the start's values in a writable array of
    its own, and writing to it leaves the scalogram's start alone."""
    details = [np.random.default_rng(j).standard_normal((512 >> j, 2)) for j in range(1, 7)]
    for level in details:
        level[:, 1] = 0.0
    scal = scalogram(make_pyramid(details), 1, 6)
    d_hat, value, diag = estimate_d(scal, EstimationConfig(), WSPEC)
    start = _start(scal, search_box(WSPEC))
    assert value == math.inf and diag["iterations"] == 0
    assert d_hat.tobytes() == start.tobytes()
    d_hat[:] = 0.0
    assert _start(scal, search_box(WSPEC)).tobytes() == start.tobytes() != d_hat.tobytes()


def test_a_non_finite_row_leaves_the_other_starts_alone():
    """Zeroing one scale of channel 3 makes its log-variance -inf there: its
    start becomes the masked regression on its finite scales, and every
    other channel's start keeps its bits."""
    box = search_box(WSPEC)
    rng = np.random.default_rng(31)
    for _ in range(20):
        details = [rng.standard_normal((2048 >> j, 4)) * 2.0 ** (rng.uniform(-0.2, 0.6, 4) * j)
                   for j in range(1, 9)]
        before = _start(scalogram(make_pyramid(details), 1, 8), box)
        details[int(rng.integers(8))][:, 3] = 0.0
        after = _start(scalogram(make_pyramid(details), 1, 8), box)
        assert after[:3].tobytes() == before[:3].tobytes()
        assert np.isfinite(after[3]) and after[3] != before[3]


def test_univariate_fit_of_a_channel_ignores_the_others():
    """A channel's univariate estimate and diagnostics are bit for bit the
    same whether it is fitted alone, in a p = 3 or in a p = 50 scalogram.
    Nine scales, so that a sum over scales could take numpy's pairwise
    blocks; the panel holds a zero channel (7) and one held at BOX_LOW (13)."""
    rng = np.random.default_rng(21)
    d = np.linspace(-0.4, 1.6, 50)
    d[13] = -3.0
    details = [rng.standard_normal((4096 >> j, 50)) * 2.0 ** (j * d) for j in range(1, 10)]
    for level in details:
        level[:, 7] = 0.0
    scal = scalogram(make_pyramid(details), 1, 9)

    def fit(channels):
        sub = Scalogram(scal.matrices[:, channels][:, :, channels].copy(), scal.counts, 1, 9)
        return estimator._fit_univariate(sub, WSPEC)

    d_all, diags_all = fit(list(range(50)))
    assert diags_all[7]["converged"] is False and diags_all[13]["active_bounds"] == [0]
    assert sum(diag["converged"] for diag in diags_all) == 49
    for channels in ([7, 13, 30], [0, 25, 49], [13, 12, 11]):
        d_three, diags_three = fit(channels)
        for k, ell in enumerate(channels):
            d_alone, (diag_alone,) = fit([ell])
            assert d_alone.tobytes() == d_three[k:k + 1].tobytes() == d_all[ell:ell + 1].tobytes()
            assert diag_alone == diags_three[k] == diags_all[ell]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(["arfima", "zero", "constant", "trend"]),
                      min_size=2, max_size=6).filter(lambda kinds: "arfima" in kinds),
       d=st.lists(st.floats(-0.3, 1.4).filter(off_half_integers), min_size=6, max_size=6),
       seed=st.integers(0, 2**16))
def test_univariate_degenerate_channels_fail_alone(kinds, d, seed):
    """ARFIMA channels mixed with zero, constant and linear-trend channels in
    any order: every ARFIMA channel converges, and its d and diagnostics are
    those of the column fitted alone, bit for bit (its row of the variance
    table sees no other channel).  A zero channel keeps its start and is not
    converged; a constant or a trend, which the wavelet leaves at rounding
    level, may or may not.  Either way ``zero_channel`` names exactly the
    zero, constant and trend channels, as ``estimate_panel`` names them in
    ``zero_channels``, each as it does for the column alone.  d keeps off
    the half-integers, which the simulator refuses."""
    panel = mixed_panel(kinds, d, seed)
    d_each, diags = estimate_univariate_each(panel, WSPEC, EstimationConfig())
    lo, hi = search_box(WSPEC)
    assert np.all((lo <= d_each) & (d_each <= hi))
    flat = [kind in ("zero", "constant", "trend") for kind in kinds]
    assert [diag["zero_channel"] for diag in diags] == flat
    for ell, kind in enumerate(kinds):
        d_alone, (diag_alone,) = estimate_univariate_each(panel[:, ell], WSPEC, EstimationConfig())
        assert diag_alone["zero_channel"] is flat[ell]
        if kind == "arfima":
            assert diags[ell]["converged"] is True and diags[ell] == diag_alone
            assert d_each[ell:ell + 1].tobytes() == d_alone.tobytes()
        elif kind == "zero":
            assert diags[ell]["converged"] is False and d_each[ell] == 0.25


def test_omega_checks_the_k_domain_once(monkeypatch):
    """estimate_omega masks the exponents outside K's domain itself, so it
    evaluates K without spectral_k's second check; the values are the same."""
    scal = random_scalogram(np.random.default_rng(31), p=3, base=400)
    d_hat = np.array([2.05, 2.0, 0.2])
    expected = estimate_omega(scal, d_hat, WSPEC)

    def checked(*args):
        pytest.fail("the K-domain check ran twice")

    monkeypatch.setattr(wavelets, "_check_delta", checked)
    omega, correlation, g_matrix, warnings = estimate_omega(scal, d_hat, WSPEC)
    for ours, theirs in zip((omega, correlation, g_matrix), expected):
        assert ours.tobytes() == theirs.tobytes()
    assert warnings == expected[3]
    monkeypatch.undo()
    deltas = np.array([0.4, 2.25])
    assert spectral_k(deltas, WSPEC).tobytes() == wavelets._spectral_k(deltas, WSPEC).tobytes()


def test_geometry_constants_are_read_only():
    scal = simulated_scalogram(seed=3, j0=2)
    scales = scal._geometry[4]
    assert scales.shape == (scal.j1 - 1, 1)
    assert scales.tobytes() == (-np.arange(2, scal.j1 + 1, dtype=np.float64)[:, None]).tobytes()
    assert scal.n_coefficients == int(scal.counts.sum())
    for constant in (*scal._geometry[1:], *estimator._pair_indices(3),
                     *montecarlo._report_layout(3)[1:], wavelets._filter_pair(4)):
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
@example(p=5, j0=1, n_scales=5, seed=430, d=[0.0, 1.0625, 2.0, 1.5, 0.0, 0.0])
def test_objective_derivatives_match_reference(p, j0, n_scales, seed, d):
    """The hoisted derivatives equal the per-call formula (tests/helpers.py),
    <J>-centred; the 0-centred sum is g_hat.  A Hessian entry formed by
    cancellation is held to round-off of the largest entry: in the pinned
    example, entry [1, 3] is ~2.2e-7 where the largest is 2.34."""
    j1 = j0 + n_scales - 1
    scal = random_scalogram(np.random.default_rng(seed), p=p, j0=j0, j1=j1, base=16 << j1)
    d = np.array(d[:p])
    value, grad, hess = _objective_derivatives(scal, d)
    ref_value, ref_grad, ref_hess = reference_objective_derivatives(scal, d)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert_allclose(grad, ref_grad, rtol=1e-12)
    assert_allclose(hess, ref_hess, rtol=1e-12, atol=1e-12 * np.abs(ref_hess).max())
    assert_allclose(g_hat(scal, d), reference_g_weighted(scal, d, 0.0), rtol=1e-12)


@pytest.mark.parametrize("second", [lambda x: x, lambda x: 2.0 * x + 1.0],
                         ids=["identical", "collinear"])
def test_degenerate_panel_never_converges_to_infinite_objective(second):
    x = np.random.default_rng(61).standard_normal(512)
    est = estimate_panel(np.column_stack([x, second(x)]), WSPEC, EstimationConfig())
    assert math.isfinite(est.objective_value) or est.diagnostics["converged"] is False


def test_config_validation():
    with pytest.raises(ConfigError):
        EstimationConfig(j0=0)
    with pytest.raises(ConfigError):
        EstimationConfig(j0=3, j1=3)
    config = EstimationConfig(j0=np.int64(2), j1=5.0)
    assert (config.j0, config.j1) == (2, 5) and type(config.j1) is int
