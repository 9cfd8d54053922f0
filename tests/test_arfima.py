"""Fractional differencing, ARFIMA simulation, and model covariance tests."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, gammasgn

import wavewhittle
from wavewhittle import arfima
from wavewhittle.arfima import (
    ArfimaSpec,
    correlation_from_cov,
    embedding_factor,
    model_wavelet_cov,
    simulate_arfima,
    split_memory,
    validate_long_run_cov,
)
from wavewhittle.errors import ConfigError, CovarianceError, VanishingMomentError
from wavewhittle.montecarlo import omega_from_rho
from wavewhittle.wavelets import WaveletSpec, dwt_pyramid, spectral_k

from helpers import frac_diff_coeffs, ma_cross_covariance, ma_simulate


def gamma_ratio_weights(d, count):
    """Gamma(j + d) / (Gamma(j + 1) Gamma(d)) via log-gamma, the closed form."""
    j = np.arange(count, dtype=np.float64)
    if d == 0.0:
        out = np.zeros(count)
        out[0] = 1.0
        return out
    signs = gammasgn(j + d) * gammasgn(d)
    return signs * np.exp(gammaln(j + d) - gammaln(j + 1) - gammaln(d))


def test_frac_diff_identity_filter():
    assert_allclose(frac_diff_coeffs(0.0, 6), [1, 0, 0, 0, 0, 0], atol=0)


def test_frac_diff_first_weight_is_d():
    assert frac_diff_coeffs(0.4, 3)[1] == pytest.approx(0.4, abs=1e-15)
    assert frac_diff_coeffs(0.4, 3)[2] == pytest.approx(0.28, abs=1e-15)


@pytest.mark.parametrize("d", [0.4, 0.2, -0.3, 0.49])
def test_frac_diff_matches_gamma_ratio(d):
    w = frac_diff_coeffs(d, 200)
    assert_allclose(w, gamma_ratio_weights(d, 200), rtol=1e-12)


def test_frac_diff_tail_decay():
    d = 0.3
    w = frac_diff_coeffs(d, 5000)
    j = np.arange(3000, 5000)
    ratio = w[3000:] / (j ** (d - 1) / math.gamma(d))
    assert np.max(np.abs(ratio - 1)) < 1e-2


def test_frac_diff_validation():
    with pytest.raises(ValueError):
        frac_diff_coeffs(0.5, 10)
    with pytest.raises(ValueError):
        frac_diff_coeffs(0.2, 0)


def test_split_memory():
    assert split_memory(0.2) == (0.2, 0)
    d_s, order = split_memory(1.2)
    assert order == 1 and d_s == pytest.approx(0.2)
    assert split_memory(1.0) == (0.0, 1)
    assert split_memory(2.3) == (pytest.approx(0.3), 2)
    for bad in (0.5, 1.5, -0.5, -0.7):
        with pytest.raises(ValueError):
            split_memory(bad)


def test_validate_long_run_cov():
    validate_long_run_cov(np.eye(3))
    with pytest.raises(CovarianceError):
        validate_long_run_cov(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD
    with pytest.raises(CovarianceError):
        validate_long_run_cov(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(CovarianceError):
        validate_long_run_cov(np.eye(3)[:2])
    for bad in (np.nan, np.inf):
        with pytest.raises(CovarianceError, match="omega contains non-finite entries"):
            validate_long_run_cov(np.array([[1.0, bad], [bad, 1.0]]))


def test_symmetry_tolerance_is_that_of_allclose():
    """An off-diagonal mismatch passes up to atol + rtol |omega^T| of the
    entry, 1e-12 + 1e-10 * 0.5 here, and fails at twice a mismatch just
    inside it: the verdicts of np.allclose(omega, omega.T, 1e-10, 1e-12)."""
    tolerance = 1e-12 + 1e-10 * 0.5
    for mismatch, symmetric in ((0.9 * tolerance, True), (1.8 * tolerance, False)):
        omega = np.array([[1.0, 0.5], [0.5 + mismatch, 1.0]])
        assert np.allclose(omega, omega.T, rtol=1e-10, atol=1e-12) is symmetric
        if symmetric:
            validate_long_run_cov(omega)
        else:
            with pytest.raises(CovarianceError, match="not symmetric"):
                validate_long_run_cov(omega)


def test_simulation_deterministic():
    spec = ArfimaSpec(d=[0.2, 0.4], omega=np.eye(2), n_samples=256, seed=11)
    assert np.array_equal(simulate_arfima(spec), simulate_arfima(spec))
    other = ArfimaSpec(d=[0.2, 0.4], omega=np.eye(2), n_samples=256, seed=12)
    assert not np.array_equal(simulate_arfima(spec), simulate_arfima(other))


def gamma_closed_form(d_l, d_m, omega_lm, h):
    """Sela & Hurvich's gamma_lm(h) for h >= 0, from log-gamma values."""
    if d_l == 0.0:
        return omega_lm if h == 0 else 0.0
    log_ratio = gammaln(h + d_l) - gammaln(h + 1 - d_m) - gammaln(d_l)
    sign = gammasgn(h + d_l) * gammasgn(d_l)
    scale = omega_lm * math.gamma(1 - d_l - d_m) / math.gamma(1 - d_l)
    return float(scale * sign * np.exp(log_ratio))


def embedded_sequence(d_s, omega, n):
    """The (2N, p, p) circulant C(k) of the embedding, back from its spectrum:
    C(k)[l, m] is gamma_lm(k) for k < N and gamma_lm(k - 2N) for k > N."""
    spectrum = arfima._embedding_spectrum(tuple(d_s), tuple(np.ravel(omega)), n)
    return np.fft.irfft(spectrum, 2 * n, axis=0)


@pytest.mark.parametrize("d_l, d_m, h", [
    (0.1, 0.3, 0), (0.1, 0.3, 5), (0.1, 0.3, -5), (0.1, 0.3, 50), (0.3, 0.1, -50),
    (0.0, 0.4, 3), (0.0, 0.4, -3), (0.4, 0.0, 0), (-0.3, 0.2, 7), (-0.3, 0.2, -7),
    (-0.3, -0.3, 0), (0.45, 0.45, 10), (0.45, -0.2, -2),
])
def test_embedding_cross_covariance_matches_ma_sums(d_l, d_m, h):
    # 200,000 MA weights plus the integral of their asymptotic tail; at
    # h = 50 the tail's first-order form leaves ~2e-7 relative
    n = 64
    embedded = embedded_sequence((d_l, d_m), [[1.0, 0.7], [0.7, 1.0]], n)[h % (2 * n), 0, 1]
    oracle = ma_cross_covariance(d_l, d_m, 0.7, h, 200_000)
    assert embedded == pytest.approx(oracle, rel=2e-6, abs=1e-14)
    if h >= 0:
        assert embedded == pytest.approx(gamma_closed_form(d_l, d_m, 0.7, h), rel=1e-12, abs=1e-15)


def per_pair_spectrum(d_s, omega, n):
    """The embedding spectrum built pair by pair: each gamma_lm from its own
    scalar gamma(0) and cumulative product, wrapped into the circulant."""
    p = len(d_s)
    omega = np.reshape(omega, (p, p))
    lags = np.arange(n, dtype=np.float64)
    gamma = np.empty((p, p, n + 1))
    for ell, d_l in enumerate(d_s):
        for m, d_m in enumerate(d_s):
            gamma0 = omega[ell, m] * math.gamma(1.0 - d_l - d_m)
            gamma0 /= math.gamma(1.0 - d_l) * math.gamma(1.0 - d_m)
            gamma[ell, m] = gamma0 * np.concatenate(
                ([1.0], np.cumprod((lags + d_l) / (lags + 1.0 - d_m))))
    circulant = np.empty((p, p, 2 * n))
    for ell in range(p):
        for m in range(p):
            circulant[ell, m, :n] = gamma[ell, m, :n]
            circulant[ell, m, n] = 0.5 * (gamma[ell, m, n] + gamma[m, ell, n])
            circulant[ell, m, n + 1 :] = gamma[m, ell, n - 1 : 0 : -1]
    return np.moveaxis(np.fft.rfft(circulant, axis=-1), -1, 0)


@pytest.mark.parametrize("p, n", [(1, 1), (1, 64), (2, 2), (3, 37), (6, 512)])
def test_embedding_spectrum_is_the_per_pair_recursion_bit_for_bit(p, n):
    """Over stationary exponents of both signs, zero among them or all zero."""
    rng = np.random.default_rng(p * 1000 + n)
    with_zero = rng.uniform(-0.45, 0.45, p)
    with_zero[0] = 0.0
    for d_s in (rng.uniform(-0.45, 0.45, p), with_zero, np.zeros(p), -rng.uniform(0, 0.45, p)):
        omega = omega_from_rho(0.3 / p, p) * rng.uniform(0.5, 2.0)
        got = arfima._embedding_spectrum(tuple(d_s.tolist()), tuple(omega.ravel()), n)
        assert got.tobytes() == per_pair_spectrum(d_s.tolist(), omega, n).tobytes()


def test_spec_is_frozen_and_keeps_its_memory_split():
    d = np.array([0.25, 1.375, -0.2])
    spec = ArfimaSpec(d=d, omega=np.eye(3), n_samples=64)
    d[0] = 0.4  # the spec holds its own read-only copy
    assert spec.d.tolist() == [0.25, 1.375, -0.2] and not spec.d.flags.writeable
    assert spec._stationary == (0.25, 0.375, -0.2) and spec._orders == (0, 1, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.d = d


def test_draws_match_closed_form_lag_covariances():
    """Time-averaged lag covariances of many short draws against gamma_lm(h):
    each draw's average of x_l(t+h) x_m(t) is unbiased for it."""
    d, omega, n, reps = (0.1, 0.3), omega_from_rho(0.4), 64, 4000
    lags = (0, 1, 5, -5, 20)
    exact = embedded_sequence(d, omega, n)
    sums = np.zeros((reps, len(lags), 2, 2))
    for r, seed in enumerate(np.random.SeedSequence(64).spawn(reps)):
        x = simulate_arfima(ArfimaSpec(d=d, omega=omega, n_samples=n, seed=seed))
        for i, h in enumerate(lags):
            a, b = (x[h:], x[: n - h]) if h >= 0 else (x[: n + h], x[-h:])
            sums[r, i] = a.T @ b / a.shape[0]
    se = sums.std(axis=0) / math.sqrt(reps)
    for i, h in enumerate(lags):
        assert np.all(np.abs(sums[:, i].mean(axis=0) - exact[h % (2 * n)]) < 4 * se[i]), h


def test_variance_is_exact_near_the_stationarity_edge():
    """At d = 0.45, N = 512, E[x_t^2] = Gamma(1 - 2d) / Gamma(1 - d)^2 = 3.642;
    the MA(inf) sum truncated at 10 N lags keeps only 69.8% of it."""
    exact = math.gamma(0.1) / math.gamma(0.55) ** 2
    reps = 2000
    second = np.array([
        float(np.mean(simulate_arfima(ArfimaSpec(d=[0.45], omega=np.eye(1), n_samples=512,
                                                 seed=seed)) ** 2))
        for seed in np.random.SeedSequence(45).spawn(reps)
    ])
    assert abs(second.mean() - exact) < 4 * second.std() / math.sqrt(reps)
    # the check tells the two simulators apart: the former one reads ~70%
    truncated = np.array([
        float(np.mean(ma_simulate(ArfimaSpec(d=[0.45], omega=np.eye(1), n_samples=512,
                                             seed=seed)) ** 2))
        for seed in np.random.SeedSequence(45).spawn(reps)[:300]
    ])
    assert truncated.mean() < 0.75 * exact


def test_factor_cache_is_read_only_per_key():
    spec = ArfimaSpec(d=[0.25, 1.375], omega=omega_from_rho(0.3), n_samples=300, seed=5)
    first = simulate_arfima(spec)
    arfima._embedding_factor.cache_clear()
    factor = embedding_factor(spec)
    assert factor.shape == (2, 2, 301) and factor.dtype == np.complex128
    assert not factor.flags.writeable
    with pytest.raises(ValueError):
        factor[0, 0, 0] = 0.0
    # one array per key: another seed, or d with the same stationary
    # exponents, reuses it; another N does not
    same_key = ArfimaSpec(d=[1.25, 0.375], omega=spec.omega, n_samples=300, seed=9)
    assert embedding_factor(same_key) is factor
    other_n = ArfimaSpec(d=[0.25, 0.375], omega=spec.omega, n_samples=301)
    assert embedding_factor(other_n) is not factor
    assert arfima._embedding_factor.cache_info().hits == 1
    assert simulate_arfima(spec).tobytes() == first.tobytes()
    # lower triangular, and real at frequencies 0 and N, where irfft reads
    # only real parts
    assert np.all(factor[0, 1] == 0.0)
    assert np.all(factor[:, :, [0, -1]].imag == 0.0)


def test_simulation_matches_dense_mix():
    """The in-place per-frequency mix equals the dense product factor @ E, and
    the factor reproduces the embedding spectrum (p = 3, odd N, one
    integrated channel)."""
    omega = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.5], [-0.2, 0.5, 1.5]])
    spec = ArfimaSpec(d=[0.3, -0.2, 1.25], omega=omega, n_samples=37, seed=4)
    factor = embedding_factor(spec)
    spectrum = arfima._embedding_spectrum((0.3, -0.2, 0.25), tuple(omega.ravel()), 37)
    assert_allclose(np.einsum("lmf,kmf->flk", factor, factor.conj()), spectrum,
                    rtol=0, atol=1e-12 * np.abs(spectrum).max())
    # the draw's white-noise spectrum: 2N + 2 normals per channel, paired
    # into N + 1 complex bins, real at frequencies 0 and N
    normals = np.random.default_rng(4).standard_normal((3, 76))
    bins = math.sqrt(37) * (normals[:, 0::2] + 1j * normals[:, 1::2])
    bins[:, [0, 37]] = math.sqrt(74) * normals[:, [0, 74]]
    mixed = np.einsum("lmf,mf->lf", factor, bins)
    expected = np.fft.irfft(mixed, 74, axis=-1)[:, :37].T
    expected[:, 2] = np.cumsum(expected[:, 2])
    assert_allclose(simulate_arfima(spec), expected, rtol=0, atol=1e-12)


def test_white_noise_bins_are_scaled_as_an_rfft():
    """With d = 0 and omega = I the factor is the identity, so a draw is the
    first N of 2N white-noise samples: their covariance is I.  Scaling bin 0
    or bin N by sqrt(N) rather than sqrt(2N) would move every entry within a
    channel by 1/(4N): about 6 standard errors on the diagonal, 9 off it."""
    n, reps = 4, 20_000
    draws = np.array([
        simulate_arfima(ArfimaSpec(d=[0.0, 0.0], omega=np.eye(2), n_samples=n, seed=seed))
        .ravel() for seed in range(reps)
    ])
    products = draws[:, :, None] * draws[:, None, :]
    se = products.std(axis=0) / math.sqrt(reps)
    assert np.all(np.abs(products.mean(axis=0) - np.eye(2 * n)) < 4 * se)


def test_non_embeddable_model_raises_covariance_error():
    spec = ArfimaSpec(d=[0.0, 0.49], omega=omega_from_rho(0.99), n_samples=512)
    message = r"d=\[0\.0, 0\.49\].*N=512.*smallest eigenvalue -0\.29"
    with pytest.raises(CovarianceError, match=message):
        simulate_arfima(spec)
    with pytest.raises(CovarianceError):
        embedding_factor(spec)


def test_removed_simulator_names():
    for name in ("frac_diff_coeffs", "next_fast_len", "_transfer", "TRANSFER_CACHE_SIZE"):
        assert not hasattr(arfima, name)
    assert not hasattr(wavewhittle, "frac_diff_coeffs")


def test_white_noise_sample_covariance():
    spec = ArfimaSpec(d=[0.0, 0.0], omega=np.eye(2), n_samples=4096, seed=3)
    x = simulate_arfima(spec)
    cov = x.T @ x / x.shape[0]
    assert_allclose(cov, np.eye(2), atol=3 / math.sqrt(4096))


def test_uncorrelated_channels_have_null_cross_scalogram():
    # rho = 0: cross wavelet covariance compatible with zero at every scale
    wspec = WaveletSpec(vanishing_moments=4)
    reps = 120
    seeds = np.random.SeedSequence(41).spawn(reps)
    per_scale = None
    for seed in seeds:
        spec = ArfimaSpec(d=[0.2, 0.2], omega=np.eye(2), n_samples=512, seed=seed)
        pyr = dwt_pyramid(simulate_arfima(spec), wspec, 5)
        vals = [float(np.mean(pyr.level(j)[:, 0] * pyr.level(j)[:, 1])) for j in range(1, 6)]
        per_scale = [[] for _ in vals] if per_scale is None else per_scale
        for store, v in zip(per_scale, vals):
            store.append(v)
    for store in per_scale:
        arr = np.array(store)
        assert abs(arr.mean()) < 3 * arr.std() / math.sqrt(reps)


def test_univariate_variance_matches_quadrature_oracle():
    # E[X^2] for d = 0.2 equals (1/2pi) int |2 sin(lam/2)|^{-2d} dlam
    from scipy.integrate import quad

    oracle = 2 * quad(lambda lam: (2 * np.sin(lam / 2.0)) ** (-0.4), 0, math.pi)[0] / (2 * math.pi)
    assert oracle == pytest.approx(math.gamma(0.6) / math.gamma(0.8) ** 2, abs=1e-6)
    reps = 300
    seeds = np.random.SeedSequence(99).spawn(reps)
    second_moments = []
    for seed in seeds:
        spec = ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=512, seed=seed)
        second_moments.append(float(np.mean(simulate_arfima(spec) ** 2)))
    values = np.array(second_moments)
    tol = 3 * values.std() / math.sqrt(reps)
    assert abs(values.mean() - oracle) < tol


def test_nonstationary_is_integrated_stationary():
    base = ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=200, seed=5)
    integrated = ArfimaSpec(d=[1.2], omega=np.eye(1), n_samples=200, seed=5)
    x = simulate_arfima(base)[:, 0]
    y = simulate_arfima(integrated)[:, 0]
    assert_allclose(y, np.cumsum(x), atol=1e-12)


def test_channel_scaling_covariance():
    omega = np.array([[1.0, 0.3], [0.3, 1.0]])
    c = 2.5
    scale = np.diag([c, 1.0])
    scaled = scale @ omega @ scale
    a = simulate_arfima(ArfimaSpec(d=[0.2, 0.2], omega=omega, n_samples=128, seed=8))
    b = simulate_arfima(ArfimaSpec(d=[0.2, 0.2], omega=scaled, n_samples=128, seed=8))
    assert_allclose(b[:, 0], c * a[:, 0], rtol=1e-12)
    assert_allclose(b[:, 1], a[:, 1], atol=1e-12)


def test_simulation_validation_errors():
    with pytest.raises(CovarianceError):
        ArfimaSpec(d=[0.2, 0.2], omega=np.array([[1.0, 1.2], [1.2, 1.0]]), n_samples=64)
    with pytest.raises(VanishingMomentError):
        ArfimaSpec(d=[4.2], omega=np.eye(1), n_samples=64, moment_cap=4)
    with pytest.raises(ValueError):
        ArfimaSpec(d=[0.5], omega=np.eye(1), n_samples=64)
    with pytest.raises(ConfigError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, seed=-1)
    # each draw is exact: no burn-in, no AR contamination, no truncation
    with pytest.raises(TypeError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, burn_in=5)
    with pytest.raises(TypeError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, ar=np.array([0.5]))
    with pytest.raises(TypeError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, truncation=640)


# ---------------------------------------------------------------------------
# model wavelet covariance


def test_model_cov_equal_memory_closed_form():
    wspec = WaveletSpec(vanishing_moments=4)
    omega = np.array([[1.0, 0.4], [0.4, 1.0]])
    d = np.array([0.3, 0.3])
    expected = 0.4 * 2.0 ** (3 * 0.6) * spectral_k(0.6, wspec) / (2 * math.pi)
    assert model_wavelet_cov(3, 0, 1, d, omega, wspec) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(TypeError):  # the first-order form is the only one
        model_wavelet_cov(3, 0, 1, d, omega, wspec, order="first")


def test_model_cov_phase_degeneracy_is_null():
    wspec = WaveletSpec(vanishing_moments=4)
    omega = np.array([[1.0, 0.4], [0.4, 1.0]])
    d = np.array([0.2, 1.2])  # difference exactly 1 -> cos(pi/2) = 0
    for j in (1, 3, 5):
        assert abs(model_wavelet_cov(j, 0, 1, d, omega, wspec)) < 1e-12


@pytest.mark.slow
def test_model_cov_against_monte_carlo():
    """Scale-3 cross covariance: simulation mean within MC error + bias allowance."""
    wspec = WaveletSpec(vanishing_moments=4)
    omega = np.array([[1.0, 0.4], [0.4, 1.0]])
    d = np.array([0.2, 0.4])
    reps = 600
    seeds = np.random.SeedSequence(7117).spawn(reps)
    values = []
    for seed in seeds:
        spec = ArfimaSpec(d=d, omega=omega, n_samples=1024, seed=seed)
        pyr = dwt_pyramid(simulate_arfima(spec), wspec, 3)
        w = pyr.level(3)
        values.append(float(np.mean(w[:, 0] * w[:, 1])))
    values = np.array(values)
    model = model_wavelet_cov(3, 0, 1, d, omega, wspec)
    mc_err = 3 * values.std() / math.sqrt(reps)
    bias_allowance = 0.08 * abs(model)  # second-order terms at scale 3
    assert abs(values.mean() - model) < mc_err + bias_allowance


def test_correlation_from_cov():
    omega = np.array([[4.0, 1.0], [1.0, 1.0]])
    corr = correlation_from_cov(omega)
    assert_allclose(np.diag(corr), [1.0, 1.0])
    assert corr[0, 1] == pytest.approx(0.5)
