"""Fractional differencing, ARFIMA simulation, and model covariance tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.special import gammaln, gammasgn

from wavewhittle import arfima
from wavewhittle.arfima import (
    ArfimaSpec,
    correlation_from_cov,
    frac_diff_coeffs,
    model_wavelet_cov,
    next_fast_len,
    simulate_arfima,
    split_memory,
    validate_long_run_cov,
)
from wavewhittle.errors import ConfigError, CovarianceError, VanishingMomentError
from wavewhittle.estimator import scalogram
from wavewhittle.wavelets import WaveletSpec, dwt_pyramid, spectral_k


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


def test_next_fast_len_matches_scipy():
    # the simulator's FFT length, next_fast_len(truncation + N - 1) with the
    # default truncation 10 N, matches scipy's real-FFT choice
    ns = list(range(1, 20001)) + [11 * 65536 - 1, 11 * 512 - 1]
    assert [next_fast_len(n) for n in ns] == [scipy_next_fast_len(n, True) for n in ns]


def test_simulation_deterministic():
    spec = ArfimaSpec(d=[0.2, 0.4], omega=np.eye(2), n_samples=256, seed=11)
    assert np.array_equal(simulate_arfima(spec), simulate_arfima(spec))
    other = ArfimaSpec(d=[0.2, 0.4], omega=np.eye(2), n_samples=256, seed=12)
    assert not np.array_equal(simulate_arfima(spec), simulate_arfima(other))


def assert_matches_direct_ma_sum(spec):
    # sample t is sum_k psi_k eps_{t + trunc - 1 - k} over the seed's innovations
    trunc, n = spec.truncation, spec.n_samples
    chol = np.linalg.cholesky(spec.omega)
    innov = np.random.default_rng(spec.seed).standard_normal((trunc + n - 1, spec.n_channels))
    innov = innov @ chol.T
    expected = np.column_stack([
        np.convolve(innov[:, ell], frac_diff_coeffs(d, trunc), mode="valid")
        for ell, d in enumerate(spec.d)
    ])
    assert_allclose(simulate_arfima(spec), expected, rtol=0, atol=1e-12)


def test_simulation_matches_direct_ma_sum():
    omega = np.array([[1.0, 0.3], [0.3, 2.0]])
    assert_matches_direct_ma_sum(
        ArfimaSpec(d=[-0.3, 0.4], omega=omega, n_samples=37, truncation=61, seed=4)
    )


@pytest.mark.parametrize("trunc, n", [(1000, 25), (40, 40)])
def test_simulation_valid_outputs_without_slack(trunc, n):
    # the circular convolution wraps only discarded outputs, also with no
    # slack: trunc + n - 1 = 1024 is 5-smooth, so the FFT length is exactly
    # the number of innovations; truncation == n is the shortest filter allowed
    assert next_fast_len(1000 + 25 - 1) == 1000 + 25 - 1
    assert_matches_direct_ma_sum(
        ArfimaSpec(d=[0.45, -0.2], omega=np.eye(2), n_samples=n, truncation=trunc, seed=9)
    )


def test_transfer_cache_is_read_only_and_exact():
    spec = ArfimaSpec(d=[0.2, 1.3], omega=np.eye(2), n_samples=300, seed=5)
    first = simulate_arfima(spec)
    assert simulate_arfima(spec).tobytes() == first.tobytes()
    arfima._transfer.cache_clear()
    assert simulate_arfima(spec).tobytes() == first.tobytes()
    nfft = next_fast_len(spec.truncation + 300 - 1)
    cached = arfima._transfer(0.2, spec.truncation, nfft)
    assert arfima._transfer.cache_info().hits >= 1
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 0.0


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
    tol = 3 * values.std() / math.sqrt(reps) + 2e-3  # MC noise + truncation slack
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
    with pytest.raises(ValueError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, truncation=10)
    with pytest.raises(ConfigError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, seed=-1)
    # each output is a complete truncated MA sum: no burn-in, no AR contamination
    with pytest.raises(TypeError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, burn_in=5)
    with pytest.raises(TypeError):
        ArfimaSpec(d=[0.2], omega=np.eye(1), n_samples=64, ar=np.array([0.5]))


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
