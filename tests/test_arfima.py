"""Fractional differencing, ARFIMA simulation, and model covariance tests."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, gammasgn

import wavewhittle
from wavewhittle import arfima
from wavewhittle.arfima import (
    ArfimaSpec,
    embedding_factor,
    model_wavelet_cov,
    simulate_arfima,
    split_memory,
    validate_long_run_cov,
)
from wavewhittle.errors import ConfigError, CovarianceError, VanishingMomentError
from wavewhittle.estimator import EstimationConfig, correlation_from_cov
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


def unpack_lower(packed, p):
    """The (p, p, N+1) array of a packed lower triangle: entry (l, m), m <= l,
    from row l(l+1)/2 + m, and zeros above the diagonal."""
    dense = np.zeros((p, p, packed.shape[1]), dtype=packed.dtype)
    dense[np.tril_indices(p)] = packed
    return dense


def embedded_sequence(d_s, omega, n):
    """The (2N, p, p) circulant C(k) of the embedding, back from its packed
    spectrum, whose upper triangle is the conjugate of its lower one:
    C(k)[l, m] is gamma_lm(k) for k < N and gamma_lm(k - 2N) for k > N."""
    spectrum = unpack_lower(arfima._packed_spectrum(tuple(d_s), tuple(np.ravel(omega)), n),
                            len(d_s))
    rows, cols = np.triu_indices(len(d_s), 1)
    spectrum[rows, cols] = spectrum[cols, rows].conj()
    return np.fft.irfft(spectrum, 2 * n, axis=-1).transpose(2, 0, 1)


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


def random_models(p, n):
    """Stationary exponents of both signs, zero among them or all zero, each
    with a positive definite omega."""
    rng = np.random.default_rng(p * 1000 + n)
    with_zero = rng.uniform(-0.45, 0.45, p)
    with_zero[0] = 0.0
    for d_s in (rng.uniform(-0.45, 0.45, p), with_zero, np.zeros(p), -rng.uniform(0, 0.45, p)):
        yield d_s.tolist(), omega_from_rho(0.3 / p, p) * rng.uniform(0.5, 2.0)


def packed_rows(dense):
    """The (p(p+1)/2, N+1) packed rows of the lower triangle of an
    (N+1, p, p) array, C-contiguous."""
    rows, cols = np.tril_indices(dense.shape[-1])
    return np.ascontiguousarray(dense[:, rows, cols].T)


@pytest.mark.parametrize("p, n", [(1, 1), (1, 64), (2, 2), (3, 37), (6, 512)])
def test_embedding_spectrum_is_the_per_pair_recursion_bit_for_bit(p, n):
    """The packed spectrum holds the lower rows of the per-pair one."""
    for d_s, omega in random_models(p, n):
        got = arfima._packed_spectrum(tuple(d_s), tuple(omega.ravel()), n)
        assert got.flags.c_contiguous and got.shape == (p * (p + 1) // 2, n + 1)
        assert got.tobytes() == packed_rows(per_pair_spectrum(d_s, omega, n)).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 6])
@pytest.mark.parametrize("n", [1, 2, 37, 512])
def test_packed_factor_is_the_batched_cholesky_bit_for_bit(p, n):
    """The factor, built in place block by block, holds the lower rows of
    one batched Cholesky factorization of the whole per-pair spectrum."""
    for d_s, omega in random_models(p, n):
        got = arfima._embedding_factor.__wrapped__(tuple(d_s), tuple(omega.ravel()), n)
        expected = packed_rows(np.linalg.cholesky(per_pair_spectrum(d_s, omega, n)))
        assert got.tobytes() == expected.tobytes()


def test_packed_factor_over_several_blocks_is_the_batched_cholesky_bit_for_bit():
    """At p = 6, N = 4096, the 4097 frequencies span three Cholesky blocks."""
    p, n = 6, 4096
    per_block = arfima._BLOCK_BYTES // (16 * p * p)
    assert 2 * per_block < n + 1 <= 3 * per_block
    d_s, omega = next(random_models(p, n))
    got = arfima._embedding_factor.__wrapped__(tuple(d_s), tuple(omega.ravel()), n)
    expected = packed_rows(np.linalg.cholesky(per_pair_spectrum(d_s, omega, n)))
    assert got.tobytes() == expected.tobytes()


def test_factor_build_holds_little_beyond_the_factor():
    """A p = 20, N = 4096 build traces at most the packed factor plus 2 MiB:
    its circulant row, then one Cholesky block and its factor.  A build over
    a (p, p, 2N) circulant and an (N+1, p, p) spectrum traces ~52 MB."""
    arfima._embedding_factor.__wrapped__((0.1,), (1.0,), 8)  # numpy's lazy set-up
    p, n = 20, 4096
    d_s = tuple(np.linspace(-0.4, 0.45, p).tolist())
    omega = tuple(omega_from_rho(0.02, p).ravel().tolist())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        factor = arfima._embedding_factor.__wrapped__(d_s, omega, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor.nbytes == arfima._factor_bytes(p, n) == 210 * 4097 * 16
    assert peak - before <= factor.nbytes + 2 * 2**20


def test_spec_is_frozen_and_keeps_its_memory_split():
    d = np.array([0.25, 1.375, -0.2])
    spec = ArfimaSpec(d=d, omega=np.eye(3), n_samples=64)
    d[0] = 0.4  # the spec holds its own read-only copy
    assert spec.d.tolist() == [0.25, 1.375, -0.2] and not spec.d.flags.writeable
    assert spec._stationary == (0.25, 0.375, -0.2) and spec._orders == (0, 1, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.d = d
    # an integral float or a numpy integer becomes an int; a SeedSequence stays
    spec = ArfimaSpec(d=0.2, omega=np.eye(1), n_samples=64.0, seed=np.int64(3))
    assert (type(spec.n_samples), type(spec.seed), spec.d.shape) == (int, int, (1,))
    seed = np.random.SeedSequence(3)
    assert ArfimaSpec(d=0.2, omega=np.eye(1), n_samples=64, seed=seed).seed is seed
    cap = ArfimaSpec(d=0.2, omega=np.eye(1), n_samples=64, moment_cap=4.0).moment_cap
    assert (type(cap), cap) == (int, 4)


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
    # packed: rows (0, 0), (1, 0), (1, 1), and no upper triangle
    assert factor.shape == (3, 301) and factor.dtype == np.complex128
    assert factor.flags.c_contiguous and not factor.flags.writeable
    with pytest.raises(ValueError):
        factor[0, 0] = 0.0
    # one array per key: another seed, or d with the same stationary
    # exponents, reuses it; another N does not
    same_key = ArfimaSpec(d=[1.25, 0.375], omega=spec.omega, n_samples=300, seed=9)
    assert embedding_factor(same_key) is factor
    other_n = ArfimaSpec(d=[0.25, 0.375], omega=spec.omega, n_samples=301)
    assert embedding_factor(other_n) is not factor
    assert arfima._embedding_factor.cache_info().hits == 1
    assert simulate_arfima(spec).tobytes() == first.tobytes()
    # real at frequencies 0 and N, where irfft reads only real parts
    assert np.all(factor[:, [0, -1]].imag == 0.0)


def test_simulation_matches_dense_mix():
    """The in-place per-frequency mix of the packed rows equals the dense
    product factor @ E, and the factor reproduces the embedding spectrum
    (p = 3, odd N, one integrated channel)."""
    omega = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.5], [-0.2, 0.5, 1.5]])
    spec = ArfimaSpec(d=[0.3, -0.2, 1.25], omega=omega, n_samples=37, seed=4)
    factor = unpack_lower(embedding_factor(spec), 3)
    spectrum = per_pair_spectrum((0.3, -0.2, 0.25), omega, 37)
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


@pytest.mark.parametrize("n", [1, 2, 37, 512, 65536])
def test_direct_irfft_is_numpy_irfft(n):
    """A draw calls the gufunc that np.fft.irfft wraps, with its 1/(2N)
    normalization, into a preallocated buffer: the 2N samples are
    np.fft.irfft's, byte for byte, on any numpy the package accepts."""
    rng = np.random.default_rng(n)
    bins = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    out = np.empty(2 * n)
    np.fft._pocketfft_umath.irfft(bins, 1.0 / (2 * n), out)
    assert out.tobytes() == np.fft.irfft(bins, 2 * n).tobytes()


def test_warm_draw_allocates_only_its_panel():
    """With its factor and workspace built, an N = 65536, p = 2 draw traces
    at most the panel plus 1 MiB: its bins and its irfft and term buffer come
    from the workspace."""
    spec = ArfimaSpec(d=[0.1, 1.3], omega=omega_from_rho(0.4), n_samples=65536, seed=8)
    first = simulate_arfima(spec)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        panel = simulate_arfima(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.tobytes() == first.tobytes()
    assert peak - before <= panel.nbytes + 2**20


def test_draws_in_threads_give_the_single_thread_bytes():
    """Threads that draw one key at once share one workspace: the draw that
    finds it held takes buffers of its own.  Four threads on a short switch
    interval, and one draw while the workspace is held, give the bytes of
    draws made one at a time."""
    omega = omega_from_rho(0.5, 3)
    specs = [ArfimaSpec(d=[0.2, -0.1, 1.4], omega=omega, n_samples=1024, seed=seed)
             for seed in range(8)]
    expected = [simulate_arfima(spec).tobytes() for spec in specs]
    lock = arfima._workspace(3, 1024)[0]
    with lock:
        assert simulate_arfima(specs[0]).tobytes() == expected[0]
    results = [[] for _ in range(4)]

    def draw(out):
        for _ in range(10):
            out.extend(simulate_arfima(spec).tobytes() for spec in specs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == expected * 10 for out in results)
    assert not lock.locked()


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


@pytest.mark.parametrize("cls, kwargs, message", [
    (ArfimaSpec, {"n_samples": 300.5}, "n_samples must be an integer, got 300.5"),
    (ArfimaSpec, {"n_samples": True}, "n_samples must be an integer, got True"),
    (ArfimaSpec, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    (ArfimaSpec, {"seed": True}, "seed must be an integer, got True"),
    (ArfimaSpec, {"d": [[0.2, 0.2]], "omega": np.eye(2)},
     r"d must be a number or a list of numbers, got \[\[0.2, 0.2\]\]"),
    (EstimationConfig, {"j0": 1.5}, "j0 must be an integer, got 1.5"),
    (EstimationConfig, {"j0": True}, "j0 must be an integer, got True"),
    (EstimationConfig, {"j1": 5.5}, "j1 must be an integer, got 5.5"),
    (ArfimaSpec, {"moment_cap": 2.5}, "moment_cap must be an integer, got 2.5"),
    (ArfimaSpec, {"moment_cap": True}, "moment_cap must be an integer, got True"),
    (ArfimaSpec, {"d": "abc"},
     "d is not an array of numbers: could not convert string to float: 'abc'"),
    (ArfimaSpec, {"d": [0.2, 0.2], "omega": [[1.0, 0.4], [0.4]]},
     "omega is not an array of numbers: .*inhomogeneous"),
])
def test_configurations_are_checked_when_built(cls, kwargs, message):
    """A fraction, a boolean, a 2-D d or numbers numpy cannot read is a
    ConfigError when the object is built, not a raw error at the draw or a
    silent truncation."""
    base = {"d": [0.2], "omega": np.eye(1), "n_samples": 64} if cls is ArfimaSpec else {}
    with pytest.raises(ConfigError, match=message):
        cls(**{**base, **kwargs})


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
    # a channel whose variance is not positive has no correlations
    for variance in (0.0, -1.0, np.nan):
        corr = correlation_from_cov(np.array([[4.0, 1.0], [1.0, variance]]))
        assert corr[0, 0] == 1.0 and np.isnan(corr[1]).all() and np.isnan(corr[:, 1]).all()
