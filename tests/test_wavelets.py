"""Filter construction, pyramid, and spectral-integral tests.

Oracles are kept independent of the library code paths: filters are checked
against closed forms and moment conditions, the pyramid against plain-loop
convolution and decimation, |psi_hat|^2 against a rendered wavelet, and K
against a brute-force trapezoid integral at higher resolution and longer
tail, and against the direct per-node band quadrature that the moment
expansion replaces.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import brute_force_pyramid, copying_pyramid, reference_pyramid

from wavewhittle import wavelets
from wavewhittle.errors import ConfigError, DomainError, InsufficientDataError, UnsupportedOrderError
from wavewhittle.wavelets import (
    DAUBECHIES_ALPHA,
    MAX_ORDER,
    WaveletSpec,
    coefficient_counts,
    daubechies_filters,
    dwt_pyramid,
    max_feasible_level,
    psi_hat_sq,
    qmf,
    spectral_k,
)
from wavewhittle.estimator import scalogram

from helpers import direct_spectral_k, factor_psi_hat_sq

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# filters


def test_haar_exact():
    h, g = daubechies_filters(1)
    assert_allclose(h, [1 / SQRT2, 1 / SQRT2], rtol=0, atol=1e-15)
    assert_allclose(g, [1 / SQRT2, -1 / SQRT2], rtol=0, atol=1e-15)


def test_db2_closed_form():
    # classical extremal-phase coefficients ((1+sqrt3), (3+sqrt3), ...)/(4 sqrt2)
    s3 = math.sqrt(3.0)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * SQRT2)
    h, _ = daubechies_filters(2)
    assert_allclose(h, expected, atol=1e-12)


@pytest.mark.parametrize("m", range(1, 11))
def test_filter_sums_and_orthonormality(m):
    h, g = daubechies_filters(m)
    assert h.size == 2 * m and g.size == 2 * m
    assert_allclose(h.sum(), SQRT2, atol=1e-12)
    assert_allclose(np.dot(h, h), 1.0, atol=5e-12)
    # even-shift orthogonality sum_k h_k h_{k+2i} = 0
    for shift in range(1, m):
        assert abs(np.dot(h[2 * shift :], h[: 2 * m - 2 * shift])) < 1e-10
    assert_allclose(g, qmf(h), atol=0)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_high_pass_vanishing_moments(m):
    # sum_k k^q g_k = 0 for q < m is the discrete vanishing-moment condition
    _, g = daubechies_filters(m)
    k = np.arange(2 * m, dtype=np.float64)
    for q in range(m):
        moment = np.sum(k**q * g)
        assert abs(moment) < 1e-7 * max(1.0, np.sum(k**q))


@pytest.mark.parametrize("m", [2, 4, 8])
def test_halfband_identity(m):
    # |m0(w)|^2 + |m0(w + pi)|^2 = 1 characterizes orthonormality spectrally
    h, _ = daubechies_filters(m)
    w = np.linspace(0, math.pi, 257)
    n = np.arange(2 * m)
    m0 = np.exp(-1j * np.outer(w, n)) @ h / SQRT2
    m0_pi = np.exp(-1j * np.outer(w + math.pi, n)) @ h / SQRT2
    assert_allclose(np.abs(m0) ** 2 + np.abs(m0_pi) ** 2, 1.0, atol=1e-10)


@pytest.mark.parametrize("bad", [0, -1, 11, 2.5])
def test_unsupported_order(bad):
    with pytest.raises(UnsupportedOrderError):
        daubechies_filters(bad)


def test_alpha_table_increasing():
    values = [DAUBECHIES_ALPHA[m] for m in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert_allclose(DAUBECHIES_ALPHA[4], 1.9125, atol=1e-4)


# ---------------------------------------------------------------------------
# pyramid


def test_count_law_finest_scale_matches_formula():
    # 512 samples, M=4 (support 7): floor(506/2) = 253 at the finest scale
    spec = WaveletSpec(vanishing_moments=4)
    counts = coefficient_counts(512, spec, 6)
    assert counts[0] == 253
    assert list(counts) == [253, 123, 58, 26, 10, 2]


def test_count_law_recursion():
    # every level keeps floor((S - T + 1)/2) of its S-long input
    spec = WaveletSpec(vanishing_moments=3)
    for n in (31, 64, 100, 515):
        counts = coefficient_counts(n, spec, 8)
        s = n
        for c in counts:
            expected = max((s - spec.support_length + 1) // 2, 0) if s >= spec.support_length - 1 else 0
            assert c == expected
            s = c


def test_counts_are_writable_copies_of_a_read_only_cache():
    spec = WaveletSpec(vanishing_moments=4)
    with pytest.raises(ValueError):
        wavelets._counts(512, spec.support_length)[0] = 0
    counts = coefficient_counts(512, spec, 6)
    pyramid = dwt_pyramid(np.random.default_rng(0).standard_normal(512), spec, 6)
    counts[0] = pyramid.counts[0] = 0
    assert list(coefficient_counts(512, spec, 6)) == [253, 123, 58, 26, 10, 2]
    assert max_feasible_level(512, spec) == 6


def test_counts_read_one_table_per_geometry():
    """Every depth is a prefix of one table, zero-padded past its last level."""
    spec = WaveletSpec(vanishing_moments=4)
    wavelets._counts.cache_clear()
    assert list(coefficient_counts(512, spec, 12)) == [253, 123, 58, 26, 10, 2] + [0] * 6
    assert list(coefficient_counts(512, spec, 3)) == [253, 123, 58]
    assert coefficient_counts(512, spec, 0).shape == (0,)
    assert coefficient_counts(512, spec, 12).dtype == np.int64
    assert wavelets._counts.cache_info().currsize == 1
    assert list(coefficient_counts(0, spec, 2)) == [0, 0]
    assert max_feasible_level(0, spec) == 0


def test_counts_beyond_int64_raise_a_config_error():
    spec = WaveletSpec(vanishing_moments=4)
    with pytest.raises(ConfigError, match="N=100000000000000000000 exceeds the int64 range"):
        max_feasible_level(10**20, spec)
    assert max_feasible_level(2**63 - 1, spec) == 60


def test_max_feasible_level_by_definition():
    # L is the deepest level that holds a coefficient; asking for L + 1 fails
    x = np.zeros((600, 1))
    for m in range(1, MAX_ORDER + 1):
        spec = WaveletSpec(vanishing_moments=m)
        for n in range(1, 601):
            level = max_feasible_level(n, spec)
            if level >= 1:
                assert dwt_pyramid(x[:n], spec, level).level(level).shape[0] >= 1
            with pytest.raises(InsufficientDataError) as exc:
                dwt_pyramid(x[:n], spec, level + 1)
            assert exc.value.largest_feasible == level


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [40, 64])
def test_pyramid_matches_brute_force(m, n):
    spec = WaveletSpec(vanishing_moments=m)
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((n, 2))
    j_max = max_feasible_level(n, spec)
    pyr = dwt_pyramid(x, spec, j_max)
    oracle = brute_force_pyramid(x, m, j_max)
    for level, ref in zip(pyr.details, oracle):
        assert level.shape == ref.shape
        assert_allclose(level, ref, atol=1e-10)


@pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(extra=st.integers(0, 600), p=st.sampled_from([1, 2, 20]), seed=st.integers(0, 2**32 - 1))
def test_pyramid_matches_reference_property(m, extra, p, seed):
    """The channel-major pyramid equals the sample-major tensordot one to
    1e-12 of each level's size, on C-ordered, Fortran-ordered and
    strided-slice panels and on 1-D input."""
    spec = WaveletSpec(vanishing_moments=m)
    n = 2 * m + extra
    j_max = max_feasible_level(n, spec)
    block = np.random.default_rng(seed).standard_normal((2 * n, 2 * p + 1))
    x = block[::2, 1::2].copy()
    panels = [(x, x), (np.asfortranarray(x), x), (block[::2, 1::2], x), (x[:, 0], x[:, :1])]
    for panel, same in panels:
        pyr = dwt_pyramid(panel, spec, j_max)
        assert list(pyr.counts) == [level.shape[0] for level in pyr.details]
        for level, ref in zip(pyr.details, reference_pyramid(same, spec, j_max), strict=True):
            assert level.shape == ref.shape
            assert_allclose(level, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("m", [1, 2, 4, 10])
@pytest.mark.parametrize("p", [1, 2, 3, 20])
@pytest.mark.parametrize("n", [64, 513, 4096])
def test_pyramid_and_scalogram_are_those_of_the_copying_loop(m, p, n):
    """The block layout changes no bit: every level's details, and the
    scalogram over every level, equal byte for byte those of the loop that
    copied each level's details and approximation out (tests/helpers.py).
    Each level is still (n_j, p) with each channel's coefficients
    contiguous."""
    spec = WaveletSpec(vanishing_moments=m)
    x = np.random.default_rng([m, p, n]).standard_normal((n, p))
    j_max = max_feasible_level(n, spec)
    pyr = dwt_pyramid(x, spec, j_max)
    ref = copying_pyramid(x, spec, j_max)
    for level, expected in zip(pyr.details, ref, strict=True):
        assert level.shape == expected.shape == (expected.shape[0], p)
        assert level.tobytes() == expected.tobytes()
        if level.shape[0] > 1:  # a length-1 axis has no meaningful stride
            assert level.strides[0] == 8
    matrices = np.array([w.T @ w for w in ref])
    assert scalogram(pyr, 1, j_max).matrices.tobytes() == matrices.tobytes()


def test_pyramid_linearity():
    spec = WaveletSpec(vanishing_moments=4)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 2))
    y = rng.standard_normal((300, 2))
    a, b = 1.7, -0.3
    p_mix = dwt_pyramid(a * x + b * y, spec)
    p_x = dwt_pyramid(x, spec)
    p_y = dwt_pyramid(y, spec)
    for mix, wx, wy in zip(p_mix.details, p_x.details, p_y.details):
        assert_allclose(mix, a * wx + b * wy, atol=1e-11)


def test_zero_and_constant_panels():
    spec = WaveletSpec(vanishing_moments=4)
    zeros = dwt_pyramid(np.zeros((200, 3)), spec)
    assert all(np.all(level == 0.0) for level in zeros.details)
    const = dwt_pyramid(np.full((200, 2), 7.25), spec)
    assert all(np.abs(level).max() < 1e-12 for level in const.details if level.size)


@pytest.mark.parametrize("m", [2, 4])
def test_polynomial_annihilation(m):
    # degree q <= M-1 trends vanish for every retained coefficient
    spec = WaveletSpec(vanishing_moments=m)
    t = np.arange(400, dtype=np.float64)
    for q in range(m):
        panel = ((t / 100.0) ** q)[:, None]
        pyr = dwt_pyramid(panel, spec)
        for level in pyr.details:
            if level.size:
                assert np.abs(level).max() < 1e-8


def test_insufficient_data_error_carries_feasible_level():
    spec = WaveletSpec(vanishing_moments=4)
    feasible = max_feasible_level(100, spec)
    with pytest.raises(InsufficientDataError) as err:
        dwt_pyramid(np.zeros((100, 1)), spec, feasible + 2)
    assert err.value.largest_feasible == feasible
    with pytest.raises(InsufficientDataError):
        dwt_pyramid(np.zeros((4, 1)), spec, 1)


def test_pyramid_rejects_non_finite():
    spec = WaveletSpec(vanishing_moments=2)
    bad = np.zeros((64, 1))
    bad[10] = np.nan
    with pytest.raises(ValueError):
        dwt_pyramid(bad, spec, 2)


def test_pyramid_rejects_a_panel_of_more_than_two_dimensions():
    with pytest.raises(ValueError, match=r"panel must be a 1-D series or an \(N, p\) matrix"):
        dwt_pyramid(np.zeros((64, 2, 2)), WaveletSpec(vanishing_moments=2), 2)


def test_pyramid_level_is_one_based_and_bounded():
    x = np.random.default_rng(4).standard_normal((128, 2))
    pyramid = dwt_pyramid(x, WaveletSpec(vanishing_moments=2), 3)
    assert pyramid.level(1) is pyramid.details[0] and pyramid.level(3) is pyramid.details[2]
    for j in (0, 4, -1):
        with pytest.raises(IndexError, match=f"scale {j} not in pyramid range 1..3"):
            pyramid.level(j)


def test_coefficients_window_locality():
    # coefficient k at scale j depends only on samples starting near 2^j k
    spec = WaveletSpec(vanishing_moments=3)
    n = 256
    base = dwt_pyramid(np.zeros((n, 1)), spec, 4)
    x = np.zeros((n, 1))
    pos = 128
    x[pos] = 1.0
    pyr = dwt_pyramid(x, spec, 4)
    support = spec.support_length
    for j in range(1, 5):
        hits = np.nonzero(np.abs(pyr.level(j)[:, 0]) > 1e-14)[0]
        assert hits.size
        window = (2**j - 1) * support + 1
        for k in hits:
            start = 2**j * k
            assert start <= pos <= start + window
    assert all(lvl.shape == ref.shape for lvl, ref in zip(pyr.details, base.details))


# ---------------------------------------------------------------------------
# |psi_hat|^2 and the spectral integrals


def render_wavelet(m, grid_per_unit=2**10, iterations=40):
    """Cascade-render psi on a fine grid, independently of the transfer product."""
    h, g = daubechies_filters(m)
    support = 2 * m - 1
    # iterate the two-scale relation phi(t) = sqrt2 sum h_k phi(2t - k)
    grid = np.arange(0, support + 1e-12, 1.0 / grid_per_unit)
    phi = np.where((grid >= 0) & (grid < 1), 1.0, 0.0)
    for _ in range(iterations):
        nxt = np.zeros_like(phi)
        for k in range(2 * m):
            shifted = 2.0 * grid - k
            idx = np.round(shifted * grid_per_unit).astype(int)
            ok = (idx >= 0) & (idx < grid.size)
            nxt[ok] += SQRT2 * h[k] * phi[idx[ok]]
        phi = nxt
    psi = np.zeros_like(phi)
    for k in range(2 * m):
        shifted = 2.0 * grid - k
        idx = np.round(shifted * grid_per_unit).astype(int)
        ok = (idx >= 0) & (idx < grid.size)
        psi[ok] += SQRT2 * g[k] * phi[idx[ok]]
    return grid, psi


def test_psi_hat_zero_frequency():
    spec = WaveletSpec(vanishing_moments=4)
    assert psi_hat_sq(0.0, spec) == 0.0


@pytest.mark.parametrize("m", range(1, 11))
def test_psi_hat_zero_frequency_is_exact_and_silent(m):
    # the closed-form cos^2 product is 0/0 at lam = 0; its guard must neither
    # warn nor leave a NaN
    spec = WaveletSpec(vanishing_moments=m)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert psi_hat_sq(0.0, spec) == 0.0
        values = psi_hat_sq(np.array([0.0, -0.0, 1.0]), spec)
    assert values[0] == 0.0 and values[1] == 0.0 and values[2] > 0.0


@pytest.mark.parametrize("m", range(1, 11))
def test_psi_hat_matches_the_factor_by_factor_product(m):
    # from 0 to the top of the K band cache, and around the zeros 4 pi n of
    # sin(lam/4), where the closed form's quotient is smallest
    spec = WaveletSpec(vanishing_moments=m)
    top = math.pi * 2.0 ** (wavelets.CASCADE_DEPTH - 4)
    zeros = 4.0 * math.pi * np.arange(1, int(top / (4.0 * math.pi)) + 1)
    offsets = np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6])
    lam = np.concatenate([np.linspace(0.0, top, 200_001), (zeros[:, None] * (1.0 + offsets)).ravel(),
                          np.nextafter(zeros, 0.0), np.nextafter(zeros, np.inf)])
    oracle = factor_psi_hat_sq(lam, m)
    assert np.max(np.abs(psi_hat_sq(lam, spec) - oracle)) <= 1e-13 * oracle.max()


@pytest.mark.parametrize("m", range(1, 11))
def test_band_cache_samples_psi_hat_sq(m):
    # the cache evaluates |psi_hat|^2 at panel midpoint + shared offset by
    # angle addition; it must agree with psi_hat_sq at the summed node
    lam, weights, psi = wavelets._band_quadrature(m)
    assert lam.shape == weights.shape == psi.shape == (66_464,)
    expected = psi_hat_sq(lam, WaveletSpec(vanishing_moments=m))
    assert np.max(np.abs(psi - expected)) <= 1e-14 * expected.max()


def test_psi_hat_parseval():
    spec = WaveletSpec(vanishing_moments=4)
    lam = np.linspace(0, 200.0, 400001)
    total = 2 * np.trapezoid(psi_hat_sq(lam, spec), lam) / (2 * math.pi)
    assert abs(total - 1.0) < 1e-4


def test_psi_hat_against_rendered_wavelet():
    spec = WaveletSpec(vanishing_moments=4)
    grid, psi = render_wavelet(4)
    assert abs(np.trapezoid(psi**2, grid) - 1.0) < 1e-6
    for lam in (2 * math.pi, math.pi, 4.0):
        transform = np.trapezoid(psi * np.exp(-1j * lam * grid), grid)
        assert_allclose(psi_hat_sq(lam, spec), abs(transform) ** 2, rtol=5e-6, atol=1e-9)


def test_psi_hat_cascade_depth_converged(monkeypatch):
    spec = WaveletSpec(vanishing_moments=4)
    lam = np.linspace(0.0, 100.0, 5001)
    shallow = psi_hat_sq(lam, spec)
    monkeypatch.setattr(wavelets, "CASCADE_DEPTH", 32)
    assert np.max(np.abs(shallow - psi_hat_sq(lam, spec))) < 1e-8


def test_psi_hat_decay():
    # (W2): the envelope |psi_hat|^2 (1+lam)^(2 alpha) stays bounded, i.e. its
    # running sup over dyadic blocks stops growing
    spec = WaveletSpec(vanishing_moments=4)
    sups = []
    for lo in (50, 200, 800, 3200):
        lam = np.linspace(lo, 4 * lo, 4001)
        sups.append((psi_hat_sq(lam, spec) * (1 + lam) ** (2 * spec.alpha)).max())
    assert max(sups[1:]) < 1.5 * sups[0]


def brute_force_k(delta, m, n_points=4_000_001, lam_max=None):
    """Independent trapezoid oracle at ~4x node density and 2x tail length,
    on a deeper (20-factor) cascade product."""
    spec = WaveletSpec(vanishing_moments=m)
    if lam_max is None:
        lam_max = math.pi * 2**13
    lam = np.linspace(1e-9, lam_max, n_points)
    vals = np.empty_like(lam)
    step = 1 << 18
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wavelets, "CASCADE_DEPTH", 20)
        for start in range(0, lam.size, step):
            vals[start : start + step] = psi_hat_sq(lam[start : start + step], spec)
    return 2.0 * np.trapezoid(lam ** (-delta) * vals, lam)


def test_k_parseval_value():
    spec = WaveletSpec(vanishing_moments=4)
    assert abs(spectral_k(0.0, spec) - 2 * math.pi) < 1e-5


@pytest.mark.parametrize("delta", [0.4, -0.4])
def test_k_against_brute_force(delta):
    spec = WaveletSpec(vanishing_moments=4)
    oracle = brute_force_k(delta, 4)
    assert_allclose(spectral_k(delta, spec), oracle, rtol=1e-6)


def test_k_finite_and_monotone_inside_domain():
    spec = WaveletSpec(vanishing_moments=4)
    grid = np.linspace(-spec.alpha + 0.1, spec.vanishing_moments - 0.1, 25)
    values = [spectral_k(float(dl), spec) for dl in grid]
    assert all(np.isfinite(v) and v > 0 for v in values)
    # K grows without bound towards the lower (tail-divergence) boundary
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] > 15 * values[len(values) // 2]


@pytest.mark.parametrize("delta", [-2.1, 4.0, 5.5])
def test_k_domain_errors(delta):
    spec = WaveletSpec(vanishing_moments=4)
    with pytest.raises(DomainError):
        spectral_k(delta, spec)
    with pytest.raises(DomainError):
        spectral_k(np.array([0.0, delta, 0.4]), spec)


@pytest.mark.parametrize("m", range(1, 11))
def test_k_moments_match_direct_quadrature(m):
    spec = WaveletSpec(vanishing_moments=m)
    lo, hi = -spec.alpha + 1e-3, m - 1e-3
    grid = np.concatenate([[lo, hi, 0.0], np.linspace(lo, hi, 23)])
    values = spectral_k(grid, spec)
    assert values.shape == grid.shape
    oracle = np.array([direct_spectral_k(float(delta), spec) for delta in grid])
    assert_allclose(values, oracle, rtol=1e-12)
    assert_allclose(spectral_k(grid.reshape(2, 13), spec), values.reshape(2, 13), rtol=1e-14)
    scalar = spectral_k(0.25, spec)
    assert type(scalar) is float
    assert scalar == pytest.approx(direct_spectral_k(0.25, spec), rel=1e-12)


@pytest.mark.parametrize("m", range(1, 11))
def test_k_parseval_every_order(m):
    # for Haar the band sum converges like 2^-t, so the cascade truncation at
    # depth 16 still shows in the top bands: 6.8e-6 absolute; the slow decay
    # of M = 2 and 3 leaves 8.4e-12 and 1.9e-13 to the tail extrapolation
    tol = 1e-5 if m == 1 else 1e-9 if m <= 3 else 1e-13
    assert abs(spectral_k(0.0, WaveletSpec(vanishing_moments=m)) - 2 * math.pi) < tol


def test_wavelet_spec_validation():
    with pytest.raises(TypeError):  # the cascade depth is a module constant
        WaveletSpec(vanishing_moments=4, cascade_depth=16)
    with pytest.raises(UnsupportedOrderError):
        WaveletSpec(vanishing_moments=12)
    with pytest.raises(TypeError):  # quadrature settings are module constants
        WaveletSpec(vanishing_moments=4, quad_max_octaves=0)
    with pytest.raises(TypeError):  # only fully-supported coefficients are kept
        WaveletSpec(vanishing_moments=4, boundary="valid")
    spec = WaveletSpec(vanishing_moments=4)
    assert spec.support_length == 7
    assert spec.alpha == pytest.approx(1.9125)
