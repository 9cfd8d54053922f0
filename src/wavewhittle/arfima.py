"""Multivariate ARFIMA(0, d, 0) simulation and model wavelet covariances.

The simulator draws Gaussian innovations with covariance ``omega`` (for this
model the innovation covariance and the long-run covariance coincide, as the
short-memory spectral factor is identically one), applies the truncated
MA(inf) expansion of ``(1-L)^-d`` channel by channel, and integrates
(cumulative sums) for nonstationary memory parameters ``d >= 1/2``.  Every
output sample is a complete truncated sum over its own innovations, so no
burn-in is needed.

The filter runs as a circular FFT convolution of length
``next_fast_len(truncation + N - 1)``, the number of innovations: the N
outputs kept are exactly the ones that length leaves unwrapped.  The filter's
transfer depends only on (d_s, truncation, FFT length), so the last
``TRANSFER_CACHE_SIZE`` transfers are kept, read-only; each holds about
8 * (truncation + N) bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CovarianceError, VanishingMomentError
from .wavelets import WaveletSpec, spectral_k

# Filter transfers simulate_arfima keeps, one per (d_s, truncation, FFT
# length): every replication of a Monte-Carlo scenario reuses the same keys.
TRANSFER_CACHE_SIZE = 8


def frac_diff_coeffs(d: float, count: int) -> np.ndarray:
    """MA(inf) weights psi_0..psi_{count-1} of the filter (1-L)^-d.

    psi_0 = 1 and psi_j = psi_{j-1} * (j - 1 + d) / j, equivalently
    Gamma(j + d) / (Gamma(j + 1) Gamma(d)); the weights decay like
    j**(d-1).  Requires |d| < 1/2 (the stationary branch) and count >= 1.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if abs(d) >= 0.5:
        raise ValueError(f"stationary branch needs |d| < 1/2, got d={d}")
    j = np.arange(1, count)
    return np.concatenate(([1.0], np.cumprod((j - 1 + d) / j)))


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth number 2^a 3^b 5^c >= n, a fast real FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=TRANSFER_CACHE_SIZE)
def _transfer(d_s: float, trunc: int, nfft: int) -> np.ndarray:
    """Read-only rfft of the truncated MA(inf) filter, zero-padded to nfft."""
    transfer = np.fft.rfft(frac_diff_coeffs(d_s, trunc), nfft)
    transfer.flags.writeable = False
    return transfer


def split_memory(d: float) -> tuple[float, int]:
    """Split d into a stationary exponent and an integer integration order.

    Returns (d_s, order) with d = d_s + order, |d_s| < 1/2 and order >= 0.
    Half-integers >= 1/2 sit on the stationarity boundary and are rejected.
    """
    if d < 0.5:
        if d <= -0.5:
            raise ConfigError(f"memory parameter {d} below the stationary range")
        return float(d), 0
    order = math.ceil(d - 0.5)
    d_s = d - order
    if d_s >= 0.5 - 1e-12:
        order += 1
        d_s -= 1.0
    if abs(d_s) >= 0.5 - 1e-12:
        raise ConfigError(f"memory parameter {d} sits on the d_s = +-1/2 boundary")
    return float(d_s), int(order)


def validate_long_run_cov(omega: np.ndarray) -> np.ndarray:
    """Check symmetry and positive definiteness; return the Cholesky factor."""
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise CovarianceError(f"omega must be square, got shape {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise CovarianceError("omega contains non-finite entries")
    if not np.allclose(omega, omega.T, rtol=1e-10, atol=1e-12):
        raise CovarianceError("omega is not symmetric")
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as exc:
        raise CovarianceError("omega is not positive definite") from exc
    return chol


def correlation_from_cov(omega: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.diag(omega))
    return omega / np.outer(scale, scale)


@dataclass
class ArfimaSpec:
    """Configuration of one ARFIMA(0, d, 0) draw.

    ``truncation`` is the MA(inf) cutoff (default 10*N).  ``seed`` is a
    nonnegative integer or a SeedSequence.  ``moment_cap`` optionally
    enforces d < M for a wavelet analysis planned downstream.  Invalid
    settings raise ConfigError (a ValueError), CovarianceError or
    VanishingMomentError.
    """

    d: np.ndarray
    omega: np.ndarray
    n_samples: int
    truncation: int | None = None
    seed: int | np.random.SeedSequence = 0
    moment_cap: int | None = None

    def __post_init__(self):
        self.d = np.atleast_1d(np.asarray(self.d, dtype=np.float64))
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.d.size == 0:
            raise ConfigError("at least one memory parameter is needed")
        if not np.all(np.isfinite(self.d)):
            raise ConfigError("memory parameters must be finite")
        if self.omega.shape != (self.d.size, self.d.size):
            raise CovarianceError(
                f"omega shape {self.omega.shape} does not match {self.d.size} channels"
            )
        validate_long_run_cov(self.omega)
        if self.n_samples < 1:
            raise ConfigError("n_samples must be positive")
        if self.truncation is None:
            self.truncation = 10 * self.n_samples
        if self.truncation < self.n_samples:
            raise ConfigError("truncation must be at least n_samples")
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.moment_cap is not None and np.any(self.d >= self.moment_cap):
            raise VanishingMomentError(
                f"memory parameters {self.d} must stay below the vanishing-moment cap "
                f"M={self.moment_cap}"
            )
        for value in self.d:
            split_memory(float(value))  # validates the integer split

    @property
    def n_channels(self) -> int:
        return self.d.size


def simulate_arfima(spec: ArfimaSpec) -> np.ndarray:
    """Draw an (N, p) panel from the ARFIMA(0, d, 0) model.

    Deterministic given the seed.  Stationary channels are truncated MA(inf)
    filters of correlated Gaussian innovations; channels with d >= 1/2 are
    simulated at exponent d - ceil(d - 1/2) and cumulatively summed.  Each
    channel costs one rfft and one irfft of length
    next_fast_len(truncation + N - 1); the filter transfer comes from a
    module cache (see the module docstring).
    """
    chol = validate_long_run_cov(spec.omega)
    p = spec.n_channels
    trunc = int(spec.truncation)
    n = spec.n_samples

    rng = np.random.default_rng(spec.seed)
    innov = rng.standard_normal((trunc + n - 1, p)) @ chol.T

    # "valid" convolutions as circular ones: a length >= len(innov) wraps only
    # outputs before trunc - 1.  Shared buffers: fresh ones fragment the heap.
    nfft = next_fast_len(innov.shape[0])
    spectrum = np.empty(nfft // 2 + 1, dtype=np.complex128)
    full = np.empty(nfft)
    panel = np.empty((n, p))
    for ell in range(p):
        d_s, order = split_memory(float(spec.d[ell]))
        np.fft.rfft(innov[:, ell], nfft, out=spectrum)
        np.multiply(spectrum, _transfer(d_s, trunc, nfft), out=spectrum)
        np.fft.irfft(spectrum, nfft, out=full)
        series = full[trunc - 1 : trunc - 1 + n]
        for _ in range(order):
            series = np.cumsum(series)
        panel[:, ell] = series
    return panel


def model_wavelet_cov(
    j: int,
    ell: int,
    m: int,
    d: np.ndarray,
    omega: np.ndarray,
    spec: WaveletSpec,
) -> float:
    """Model-implied covariance of scale-j wavelet coefficients of channels (ell, m).

    omega[l,m] * 2^(j(d_l+d_m)) * cos(pi(d_l-d_m)/2) * K(d_l+d_m) / 2pi, the
    first-order approximation the estimator inverts.  The 1/2pi matches the
    spectral normalization f(0+) ~ Omega/2pi of the model, under which unit
    white noise has unit wavelet variance.
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    omega = np.asarray(omega, dtype=np.float64)
    delta = float(d[ell] + d[m])
    phase = math.cos(math.pi * (float(d[ell]) - float(d[m])) / 2.0)
    k_val = spectral_k(delta, spec)
    return float(omega[ell, m]) * 2.0 ** (j * delta) * phase * k_val / (2.0 * math.pi)
