"""Multivariate ARFIMA(0, d, 0) simulation and model wavelet covariances.

The simulator draws exact Gaussian samples by circulant embedding
(Helgason, Pipiras & Abry 2011, Signal Processing 91).  The stationary part
X_l = (1-L)^-d_l eps_l, with Cov(eps) = omega (for this model the innovation
covariance and the long-run covariance coincide), has the closed-form
cross-autocovariance (Sela & Hurvich 2009, JTSA 30)

    gamma_lm(h) = E[X_l(t+h) X_m(t)]
                = omega_lm Gamma(1-d_l-d_m) / (Gamma(d_l) Gamma(1-d_l))
                  * Gamma(h+d_l) / Gamma(h+1-d_m),   h >= 0,

and gamma_lm(-h) = gamma_ml(h).  Wrapped into a circulant of length 2N, it
has an (N+1, p, p) Hermitian spectrum; its batched Cholesky factor turns the
rfft of 2N white-noise samples per channel into an exact draw whose first N
samples have exactly these covariances.  That rfft is never computed: its
bins are independent Gaussians of known variance (Davies & Harte 1987,
Biometrika 74; Wood & Chan 1994, JCGS 3), so 2N + 2 standard normals per
channel, read as N + 1 complex bins and scaled, are the same white noise
under an orthogonal change of variables.  A draw then costs one irfft per
channel.  Channels with d >= 1/2 are integrated (cumulative sums) from their
stationary exponent.

The factor depends only on (stationary exponents, omega, N), and every
replication of a Monte-Carlo scenario shares those, so the last
FACTOR_CACHE_SIZE factors are kept, read-only.  Each holds
(N+1) * p^2 * 16 bytes (4.2 MB at N = 65536, p = 2).  A draw besides holds
(2N+2) p doubles of bins, one 2N-sample irfft buffer and the N p panel
(2.1, 1.0 and 1.0 MB at N = 65536, p = 2).  A spectrum that is not
positive definite at some frequency has no such factor: the draw raises
CovarianceError and is never clipped.  For one channel with |d| < 1/2 the
embedding is always nonnegative (Craigmile 2003, JTSA 24); for several
channels it is not (d = (0, 0.49), rho = 0.99, N = 512 fails).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CovarianceError, VanishingMomentError
from .wavelets import WaveletSpec, _freeze, spectral_k

# Embedding factors simulate_arfima keeps, one per (stationary exponents,
# omega, N): every replication of a Monte-Carlo scenario reuses the same key.
FACTOR_CACHE_SIZE = 8


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
    if not np.isfinite(omega).all():
        raise CovarianceError("omega contains non-finite entries")
    # np.allclose(omega, omega.T, rtol=1e-10, atol=1e-12), which on finite
    # entries is this test, without its call overhead
    if not (np.abs(omega - omega.T) <= 1e-12 + 1e-10 * np.abs(omega.T)).all():
        raise CovarianceError("omega is not symmetric")
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as exc:
        raise CovarianceError("omega is not positive definite") from exc
    return chol


def correlation_from_cov(omega: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.diag(omega))
    return omega / np.outer(scale, scale)


@dataclass(frozen=True)
class ArfimaSpec:
    """Configuration of one ARFIMA(0, d, 0) draw.

    ``seed`` is a nonnegative integer or a SeedSequence.  ``moment_cap``
    optionally enforces d < M for a wavelet analysis planned downstream.
    Invalid settings raise ConfigError (a ValueError), CovarianceError or
    VanishingMomentError.  Immutable: ``d`` and ``omega`` are read-only
    float64 copies, and the ``split_memory`` of each d is kept.
    """

    d: np.ndarray
    omega: np.ndarray
    n_samples: int
    seed: int | np.random.SeedSequence = 0
    moment_cap: int | None = None
    # per channel, the stationary exponent and the integration order of d
    _stationary: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _orders: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _freeze(np.atleast_1d(np.array(self.d, dtype=np.float64)))
        omega = _freeze(np.array(self.omega, dtype=np.float64))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "omega", omega)
        if d.size == 0:
            raise ConfigError("at least one memory parameter is needed")
        if not np.all(np.isfinite(d)):
            raise ConfigError("memory parameters must be finite")
        if omega.shape != (d.size, d.size):
            raise CovarianceError(
                f"omega shape {omega.shape} does not match {d.size} channels"
            )
        validate_long_run_cov(omega)
        if self.n_samples < 1:
            raise ConfigError("n_samples must be positive")
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.moment_cap is not None and np.any(d >= self.moment_cap):
            raise VanishingMomentError(
                f"memory parameters {d} must stay below the vanishing-moment cap "
                f"M={self.moment_cap}"
            )
        stationary, orders = zip(*(split_memory(value) for value in d.tolist()))
        object.__setattr__(self, "_stationary", stationary)
        object.__setattr__(self, "_orders", orders)

    @property
    def n_channels(self) -> int:
        return self.d.size


def _embedding_spectrum(d_s: tuple, omega: tuple, n: int) -> np.ndarray:
    """(N+1, p, p) Hermitian spectrum of the length-2N circulant embedding.

    The cross-autocovariances gamma_lm(h) = E[X_l(t+h) X_m(t)] at lags
    h = 0..N of every pair come from one cumulative product over a (p, p, N)
    lag array: gamma(0) = omega_lm Gamma(1-d_l-d_m) / (Gamma(1-d_l)
    Gamma(1-d_m)) and gamma(h+1) = gamma(h) (h+d_l) / (h+1-d_m), exact zeros
    after lag 0 when d_l = 0.  Requires |d_l| < 1/2 for every channel.

    Circulant entry k holds lag k for k < N and lag k - 2N for k > N.  Entry
    N stands for lag N and lag -N at once; no covariance among the first N
    samples uses it, and it holds their symmetric mean, which keeps the
    spectrum Hermitian.
    """
    p = len(d_s)
    d = np.array(d_s)
    head = 1.0 - d
    # numpy has no gamma function; the products and quotients that follow
    # keep the operand order of the scalar formula, hence its rounding
    gamma0 = np.array([math.gamma(x) for x in (head[:, None] - d).ravel().tolist()])
    gamma0 = np.reshape(omega, (p, p)) * gamma0.reshape(p, p)
    scale = np.array([math.gamma(x) for x in head.tolist()])
    gamma0 /= scale[:, None] * scale
    circulant = np.empty((p, p, 2 * n))
    circulant[..., 0] = gamma0
    # lags 1..N, built in place: the ratios (h+d_l) / (h+1-d_m), h = 0..N-1,
    # their cumulative product, times gamma(0)
    lags = circulant[..., 1 : n + 1]
    h = np.arange(n, dtype=np.float64)
    np.divide(h + d[:, None, None], h + 1.0 - d[:, None], out=lags)
    np.cumprod(lags, axis=-1, out=lags)
    lags *= gamma0[..., None]
    circulant[..., n] = 0.5 * (circulant[..., n] + circulant[..., n].T)
    circulant[..., n + 1 :] = circulant.transpose(1, 0, 2)[..., n - 1 : 0 : -1]
    return np.moveaxis(np.fft.rfft(circulant, axis=-1), -1, 0)


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _embedding_factor(d_s: tuple, omega: tuple, n: int) -> np.ndarray:
    """Read-only (p, p, N+1) lower Cholesky factor of the embedding spectrum,
    frequency last; raises np.linalg.LinAlgError if it is not positive definite."""
    factor = np.linalg.cholesky(_embedding_spectrum(d_s, omega, n)).transpose(1, 2, 0).copy()
    factor.flags.writeable = False
    return factor


def embedding_factor(spec: ArfimaSpec) -> np.ndarray:
    """The cached circulant-embedding factor of ``spec`` (module docstring).

    Raises CovarianceError, naming d, omega, N and the smallest eigenvalue of
    the embedding, when the embedding is not positive definite.
    """
    key = (spec._stationary, tuple(spec.omega.ravel().tolist()), int(spec.n_samples))
    try:
        return _embedding_factor(*key)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(_embedding_spectrum(*key)).min())
        raise CovarianceError(
            f"the circulant embedding of d={spec.d.tolist()}, omega={spec.omega.tolist()}, "
            f"N={spec.n_samples} is not positive definite (smallest eigenvalue "
            f"{smallest:.3g}); no exact draw exists for this model"
        ) from None


def simulate_arfima(spec: ArfimaSpec) -> np.ndarray:
    """Draw an (N, p) panel from the ARFIMA(0, d, 0) model, exactly.

    Deterministic given the seed.  The stationary parts are one circulant-
    embedding draw (module docstring): the rfft of 2N white-noise samples
    per channel, drawn directly in the frequency domain, multiplied per
    frequency by the cached factor, and an irfft of which the first N
    samples are kept.  Channels with d >= 1/2 are drawn at exponent
    d - ceil(d - 1/2) and cumulatively summed.  The panel is the transpose
    of a (p, N) array, so it is Fortran-ordered: each channel is contiguous.
    Raises CovarianceError if the embedding is not positive definite.
    """
    return _draw(spec, embedding_factor(spec), spec.seed)


def _draw(spec: ArfimaSpec, factor: np.ndarray, seed) -> np.ndarray:
    """``simulate_arfima`` of ``spec`` with ``seed`` in place of ``spec.seed``,
    given its embedding factor: a Monte-Carlo run validates the model and
    looks up the factor once, then draws every replication from here."""
    p, n = spec.n_channels, spec.n_samples
    # The rfft of 2N iid N(0, 1) samples has independent bins: real N(0, 2N)
    # at frequencies 0 and N, and N(0, N) real and imaginary parts between.
    spectrum = np.random.default_rng(seed).standard_normal((p, 2 * n + 2))
    spectrum = spectrum.view(np.complex128)
    spectrum *= math.sqrt(n)
    spectrum[:, ::n] = spectrum[:, ::n].real * math.sqrt(2.0)
    # spectrum[l] <- sum_{m <= l} factor[l, m] spectrum[m], last channel
    # first so that the rows still to be read are unchanged
    term = np.empty(n + 1, dtype=np.complex128)
    for ell in range(p - 1, -1, -1):
        spectrum[ell] *= factor[ell, ell]
        for m in range(ell):
            spectrum[ell] += np.multiply(factor[ell, m], spectrum[m], out=term)
    full = np.empty(2 * n)
    panel = np.empty((p, n))
    for ell in range(p):
        np.fft.irfft(spectrum[ell], 2 * n, out=full)
        panel[ell] = full[:n]
        for _ in range(spec._orders[ell]):
            np.cumsum(panel[ell], out=panel[ell])
    return panel.T


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
