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
has an (N+1, p, p) Hermitian spectrum; its Cholesky factor, per frequency,
turns the rfft of 2N white-noise samples per channel into an exact draw
whose first N samples have exactly these covariances.  That rfft is never
computed: its bins are independent Gaussians of known variance (Davies &
Harte 1987, Biometrika 74; Wood & Chan 1994, JCGS 3), so 2N + 2 standard
normals per channel, read as N + 1 complex bins and scaled, are the same
white noise under an orthogonal change of variables.  A draw then costs one
irfft per channel, a call of the gufunc that np.fft.irfft wraps
(numpy.fft._pocketfft_umath.irfft, with its 1/(2N) normalization) into the
draw's workspace: np.fft.irfft's bits without its Python wrapper.  Channels
with d >= 1/2 are integrated (cumulative sums) from their stationary exponent.

The factor is stored as its packed lower triangle: a C-contiguous
(p(p+1)/2, N+1) complex array whose row l(l+1)/2 + m holds factor[l, m],
m <= l, over the frequencies.  It is built in place: one circulant row and
one rfft per lower pair fill the rows with the spectrum, and a Cholesky
factorization over frequency blocks of at most ~1 MB writes the factor back
into the same rows.  No (p, p, 2N) circulant or (N+1, p, p) spectrum is
ever held.  The factor depends only on (stationary exponents, omega, N),
and every replication of a Monte-Carlo scenario shares those, so the last
FACTOR_CACHE_SIZE = 2 factors are kept, read-only: one per scenario, and
room for two scenarios run in turn.  Each holds (N+1) * p(p+1)/2 * 16 bytes
(3.1 MB at N = 65536, p = 2; 0.54 GB at N = 8192, p = 90).  A draw works in
a (p+1, 2N+2) float64 workspace, one per (p, N), of which the last
FACTOR_CACHE_SIZE are kept (3.1 MB at N = 65536, p = 2), and allocates only
the (N, p) panel it returns (1.0 MB there); a draw that finds the workspace
held by another thread takes a buffer of its own.  A model whose factor is
larger than the address space, or whose build runs out of memory, raises
ConfigError instead of being drawn.  A spectrum that is not positive
definite at some frequency has no such factor: the draw raises
CovarianceError and is never clipped.  For one channel with |d| < 1/2 the
embedding is always nonnegative (Craigmile 2003, JTSA 24); for several
channels it is not (d = (0, 0.49), rho = 0.99, N = 512 fails).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CovarianceError, VanishingMomentError
from .wavelets import WaveletSpec, _freeze, _integer, spectral_k

# Embedding factors simulate_arfima keeps, one per (stationary exponents,
# omega, N).  Every replication of a Monte-Carlo scenario reuses one key; two
# keys let a caller alternate the two Table 1 models (their exponents, 0.2
# and 1.2 - 1 = 0.19999999999999996, differ in the last bit) without rebuilds.
FACTOR_CACHE_SIZE = 2
# A factor build runs its Cholesky factorization over (frequencies, p, p)
# complex blocks of at most this many bytes: beyond the factor, it holds one
# block and the block's factor.
_BLOCK_BYTES = 1_000_000


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


def _float_array(name: str, value) -> np.ndarray:
    """``value`` as a new float64 array; what numpy cannot convert (text, a
    ragged nesting) is a ConfigError naming ``name``, with numpy's reason."""
    try:
        return np.array(value, dtype=np.float64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{name} is not an array of numbers: {exc}") from exc


@dataclass(frozen=True)
class ArfimaSpec:
    """Configuration of one ARFIMA(0, d, 0) draw.

    ``d`` is a number or a 1-D list of numbers.  ``n_samples`` is a positive
    integer, ``seed`` a nonnegative integer or a SeedSequence, and
    ``moment_cap``, which optionally enforces d < M for a wavelet analysis
    planned downstream, an integer; an integral float such as 300.0 counts,
    a fraction or a boolean does not.  Invalid settings raise ConfigError (a
    ValueError), CovarianceError or VanishingMomentError; a ``d`` or
    ``omega`` that numpy cannot read as numbers (text, ragged rows) is a
    ConfigError naming it.  Immutable: ``d`` and ``omega`` are read-only
    float64 copies, ``n_samples``, ``moment_cap`` and an integer ``seed`` are
    ints, and the ``split_memory`` of each d is kept.
    """

    d: np.ndarray
    omega: np.ndarray
    n_samples: int
    seed: int | np.random.SeedSequence = 0
    moment_cap: int | None = None
    # per channel, the stationary exponent and the integration order of d
    _stationary: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _orders: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # what the embedding factor depends on: (stationary exponents, omega, N)
    _factor_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _freeze(np.atleast_1d(_float_array("d", self.d)))
        if d.ndim != 1:
            raise ConfigError(f"d must be a number or a list of numbers, got {self.d!r}")
        omega = _freeze(_float_array("omega", self.omega))
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
        object.__setattr__(self, "n_samples", _integer("n_samples", self.n_samples))
        if self.n_samples < 1:
            raise ConfigError("n_samples must be positive")
        if not isinstance(self.seed, np.random.SeedSequence):
            object.__setattr__(self, "seed", _integer("seed", self.seed))
            if self.seed < 0:
                raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.moment_cap is not None:
            object.__setattr__(self, "moment_cap", _integer("moment_cap", self.moment_cap))
            if np.any(d >= self.moment_cap):
                raise VanishingMomentError(
                    f"memory parameters {d} must stay below the vanishing-moment cap "
                    f"M={self.moment_cap}"
                )
        stationary, orders = zip(*(split_memory(value) for value in d.tolist()))
        object.__setattr__(self, "_stationary", stationary)
        object.__setattr__(self, "_orders", orders)
        object.__setattr__(self, "_factor_key",
                           (stationary, tuple(omega.ravel().tolist()), self.n_samples))

    @property
    def n_channels(self) -> int:
        return self.d.size


def _packed_spectrum(d_s: tuple, omega: tuple, n: int) -> np.ndarray:
    """Packed lower triangle of the Hermitian spectrum of the length-2N
    circulant embedding: a C-contiguous (p(p+1)/2, N+1) complex array whose
    row l(l+1)/2 + m holds entry (l, m), m <= l, at frequencies 0..N.

    The cross-autocovariances gamma_lm(h) = E[X_l(t+h) X_m(t)] at lags
    h = 0..N of a pair come from one cumulative product: gamma(0) = omega_lm
    Gamma(1-d_l-d_m) / (Gamma(1-d_l) Gamma(1-d_m)) and gamma(h+1) = gamma(h)
    (h+d_l) / (h+1-d_m), exact zeros after lag 0 when d_l = 0.  Requires
    |d_l| < 1/2 for every channel.

    Circulant entry k of pair (l, m) holds gamma_lm(k) for k < N and
    gamma_ml(2N - k) for k > N.  Entry N stands for lag N and lag -N at once;
    no covariance among the first N samples uses it, and it holds their
    symmetric mean, which keeps the spectrum Hermitian.  Each pair is one
    circulant row, reused, and one rfft written into its packed row.
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
    packed = np.empty((p * (p + 1) // 2, n + 1), dtype=np.complex128)
    h = np.arange(n, dtype=np.float64)
    h1 = h + 1.0
    circulant = np.empty(2 * n)
    mirror = np.empty(n)  # gamma_ml(1..N)
    denominator = np.empty(n)

    def lags(out, ell, m):
        # gamma_lm(1..N): the ratios (h+d_l) / (h+1-d_m), h = 0..N-1, their
        # cumulative product, times gamma(0)
        np.add(h, d[ell], out=out)
        np.divide(out, np.subtract(h1, d[m], out=denominator), out=out)
        np.cumprod(out, out=out)
        out *= gamma0[ell, m]

    for ell in range(p):
        for m in range(ell + 1):
            circulant[0] = gamma0[ell, m]
            lags(circulant[1 : n + 1], ell, m)
            lags(mirror, m, ell)
            circulant[n] = 0.5 * (circulant[n] + mirror[n - 1])
            circulant[n + 1 :] = mirror[: n - 1][::-1]
            np.fft.rfft(circulant, out=packed[ell * (ell + 1) // 2 + m])
    return packed


def _lower_blocks(packed: np.ndarray, p: int):
    """Yield (block, start, stop) over the frequencies of a packed array:
    ``block`` is a (stop - start, p, p) complex array whose lower triangle
    holds the packed rows at frequencies start..stop-1 and whose upper
    triangle is zero.  One buffer of at most _BLOCK_BYTES, or of one
    frequency when 16 p^2 exceeds that, is refilled for every block."""
    size = min(packed.shape[1], max(1, _BLOCK_BYTES // (16 * p * p)))
    buffer = np.zeros((size, p, p), dtype=np.complex128)
    for start in range(0, packed.shape[1], size):
        stop = min(start + size, packed.shape[1])
        block = buffer[: stop - start]
        for ell in range(p):
            base = ell * (ell + 1) // 2
            block[:, ell, : ell + 1] = packed[base : base + ell + 1, start:stop].T
        yield block, start, stop


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _embedding_factor(d_s: tuple, omega: tuple, n: int) -> np.ndarray:
    """Read-only packed lower Cholesky factor of the embedding spectrum: a
    (p(p+1)/2, N+1) complex array whose row l(l+1)/2 + m holds factor[l, m]
    over the frequencies.  Built in place in the spectrum's own rows, one
    frequency block at a time.  Raises np.linalg.LinAlgError if the spectrum
    is not positive definite, and MemoryError if the factor cannot be built
    in memory."""
    p = len(d_s)
    if _factor_bytes(p, n) > np.iinfo(np.intp).max:
        raise MemoryError  # numpy would raise ValueError: array is too big
    factor = _packed_spectrum(d_s, omega, n)
    for block, start, stop in _lower_blocks(factor, p):
        lower = np.linalg.cholesky(block)
        for ell in range(p):
            base = ell * (ell + 1) // 2
            factor[base : base + ell + 1, start:stop] = lower[:, ell, : ell + 1].T
        del lower  # before the next block's factor is allocated
    factor.flags.writeable = False
    return factor


def _factor_bytes(p: int, n: int) -> int:
    """Bytes of the packed (p(p+1)/2, N+1) complex factor, the largest array
    a factor build allocates."""
    return p * (p + 1) // 2 * (n + 1) * 16


def embedding_factor(spec: ArfimaSpec) -> np.ndarray:
    """The cached, packed circulant-embedding factor of ``spec`` (module
    docstring): row l(l+1)/2 + m holds factor[l, m], m <= l, at the
    frequencies 0..N.

    Raises CovarianceError, naming d, omega, N and the smallest eigenvalue of
    the embedding, when the embedding is not positive definite.  Raises
    ConfigError, naming N, p and the bytes of the factor, when the model is
    too large to simulate: the factor exceeds the address space (checked
    before anything is allocated) or the build runs out of memory.
    """
    key = spec._factor_key
    try:
        return _embedding_factor(*key)
    except MemoryError:
        p, n = spec.n_channels, spec.n_samples
        raise ConfigError(
            f"N={n} with p={p} channels is too large to simulate: its embedding "
            f"factor alone needs {_factor_bytes(p, n)} bytes"
        ) from None
    except np.linalg.LinAlgError:
        # the failed build overwrote part of the spectrum: build it again
        blocks = _lower_blocks(_packed_spectrum(*key), spec.n_channels)
        smallest = min(float(np.linalg.eigvalsh(block).min()) for block, _, _ in blocks)
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


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _workspace(p: int, n: int) -> tuple[threading.Lock, np.ndarray]:
    """The buffer that draws of p channels and N samples reuse, and the lock
    of the draw that holds it (``_mix``)."""
    return threading.Lock(), np.empty((p + 1, 2 * n + 2))


def _draw(spec: ArfimaSpec, factor: np.ndarray, seed) -> np.ndarray:
    """``simulate_arfima`` of ``spec`` with ``seed`` in place of ``spec.seed``,
    given its packed embedding factor: a Monte-Carlo run validates the model
    and looks up the factor once, then draws every replication from here.
    The draw works in the workspace of its (p, N) and allocates only the
    panel it returns; while another thread holds that workspace, it takes a
    buffer of its own."""
    p, n = spec.n_channels, spec.n_samples
    lock, workspace = _workspace(p, n)
    if not lock.acquire(blocking=False):
        return _mix(spec, factor, seed, np.empty((p + 1, 2 * n + 2)))
    try:
        return _mix(spec, factor, seed, workspace)
    finally:
        lock.release()


def _mix(spec: ArfimaSpec, factor: np.ndarray, seed, workspace: np.ndarray) -> np.ndarray:
    """The draw of ``_draw`` in a (p+1, 2N+2) float64 workspace: its first p
    rows hold the normals, read as (p, N+1) complex bins, and its last row
    one (N+1) complex term of the mix, then each 2N-sample irfft."""
    p, n = spec.n_channels, spec.n_samples
    normals, buffer = workspace[:p], workspace[p]
    # The rfft of 2N iid N(0, 1) samples has independent bins: real N(0, 2N)
    # at frequencies 0 and N, and N(0, N) real and imaginary parts between.
    np.random.default_rng(seed).standard_normal(out=normals)
    spectrum = normals.view(np.complex128)
    spectrum *= math.sqrt(n)
    spectrum[:, ::n] = spectrum[:, ::n].real * math.sqrt(2.0)
    # spectrum[l] <- sum_{m <= l} factor[l, m] spectrum[m], last channel
    # first so that the rows still to be read are unchanged
    term = buffer.view(np.complex128)
    for ell in range(p - 1, -1, -1):
        row = factor[ell * (ell + 1) // 2 :]
        spectrum[ell] *= row[ell]
        for m in range(ell):
            spectrum[ell] += np.multiply(row[m], spectrum[m], out=term)
    # one irfft per channel into one reused 2N buffer: a batched irfft holds
    # p such buffers and raised the peak RSS of an N = 65536, p = 2 run by 2 MB
    full = buffer[: 2 * n]
    panel = np.empty((p, n))
    for ell in range(p):
        np.fft._pocketfft_umath.irfft(spectrum[ell], 1.0 / (2 * n), full)
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
