"""Daubechies filters, multichannel detail pyramids and the wavelet spectral integral K.

Conventions used throughout:

* ``h`` is the low-pass (scaling) filter with ``sum(h) == sqrt(2)`` and
  ``sum(h**2) == 1``; ``g`` is its quadrature mirror
  ``g[k] = (-1)**k * h[2M - 1 - k]``.
* The scale index ``j`` grows towards coarse scales (low frequencies),
  starting at ``j = 1`` for the finest detail level.  Observed samples play
  the role of level-0 approximation coefficients.
* Decomposition uses the correlation form
  ``a_{j+1}[k] = sum_m h[m] a_j[2k + m]`` (same with ``g`` for details), so
  coefficient ``k`` at scale ``j`` depends on samples in a window of length
  ``(2**j - 1)*(2M - 1) + 1`` starting at ``2**j * k``.  Windows never reach
  left of the first sample.
* Only coefficients computed entirely from observed samples are kept:
  every level keeps ``floor((S_j - T + 1) / 2)`` coefficients from its
  ``S_j``-long input, ``T = 2M - 1`` being the wavelet support length.  At
  the finest scale this equals ``floor((N - T + 1) / 2)``; deeper levels
  shrink slightly faster than ``2**-j (N - T + 1)`` because
  boundary-crossing coefficients are discarded again at every level.
* ``K(delta) = int |lam|^-delta |psi_hat(lam)|^2 dlam`` is the only spectral
  integral the estimator needs: the long-run covariance divides the profile
  covariance by ``cos(pi(d_l - d_m)/2) K(d_l + d_m) / 2pi``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DomainError, InsufficientDataError, UnsupportedOrderError

MAX_ORDER = 10

#: Factors of the truncated cascade product in ``psi_hat_sq`` (read at call
#: time).  The pointwise error decays geometrically with the depth: 16 gives
#: better than 1e-8 for M <= 8.  The K band cache stops at octave
#: ``CASCADE_DEPTH - 5``, well below the ~2^CASCADE_DEPTH frequency where the
#: truncated product stops decaying.
CASCADE_DEPTH = 16

#: Fourier decay exponents of the Daubechies family: |psi_hat(lam)| decays at
#: least like (1 + |lam|)**-alpha.  Standard tabulated values; used to validate
#: the convergence domain of the spectral integral K.
DAUBECHIES_ALPHA = {
    1: 1.0000,
    2: 1.3390,
    3: 1.6360,
    4: 1.9125,
    5: 2.1766,
    6: 2.4322,
    7: 2.6817,
    8: 2.9265,
    9: 3.1676,
    10: 3.4057,
}

@lru_cache(maxsize=None)
def daubechies_filters(vanishing_moments: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the Daubechies (low-pass, high-pass) filter pair with 2M taps.

    Built by spectral factorization of the halfband polynomial
    ``|m0(w)|^2 = cos(w/2)**(2M) * P(sin(w/2)**2)``, keeping the roots inside
    the unit circle (extremal phase).  The low-pass taps sum to sqrt(2) and
    the associated wavelet has exactly ``vanishing_moments`` vanishing
    moments.

    Raises UnsupportedOrderError outside 1 <= M <= 10.
    """
    m = int(vanishing_moments)
    if m != vanishing_moments or not 1 <= m <= MAX_ORDER:
        raise UnsupportedOrderError(
            f"vanishing moments must be an integer in [1, {MAX_ORDER}], got {vanishing_moments!r}"
        )
    if m == 1:
        h = np.array([1.0, 1.0]) / math.sqrt(2.0)
        return _freeze(h), _freeze(qmf(h))

    # P(y) = sum_k C(m-1+k, k) y^k, y = sin^2(w/2) = (2 - z - 1/z)/4.
    # Multiplying by z^(m-1) turns P into an ordinary polynomial in z whose
    # roots come in (z, 1/z) pairs.
    y_in_z = np.array([-0.25, 0.5, -0.25])  # y * z expressed in z
    poly = np.zeros(2 * m - 1)
    for k in range(m):
        term = np.array([1.0])
        for _ in range(k):
            term = np.convolve(term, y_in_z)
        # term is y^k * z^k; pad so every term is centred at z^(m-1)
        lo = (m - 1) - k
        poly[lo : lo + term.size] += math.comb(m - 1 + k, k) * term

    roots = np.roots(np.flip(poly))  # np.roots wants highest degree first
    kept = roots[np.abs(roots) < 1.0]
    if kept.size != m - 1:  # pragma: no cover - guards numerical failure
        raise UnsupportedOrderError(f"root selection failed for M={m}")

    # H(z) = c * (1+z)^M * prod (z - z_i); ordered to match the classical
    # extremal-phase tabulation (h[0] largest for small M).
    hz = np.array([1.0])
    for _ in range(m):
        hz = np.convolve(hz, [1.0, 1.0])
    for z_i in kept:
        hz = np.convolve(hz, [-z_i, 1.0])
    h = np.real(hz)[::-1]
    h = h * (math.sqrt(2.0) / h.sum())
    return _freeze(h), _freeze(qmf(h))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integer(name: str, value) -> int:
    """``value`` as an int; a fraction, a boolean or text is a ConfigError
    naming ``name``, never truncated.  An integral float such as 300.0 counts."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def qmf(h: np.ndarray) -> np.ndarray:
    """Quadrature mirror of a low-pass filter: ``g[k] = (-1)^k h[L-1-k]``."""
    signs = np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


@dataclass(frozen=True)
class WaveletSpec:
    """Daubechies analysis configuration: the number M of vanishing moments.

    The wavelet spectral integral K is evaluated from a band cache sampled
    once per M at the module-level ``CASCADE_DEPTH`` (see ``spectral_k``).
    """

    vanishing_moments: int = 4

    def __post_init__(self):
        daubechies_filters(self.vanishing_moments)  # raises UnsupportedOrderError

    @property
    def support_length(self) -> int:
        """Support length T = 2M - 1 of the mother wavelet."""
        return 2 * self.vanishing_moments - 1

    @property
    def alpha(self) -> float:
        """Tabulated Fourier decay exponent of the wavelet."""
        return DAUBECHIES_ALPHA[self.vanishing_moments]

    def filters(self) -> tuple[np.ndarray, np.ndarray]:
        return daubechies_filters(self.vanishing_moments)


def coefficient_counts(n_samples: int, spec: WaveletSpec, j_max: int) -> np.ndarray:
    """Retained coefficient counts n_j for j = 1..j_max (0 once a level empties).

    Each level keeps the floor((S - T + 1)/2) fully-supported coefficients of
    its S-long input.  Returns a writable copy of the first j_max entries of
    the cached count table, zero-padded past it.
    """
    table = _counts(n_samples, spec.support_length)
    out = np.zeros(max(j_max, 0), dtype=np.int64)
    kept = min(out.size, table.size)
    out[:kept] = table[:kept]
    return out


@lru_cache(maxsize=32)
def _counts(n_samples: int, support_length: int) -> np.ndarray:
    """Read-only counts of one (N, T) geometry at every level that can hold a
    coefficient: they at least halve per level, so bit_length(N) levels."""
    if n_samples > np.iinfo(np.int64).max:
        raise ConfigError(f"N={n_samples} exceeds the int64 range of the coefficient counts")
    counts = []
    s = n_samples
    for _ in range(max(n_samples, 0).bit_length()):
        s = max((s - support_length + 1) >> 1, 0)
        counts.append(s)
    return _freeze(np.array(counts, dtype=np.int64))


def max_feasible_level(n_samples: int, spec: WaveletSpec) -> int:
    """Deepest level j with n_j >= 1 (0 when even level 1 is empty)."""
    return int(np.count_nonzero(_counts(n_samples, spec.support_length)))


@dataclass
class WaveletPyramid:
    """Per-scale, per-channel detail coefficients of a sample panel.

    ``details[i]`` holds scale j = i + 1 as an (n_j, p) array.  Those that
    ``dwt_pyramid`` builds are transposes of (p, n_j) arrays, so each
    channel's coefficients are contiguous.
    """

    details: list[np.ndarray]
    counts: np.ndarray

    @property
    def j_max(self) -> int:
        return len(self.details)

    def level(self, j: int) -> np.ndarray:
        """Detail coefficients at scale j (1-based) as an (n_j, p) array."""
        if not 1 <= j <= self.j_max:
            raise IndexError(f"scale {j} not in pyramid range 1..{self.j_max}")
        return self.details[j - 1]


def dwt_pyramid(panel: np.ndarray, spec: WaveletSpec, j_max: int | None = None) -> WaveletPyramid:
    """Compute the multichannel detail pyramid of an (N,) or (N, p) panel.

    Retains the ``coefficient_counts(N, spec, j_max)`` fully-supported
    coefficients per channel and scale.  The computation is channel-major:
    one contiguous (p, N) copy of the panel (none for a Fortran-ordered
    panel), then per level one product of its decimated windows, a strided
    view, with the filter pair [g, h], which yields the details and the next
    approximation at once.  Raises InsufficientDataError (carrying the
    largest feasible level) when the series is too short for ``j_max``.
    """
    x = np.asarray(panel, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("panel must be a 1-D series or an (N, p) matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("panel contains non-finite values")

    n_samples = x.shape[0]
    feasible = max_feasible_level(n_samples, spec)
    if j_max is None:
        j_max = feasible
    if j_max < 1 or j_max > feasible:
        raise InsufficientDataError(
            f"requested depth {j_max} infeasible for N={n_samples}, "
            f"M={spec.vanishing_moments} (largest feasible level: {feasible})",
            largest_feasible=feasible,
        )

    h, g = spec.filters()
    filters = np.stack([g, h], axis=1)
    counts = coefficient_counts(n_samples, spec, j_max)

    details: list[np.ndarray] = []
    approx = np.ascontiguousarray(x.T)  # (p, N), channel-major
    for n_j in counts.tolist():
        # the n_j decimated windows lying entirely inside the level, as one
        # read-only (p, n_j, taps) view: window k starts at sample 2k
        channel, sample = approx.strides
        windows = as_strided(approx, (approx.shape[0], n_j, h.size),
                             (channel, 2 * sample, sample), writeable=False)
        both = windows @ filters
        details.append(np.ascontiguousarray(both[:, :, 0]).T)
        approx = both[:, :, 1]
    return WaveletPyramid(details=details, counts=counts)


def psi_hat_sq(lam, spec: WaveletSpec):
    """Squared modulus of the wavelet Fourier transform at frequency lam.

    Evaluated through the truncated cascade product
    ``|m_g(lam/2)|^2 * prod_{k=2..CASCADE_DEPTH} |m_h(lam/2^k)|^2`` with the
    closed-form squared gains of the Daubechies halfband polynomial
    ``P(y) = sum_{k<M} C(M-1+k, k) y^k``: ``|m_h(w)|^2 = cos^2M(w/2)
    P(sin^2(w/2))`` and ``|m_g(w)|^2 = sin^2M(w/2) P(cos^2(w/2))``, so
    ``psi_hat_sq(0) == 0`` exactly.  Accepts scalars or arrays; defined for
    every finite frequency.
    """
    out = _cascade(np.atleast_1d(np.asarray(lam, dtype=np.float64)), 0.0,
                   spec.vanishing_moments)
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return float(out[0])
    return out


def _cascade(a, b, vanishing_moments: int) -> np.ndarray:
    """``psi_hat_sq`` at lam = a + b, broadcast, exact in the sum.

    Level k of the product needs sin and cos of lam/2^(k+1); angle addition,
    ``sin(x + y) = sin x cos y + cos x sin y``, takes them from those of a
    and b alone, so a grid of panel midpoints a against the offsets b that
    every panel shares costs one sin and one cos per midpoint and per offset,
    not per node.  The cos^2 factors of the cos^2M(w/2) gains telescope
    through sin 2x = 2 sin x cos x:
    ``prod_{k=2..D} cos^2(w/2^(k-1)) = (sin w / (2^(D-1) sin(w/2^(D-1))))^2``,
    w = lam/4, whose 0/0 at lam = 0 is its limit 1.
    """
    m = vanishing_moments
    coeffs = [math.comb(m - 1 + k, k) for k in range(m)]

    def halfband(y: np.ndarray) -> np.ndarray:
        acc = 0.0
        for c in reversed(coeffs):  # Horner's rule
            acc = acc * y + c
        return acc

    a = np.asarray(a, dtype=np.float64) / 4.0
    b = np.asarray(b, dtype=np.float64) / 4.0
    for level in range(1, CASCADE_DEPTH + 1):  # level k is at w / 2^(k-1)
        sin_a, cos_a, sin_b, cos_b = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        sine = sin_a * cos_b + cos_a * sin_b
        if level == 1:
            sin_w = sine
            out = halfband((cos_a * cos_b - sin_a * sin_b) ** 2)
        else:
            out = out * halfband(sine * sine)
        a = a / 2.0
        b = b / 2.0
    deepest = 2.0 ** (CASCADE_DEPTH - 1) * sine
    cos_product = np.divide(sin_w, deepest, out=np.ones_like(deepest), where=deepest != 0.0)
    # the M-th powers of every factor are taken once, on their product
    return (sin_w * cos_product) ** (2 * m) * out


def in_k_domain(delta, spec: WaveletSpec) -> np.ndarray:
    """Elementwise test of the convergence domain -alpha < delta < M of K."""
    delta = np.asarray(delta, dtype=np.float64)
    return (-spec.alpha < delta) & (delta < spec.vanishing_moments)


def _check_delta(delta, spec: WaveletSpec) -> None:
    inside = in_k_domain(delta, spec)
    if not inside.all():
        bad = np.asarray(delta, dtype=np.float64)[~inside]
        raise DomainError(
            f"exponent {bad[0]} outside convergence domain "
            f"({-spec.alpha}, {spec.vanishing_moments}) for M={spec.vanishing_moments}"
        )


#: Taylor terms of the per-band moment expansion of |lam|^-delta: within a
#: band |ln lam - c_t| <= ln2/2 and |delta| < M <= 10, so the series is cut
#: below 1e-18 of the band's |psi_hat|^2 mass.
TAYLOR_TERMS = 32
_BAND_NODES = 16
_BAND_CAP_LO = -60


@dataclass(frozen=True)
class _PsiBands:
    """Moments in ln(lam) of the |psi_hat|^2 quadrature on dyadic bands.

    Band t covers [pi*2^t, pi*2^(t+1)]; the order is t = 0..cap (``n_up``
    bands) and then t = -1, ..., -59.  Each band is integrated with
    16-node Gauss-Legendre panels, pi wide for t >= 0 so the cascade product
    (which oscillates on a fixed ~2*pi frequency scale) is resolved
    everywhere; only the per-band moments of those nodes are kept.
    """

    centers: np.ndarray  # c_t = ln(pi * 2^(t + 1/2))
    moments: np.ndarray  # (TAYLOR_TERMS, bands): sum w psi_hat^2 (ln lam - c_t)^k / k!
    n_up: int  # number of bands t >= 0


def _band_quadrature(vanishing_moments: int):
    """Nodes, weights and |psi_hat|^2 values of every band, in ``_PsiBands``
    order.

    Band t >= 0 is the 2^t pi-wide panels [pi k, pi (k + 1)], k = 2^t..2^(t+1)
    - 1, and band t < 0 the one panel [pi 2^t, pi 2^(t+1)].  All 4095 upward
    panels share the 16 Gauss-Legendre offsets (pi/2) x_q about their
    midpoints, so ``_cascade`` samples them as midpoints against offsets.
    """
    cap = CASCADE_DEPTH - 5
    x, w = np.polynomial.legendre.leggauss(_BAND_NODES)
    up = math.pi * (np.arange(1, 1 << (cap + 1)) + 0.5), np.array([0.5 * math.pi])
    low_halves = 0.5 * math.pi * 2.0 ** np.arange(-1, _BAND_CAP_LO, -1)
    lam, weights, psi = [], [], []
    for mids, halves in (up, (3.0 * low_halves, low_halves)):  # midpoints, half-widths
        mids, offsets = mids[:, None], halves[:, None] * x
        nodes = mids + offsets
        lam.append(nodes.ravel())
        weights.append(np.broadcast_to(halves[:, None] * w, nodes.shape).ravel())
        psi.append(_cascade(mids, offsets, vanishing_moments).ravel())
    return np.concatenate(lam), np.concatenate(weights), np.concatenate(psi)


@lru_cache(maxsize=None)
def _psi_bands(vanishing_moments: int) -> _PsiBands:
    # beyond ~2^CASCADE_DEPTH the truncated cascade product stops decaying,
    # so bands must stay well below that
    cap = CASCADE_DEPTH - 5
    order = np.array(list(range(cap + 1)) + list(range(-1, _BAND_CAP_LO, -1)))
    sizes = _BAND_NODES << np.maximum(order, 0)
    starts = np.cumsum(sizes) - sizes
    lam, weights, psi = _band_quadrature(vanishing_moments)
    term = weights * psi
    centers = np.log(math.pi * 2.0 ** (order + 0.5))
    u = np.log(lam) - np.repeat(centers, sizes)
    moments = np.empty((TAYLOR_TERMS, order.size))
    for k in range(TAYLOR_TERMS):
        moments[k] = np.add.reduceat(term, starts)
        term = term * u / (k + 1)
    return _PsiBands(centers, moments, cap + 1)


def spectral_k(delta, spec: WaveletSpec):
    """Scale-free integral K(delta) = int |lam|^-delta |psi_hat(lam)|^2 dlam.

    Finite and positive for delta in (-alpha, M); K(0) equals 2*pi by
    Parseval.  A scalar delta gives a float, an array of exponents an array
    of the same shape, evaluated in one pass: each band contributes
    ``exp(-delta c_t) sum_k (-delta)^k mu_{t,k}`` from its cached moments.
    K is twice the sum of every band plus a geometric tail for the bands
    above the cap, extrapolated from the top two upward bands (justified by
    the (W2) power decay).  Raises DomainError when any exponent is outside
    the convergence domain.
    """
    _check_delta(delta, spec)
    d = np.asarray(delta, dtype=np.float64)
    bands = _psi_bands(spec.vanishing_moments)
    x = -d.reshape(-1, 1)
    powers = np.ones((x.shape[0], TAYLOR_TERMS))  # (-delta)^k
    powers[:, 1:] = np.cumprod(np.repeat(x, TAYLOR_TERMS - 1, axis=1), axis=1)
    parts = np.exp(x * bands.centers) * (powers @ bands.moments)
    prev, last = parts[:, bands.n_up - 2], parts[:, bands.n_up - 1]
    tail = (prev != 0.0) & (0.0 < np.abs(last)) & (np.abs(last) < 0.95 * np.abs(prev))
    ratio = np.where(tail, last, 0.0) / np.where(tail, prev, 1.0)
    total = 2.0 * (parts.sum(axis=1) + last * ratio / (1.0 - ratio))
    return float(total[0]) if d.ndim == 0 else total.reshape(d.shape)
