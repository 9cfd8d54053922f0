"""Shared test oracles, independent of the library's vectorized code paths."""

import csv
import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import Bounds, minimize

from wavewhittle.arfima import split_memory
from wavewhittle.errors import DomainError, PanelFormatError
from wavewhittle.estimator import (
    DEGENERACY_THRESHOLD,
    Scalogram,
    _log_regression_init,
    _objective_derivatives,
    g_hat,
    objective_R,
    scalogram,
)
from wavewhittle.wavelets import (
    CASCADE_DEPTH,
    WaveletPyramid,
    WaveletSpec,
    daubechies_filters,
    psi_hat_sq,
    spectral_k,
)


def brute_force_pyramid(x, m, j_max):
    """Plain-loop valid convolution and decimation, level by level."""
    h, g = daubechies_filters(m)
    taps = 2 * m
    details = []
    a = [list(col) for col in np.atleast_2d(np.asarray(x, float).T)]
    for _ in range(j_max):
        new_details = []
        new_approx = []
        for col in a:
            s = len(col)
            nk = (s - taps) // 2 + 1
            det = []
            app = []
            for k in range(max(nk, 0)):
                acc_d = 0.0
                acc_a = 0.0
                for t in range(taps):
                    acc_d += g[t] * col[2 * k + t]
                    acc_a += h[t] * col[2 * k + t]
                det.append(acc_d)
                app.append(acc_a)
            new_details.append(det)
            new_approx.append(app)
        details.append(np.array(new_details).T)
        a = new_approx
    return details


def reference_pyramid(x, spec, j_max):
    """The sample-major pyramid that the channel-major ``dwt_pyramid``
    replaced: (n_j, p, taps) windows contracted with each filter by
    ``tensordot``, level by level; returns the (n_j, p) details."""
    h, g = spec.filters()
    approx = np.asarray(x, dtype=np.float64)
    if approx.ndim == 1:
        approx = approx[:, None]
    details = []
    for j in range(1, j_max + 1):
        windows = sliding_window_view(approx, h.size, axis=0)[::2]
        details.append(np.tensordot(windows, g, axes=([2], [0])))
        if j < j_max:
            approx = np.tensordot(windows, h, axes=([2], [0]))
    return details


def make_pyramid(details, spec=None, n_samples=0):
    spec = spec or WaveletSpec(vanishing_moments=4)
    counts = np.array([d.shape[0] for d in details], dtype=np.int64)
    return WaveletPyramid(details=[np.asarray(d, float) for d in details],
                          counts=counts, n_samples=n_samples, spec=spec)


def random_scalogram(rng, p=2, j0=1, j1=6, base=40) -> Scalogram:
    details = []
    for j in range(1, j1 + 1):
        n_j = max(base >> j, 1)
        details.append(rng.standard_normal((n_j, p)))
    return scalogram(make_pyramid(details), j0, j1)


def multistart_nelder_mead(scal: Scalogram, box):
    """Reference minimizer of R(d): derivative-free simplex searches from the
    log-regression start and four seeded jittered starts; returns (d, R(d))."""
    lo, hi = box
    p = scal.n_channels
    x_init = _log_regression_init(scal, box)
    rng = np.random.default_rng(0)
    margin = 1e-3 * (hi - lo)
    x0s = [x_init] + [
        np.clip(x_init + rng.uniform(-0.5, 0.5, size=p), lo + margin, hi - margin)
        for _ in range(4)
    ]
    best = None
    for x0 in x0s:
        res = minimize(
            lambda d: objective_R(scal, d),
            x0,
            method="Nelder-Mead",
            bounds=Bounds(np.full(p, lo), np.full(p, hi)),
            options={"xatol": 1e-5, "fatol": 1e-9, "adaptive": p > 4},
        )
        if best is None or res.fun < best.fun:
            best = res
    return np.asarray(best.x), float(best.fun)


def lbfgsb_search(scal: Scalogram, box):
    """Reference minimizer of R(d): one bounded L-BFGS-B search on the analytic
    gradient from the log-regression start; returns (d, R(d))."""
    lo, hi = box
    p = scal.n_channels
    res = minimize(
        lambda d: _objective_derivatives(scal, d)[:2],
        _log_regression_init(scal, box),
        method="L-BFGS-B",
        jac=True,
        bounds=Bounds(np.full(p, lo), np.full(p, hi)),
        options={"ftol": 1e-12, "gtol": 1e-7},
    )
    return np.asarray(res.x), float(res.fun)


@lru_cache(maxsize=None)
def _direct_band(m, t):
    """Gauss-Legendre nodes, weights and |psi_hat|^2 on band [pi 2^t, pi 2^(t+1)],
    split into pi-wide panels for t >= 0."""
    x, w = np.polynomial.legendre.leggauss(16)
    lo = math.pi * 2.0**t
    n_sub = 1 << max(t, 0)
    edges = lo + (lo / n_sub) * np.arange(n_sub + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)
    lam = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    wts = (halves[:, None] * w[None, :]).ravel()
    return lam, wts, psi_hat_sq(lam, WaveletSpec(vanishing_moments=m))


def direct_spectral_k(delta, spec):
    """Reference K(delta): per-node band sums of w * lam^-delta * |psi_hat|^2,
    one band at a time over every band t = cap..-59 (cap = CASCADE_DEPTH - 5),
    plus the geometric tail of the top two upward bands."""

    def band_value(t):
        lam, wts, psi = _direct_band(spec.vanishing_moments, t)
        return float(wts @ (lam ** (-delta) * psi))

    cap = CASCADE_DEPTH - 5
    parts = [band_value(t) for t in range(cap, -60, -1)]
    last, prev = parts[0], parts[1]
    tail = 0.0
    if prev != 0.0 and 0.0 < abs(last) < 0.95 * abs(prev):
        ratio = last / prev
        tail = last * ratio / (1.0 - ratio)
    return 2.0 * (math.fsum(parts) + tail)


def per_pair_omega(scal, d_hat, spec):
    """Reference long-run covariance: one scalar spectral_k call per pair
    (l, m), l <= m, in row-major order; returns (omega, warnings)."""
    p = len(d_hat)
    g_matrix = g_hat(scal, d_hat)
    omega = np.full((p, p), np.nan)
    warnings = {"degenerate_pairs": [], "undefined_pairs": [],
                "invalid_channels": [], "out_of_range_correlation": []}
    for ell in range(p):
        for m in range(ell, p):
            cosine = math.cos(math.pi * (d_hat[ell] - d_hat[m]) / 2.0)
            if m > ell and abs(cosine) < DEGENERACY_THRESHOLD:
                warnings["degenerate_pairs"].append((ell, m))
            if abs(cosine) < 1e-12:
                warnings["undefined_pairs"].append((ell, m))
                continue
            try:
                k_norm = spectral_k(float(d_hat[ell] + d_hat[m]), spec) / (2.0 * math.pi)
            except DomainError:
                warnings["undefined_pairs"].append((ell, m))
                continue
            omega[ell, m] = omega[m, ell] = g_matrix[ell, m] / (cosine * k_norm)
    diag = np.diagonal(omega).copy()
    for ell in range(p):
        if not diag[ell] > 0:
            warnings["invalid_channels"].append(ell)
            diag[ell] = np.nan
    for ell in range(p):
        for m in range(ell + 1, p):
            c = omega[ell, m] / math.sqrt(diag[ell] * diag[m])
            if np.isfinite(c) and abs(c) > 1.05:
                warnings["out_of_range_correlation"].append((ell, m))
    return omega, warnings


# The row-by-row read_panel that the one-call loadtxt parse must match.
def scan_panel_oracle(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV sample panel; returns (channel names, (N, p) array).

    Raises PanelFormatError with 1-based line/column on any malformed,
    missing or non-finite cell.  The header row is mandatory.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise PanelFormatError(f"cannot open panel file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError("empty panel file (header row is mandatory)", line=1)
        names = [name.strip() for name in header]
        if not names or any(not name for name in names):
            raise PanelFormatError("blank channel name in header", line=1)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise PanelFormatError(
                    f"expected {len(names)} columns, got {len(row)}", line=lineno, column=len(row)
                )
            values = []
            for colno, cell in enumerate(row, start=1):
                cell = cell.strip()
                if not cell:
                    raise PanelFormatError("missing value", line=lineno, column=colno)
                try:
                    value = float(cell)
                except ValueError:
                    raise PanelFormatError(
                        f"not a number: {cell!r}", line=lineno, column=colno
                    ) from None
                if not math.isfinite(value):
                    raise PanelFormatError("non-finite value", line=lineno, column=colno)
                values.append(value)
            rows.append(values)
    if not rows:
        raise PanelFormatError("panel has a header but no data rows", line=2)
    return names, np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# The truncated MA(inf) simulator the exact circulant embedding replaced, kept
# as the oracle for the model's cross-covariances.


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


def ma_simulate(spec, truncation=None) -> np.ndarray:
    """(N, p) draw of the ARFIMA(0, d, 0) model as a truncated MA(inf) sum.

    Sample t is sum_k psi_k eps_{t + truncation - 1 - k} over correlated
    innovations eps ~ N(0, omega), truncated at ``truncation`` lags (default
    10 N), then integrated for d >= 1/2.  This keeps only part of the variance
    near d_s = 1/2 (69.8% at d_s = 0.45, N = 512).
    """
    n = spec.n_samples
    trunc = 10 * n if truncation is None else truncation
    chol = np.linalg.cholesky(spec.omega)
    innov = np.random.default_rng(spec.seed).standard_normal((trunc + n - 1, spec.n_channels))
    innov = innov @ chol.T
    panel = np.empty((n, spec.n_channels))
    for ell, d in enumerate(spec.d):
        d_s, order = split_memory(float(d))
        series = np.convolve(innov[:, ell], frac_diff_coeffs(d_s, trunc), mode="valid")
        for _ in range(order):
            series = np.cumsum(series)
        panel[:, ell] = series
    return panel


def ma_cross_covariance(d_l: float, d_m: float, omega_lm: float, h: int, terms: int) -> float:
    """E[X_l(t+h) X_m(t)] = omega_lm sum_k psi^l_{k+h} psi^m_k (psi^m_{k-h}
    psi^l_k for h < 0) over ``terms`` MA weights, plus the integral of the
    weights' asymptote psi_k ~ k^(d-1) / Gamma(d) beyond them."""
    if h < 0:
        return ma_cross_covariance(d_m, d_l, omega_lm, -h, terms)
    psi_l = frac_diff_coeffs(d_l, terms + h)
    psi_m = frac_diff_coeffs(d_m, terms)
    partial = math.fsum(psi_l[h:] * psi_m)
    tail = 0.0
    if d_l != 0.0 and d_m != 0.0:
        exponent = d_l + d_m - 1.0
        tail = -(terms - 0.5) ** exponent / (exponent * math.gamma(d_l) * math.gamma(d_m))
    return omega_lm * (partial + tail)


# ---------------------------------------------------------------------------
# A wide panel from the benchmark's own generator, rebuilt here so that the
# tests do not import the benchmark.

WIDE_POOL_SEED = 20250808


def frac_panel(rng: np.random.Generator, d, n: int, rho: float = 0.3) -> np.ndarray:
    """(n, p) fractionally integrated noise, one memory parameter per channel:
    equicorrelated Gaussian innovations filtered by the MA weights of
    (1 - B)^-d truncated at 4n lags, via FFT."""
    d = np.asarray(d, dtype=np.float64)
    p = d.size
    corr = np.full((p, p), rho)
    np.fill_diagonal(corr, 1.0)
    lags = 4 * n
    z = rng.standard_normal((lags + n - 1, p)) @ np.linalg.cholesky(corr).T
    size = 1 << int(np.ceil(np.log2(2 * lags + n)))
    k = np.arange(1, lags)
    out = np.empty((n, p))
    for ell in range(p):
        weights = np.concatenate(([1.0], np.cumprod((k - 1 + d[ell]) / k)))
        full = np.fft.irfft(np.fft.rfft(z[:, ell], size) * np.fft.rfft(weights, size), size)
        out[:, ell] = full[lags - 1 : lags - 1 + n]
    return out


def wide_p6_variant(seed: int, k: int = 1) -> np.ndarray:
    """The seed's variant of wide pool panel p6-k (p = 6, N = 16384): the pool
    panel with permuted channels and per-channel offsets, as written to CSV.

    The variant rng first draws a permutation and offsets for each of the six
    p = 20 pool panels and for the p = 6 panels before k.
    """
    rng = np.random.default_rng([seed, 7])
    for p in [20] * 6 + [6] * k:
        rng.permutation(p)
        rng.uniform(-5.0, 5.0, p)
    perm = rng.permutation(6)
    offsets = rng.uniform(-5.0, 5.0, 6)
    pool_rng = np.random.default_rng([WIDE_POOL_SEED, 6, k])
    d = np.sort(pool_rng.uniform(-0.1, 0.45, 6))
    # the CSV's %.17g cells read back as these same doubles
    return frac_panel(pool_rng, d, 16384)[:, perm] + offsets
