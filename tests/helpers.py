"""Shared test oracles, independent of the library's vectorized code paths."""

import csv
import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import Bounds, minimize

from wavewhittle import wavelets
from wavewhittle.arfima import split_memory
from wavewhittle.errors import DomainError, PanelFormatError
from wavewhittle.estimator import (
    DEGENERACY_THRESHOLD,
    LOG2,
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


def make_pyramid(details):
    counts = np.array([d.shape[0] for d in details], dtype=np.int64)
    return WaveletPyramid(details=[np.asarray(d, float) for d in details], counts=counts)


def random_scalogram(rng, p=2, j0=1, j1=6, base=40) -> Scalogram:
    details = []
    for j in range(1, j1 + 1):
        n_j = max(base >> j, 1)
        details.append(rng.standard_normal((n_j, p)))
    return scalogram(make_pyramid(details), j0, j1)


def reference_g_weighted(scal: Scalogram, d, center: float, weights=None) -> np.ndarray:
    """(1/n) sum_j w_j Lam_{j-center}(d)^-1 I(j) Lam_{j-center}(d)^-1, every
    constant rebuilt per call; ``weights`` defaults to w_j = 1, and a
    (k, n_scales) array gives the k weighted sums as a (k, p, p) array."""
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    js = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64)
    factors = 2.0 ** (-np.outer(js - center, d))
    scaled = factors[:, :, None] * scal.matrices * factors[:, None, :]
    if weights is None:
        weights = np.ones_like(js)
    p = d.size
    total = weights @ scaled.reshape(js.size, p * p)
    return total.reshape(np.shape(weights)[:-1] + (p, p)) / scal.n_coefficients


def reference_objective_derivatives(scal: Scalogram, d):
    """R(d), its gradient and its Hessian by the formula that the hoisted
    ``_objective_derivatives`` replaced: the centred scales, the weight stack
    and the weighted sums rebuilt on every call, and the Hessian as
    A.Q + diag(AQ) - B.B^T - A.(HAH) (see that function's docstring)."""
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    center = scal.mean_scale
    c = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64) - center
    g_bar, h, q = reference_g_weighted(scal, d, center, np.stack([np.ones_like(c), c, c * c]))
    p = d.size
    sign, logdet = np.linalg.slogdet(g_bar)
    if sign <= 0 or not np.isfinite(logdet):
        return math.inf, np.zeros(p), np.zeros((p, p))
    a = np.linalg.inv(g_bar)
    b = h @ a
    aq = a * q
    hess = aq + np.diag(aq.sum(axis=1)) - b * b.T - a * (b @ h)
    return logdet + p - 1.0, -2.0 * LOG2 * np.diagonal(b), 2.0 * LOG2**2 * hess


def polyfit_start(scal: Scalogram, box):
    """The count-weighted start by one ``np.polyfit`` per channel: the slope
    of log2(I_ll(j)/n_j) on j over the finite scales, weighted by n_j
    (polyfit's ``w`` multiplies residuals, hence sqrt(n_j)), halved; 0.25
    with fewer than two finite scales."""
    js = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64)
    init = np.empty(scal.n_channels)
    for ell in range(scal.n_channels):
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.log2(np.diagonal(scal.matrices, axis1=1, axis2=2)[:, ell] / scal.counts)
        good = np.isfinite(y)
        if good.sum() >= 2:
            w = np.sqrt(scal.counts[good].astype(np.float64))
            init[ell] = 0.5 * np.polyfit(js[good], y[good], 1, w=w)[0]
        else:
            init[ell] = 0.25
    margin = 1e-3 * (box[1] - box[0])
    return np.clip(init, box[0] + margin, box[1] - margin)


def unweighted_start(scal: Scalogram, box):
    """The unweighted closed-form start that the count-weighted one replaced:
    the least-squares slope of log2(I_ll(j)/n_j) on j over the finite
    scales, every scale weighted alike, halved; 0.25 with fewer than two
    finite scales."""
    js = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64)[:, None]
    variances = np.diagonal(scal.matrices, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log2(variances / scal.counts[:, None])
        good = np.isfinite(y)
        n = good.sum(axis=0)
        dx = np.where(good, js - (good * js).sum(axis=0) / n, 0.0)
        dy = np.where(good, y - np.where(good, y, 0.0).sum(axis=0) / n, 0.0)
        slope = (dx * dy).sum(axis=0) / (dx * dx).sum(axis=0)
    init = np.where(n >= 2, 0.5 * slope, 0.25)
    margin = 1e-3 * (box[1] - box[0])
    return np.clip(init, box[0] + margin, box[1] - margin)


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


def factor_psi_hat_sq(lam, m):
    """|psi_hat|^2 as the cascade product taken factor by factor: per level
    one sin and one cos of lam/2^(k+1), and the cos^2 factors multiplied in
    one at a time; reads the module's CASCADE_DEPTH at call time."""
    coeffs = [math.comb(m - 1 + k, k) for k in range(m)]

    def halfband(y):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * y + c
        return acc

    w = np.atleast_1d(np.asarray(lam, dtype=np.float64)) / 4.0
    vanishing = np.sin(w) ** 2
    out = halfband(np.cos(w) ** 2)
    for _ in range(2, wavelets.CASCADE_DEPTH + 1):
        w = w / 2.0
        vanishing = vanishing * np.cos(w) ** 2
        out = out * halfband(np.sin(w) ** 2)
    return vanishing**m * out


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


# The row-by-row read_panel that the vectorized parse of plain panels must match.
def scan_panel_oracle(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV sample panel; returns (channel names, (N, p) array).

    Raises PanelFormatError with 1-based line/column on any malformed,
    missing or non-finite cell, and on a blank channel name or one holding a
    carriage return.  The header row is mandatory.
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
        for column, name in enumerate(names, start=1):
            if "\r" in name:
                raise PanelFormatError("carriage return in channel name", line=1, column=column)
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
