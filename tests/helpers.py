"""Shared test oracles, independent of the library's vectorized code paths."""

import csv
import math
from functools import lru_cache

import numpy as np
from scipy.optimize import Bounds, minimize

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
