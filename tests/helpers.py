"""Shared test oracles, independent of the library's vectorized code paths."""

import numpy as np
from scipy.optimize import Bounds, minimize

from wavewhittle.estimator import Scalogram, _log_regression_init, objective_R, scalogram
from wavewhittle.wavelets import WaveletPyramid, WaveletSpec, daubechies_filters


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
