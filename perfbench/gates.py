"""Correctness gates: each returns a list of failure messages (empty = pass).

The gates compare a run's outputs with values recorded in ``reference.json``
by ``record_reference.py``.  Their tolerances are fixed here and are wide
enough for any change that keeps the answers right (a different optimizer
reaching the same minimum, or a different exact simulator), and narrow
enough that shifting every estimate by 0.1 fails.
"""

from __future__ import annotations

import math

import numpy as np

# Monte-Carlo gates.  The estimator has a documented finite-sample bias
# (criterion 1 pins d bias at -0.033 for N=512), so the bias of a run is
# compared with the recorded reference bias, not with zero: it must lie
# within BIAS_Z combined standard errors of it, plus BIAS_SLACK for a
# simulator that matches the model slightly better or worse.
BIAS_Z = 5.0
BIAS_SLACK = 0.005
# RMSE (of d and of every omega entry) must match the reference within a
# relative RMSE_REL_TOL plus RMSE_Z sampling standard errors, 1/sqrt(2n).
RMSE_REL_TOL = 0.15
RMSE_Z = 4.0

# Wide-panel gates.  d_hat from the CLI must match the reference fit of the
# same panel within WIDE_D_TOL in every channel, and the objective at d_hat
# must not exceed the reference minimum by more than WIDE_R_EPS.
WIDE_D_TOL = 2e-3
WIDE_R_EPS = 1e-6


def _moments(values: np.ndarray, truth: float) -> tuple[float, float, float]:
    bias = float(values.mean() - truth)
    std = float(values.std())
    return bias, std, math.hypot(bias, std)


def _rmse_check(name: str, rmse: float, ref_rmse: float, n: int) -> list[str]:
    tol = RMSE_REL_TOL + RMSE_Z / math.sqrt(2.0 * n)
    if abs(rmse / ref_rmse - 1.0) > tol:
        return [f"{name}: rmse {rmse:.5f} vs reference {ref_rmse:.5f} "
                f"(relative tolerance {tol:.3f}, n={n})"]
    return []


def mc_gate(d_hat: np.ndarray, omega_hat: np.ndarray, d_true, omega_true, ref: dict) -> list[str]:
    """Gate pooled Monte-Carlo estimates of one scenario against its reference.

    ``d_hat`` is (n, p) and ``omega_hat`` is (n, p, p) over the kept
    replications; ``ref`` holds the reference ``n``, per-channel ``d_bias``,
    ``d_std`` and ``d_rmse``, and ``omega_rmse`` keyed ``"l_m"`` (1-based).
    """
    d_hat = np.asarray(d_hat, dtype=np.float64)
    omega_hat = np.asarray(omega_hat, dtype=np.float64)
    n = d_hat.shape[0]
    if n < 2:
        return [f"only {n} kept replications; gate needs at least 2"]
    failures = []
    for ell, truth in enumerate(np.asarray(d_true, dtype=np.float64)):
        bias, std, rmse = _moments(d_hat[:, ell], truth)
        se = math.sqrt(std**2 / n + ref["d_std"][ell] ** 2 / ref["n"])
        allowed = BIAS_Z * se + BIAS_SLACK
        if abs(bias - ref["d_bias"][ell]) > allowed:
            failures.append(f"d_{ell + 1}: bias {bias:+.5f} vs reference "
                            f"{ref['d_bias'][ell]:+.5f} (allowed {allowed:.5f}, n={n})")
        failures += _rmse_check(f"d_{ell + 1}", rmse, ref["d_rmse"][ell], n)
    omega_true = np.asarray(omega_true, dtype=np.float64)
    p = omega_true.shape[0]
    for ell in range(p):
        for m in range(ell, p):
            values = omega_hat[:, ell, m]
            if not np.all(np.isfinite(values)):
                failures.append(f"omega_{ell + 1}_{m + 1}: non-finite estimates")
                continue
            _, _, rmse = _moments(values, omega_true[ell, m])
            failures += _rmse_check(f"omega_{ell + 1}_{m + 1}", rmse,
                                    ref["omega_rmse"][f"{ell + 1}_{m + 1}"], n)
    return failures


def wide_gate(d_hat, objective_at_d_hat: float, ref_d, ref_objective: float) -> list[str]:
    """Gate one wide-panel fit against the reference fit of the same panel."""
    d_hat = np.asarray(d_hat, dtype=np.float64)
    ref_d = np.asarray(ref_d, dtype=np.float64)
    if d_hat.shape != ref_d.shape:
        return [f"d_hat has shape {d_hat.shape}, reference {ref_d.shape}"]
    failures = []
    worst = float(np.max(np.abs(d_hat - ref_d)))
    if not worst <= WIDE_D_TOL:
        failures.append(f"d_hat differs from reference by {worst:.2e} (tolerance {WIDE_D_TOL:g})")
    if not objective_at_d_hat <= ref_objective + WIDE_R_EPS:
        failures.append(f"objective {objective_at_d_hat:.10f} exceeds reference "
                        f"{ref_objective:.10f} + {WIDE_R_EPS:g}")
    return failures
