"""Multivariate wavelet Whittle estimation of memory parameters and long-run covariance.

Pipeline: detail pyramid -> scalogram -> profile objective minimized over the
memory vector d -> phase-corrected long-run covariance.  Works for any p >= 1;
p = 1 reduces to the univariate wavelet Whittle estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, minimize

from .errors import ConfigError, LikelihoodError, ScaleRangeError
from .wavelets import (
    WaveletPyramid,
    WaveletSpec,
    coefficient_counts,
    dwt_pyramid,
    in_k_domain,
    max_feasible_level,
    spectral_k,
)

LOG2 = math.log(2.0)
# Pairs with |cos(pi (d_l - d_m) / 2)| below this are flagged as degenerate.
DEGENERACY_THRESHOLD = 0.1
# L-BFGS-B stopping tolerances.  Tighter values (ftol 1e-15, gtol 1e-9) make
# the line search stop abnormally on some panels, which reads as non-convergence.
SOLVER_FTOL = 1e-12
SOLVER_GTOL = 1e-7


@dataclass
class Scalogram:
    """Per-scale sums of outer products I(j) = sum_k W_{j,k} W_{j,k}^T.

    Kept unnormalized (no division by n_j).  ``matrices[i]`` is the p x p
    matrix for scale j = j0 + i.
    """

    matrices: np.ndarray
    counts: np.ndarray
    j0: int
    j1: int

    @property
    def n_channels(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_coefficients(self) -> int:
        return int(self.counts.sum())

    @property
    def mean_scale(self) -> float:
        """Count-weighted mean scale <J> = (1/n) sum_j j n_j."""
        js = np.arange(self.j0, self.j1 + 1)
        return float((js * self.counts).sum() / self.counts.sum())

    def channel(self, ell: int) -> "Scalogram":
        """Single-channel view, for univariate estimation of channel ell."""
        return Scalogram(
            matrices=self.matrices[:, ell : ell + 1, ell : ell + 1],
            counts=self.counts,
            j0=self.j0,
            j1=self.j1,
        )


def scalogram(pyramid: WaveletPyramid, j0: int, j1: int) -> Scalogram:
    """Sum the per-scale outer products of the pyramid over scales j0..j1."""
    if not 1 <= j0 <= j1 <= pyramid.j_max:
        raise ScaleRangeError(
            f"scales {j0}..{j1} not covered by pyramid (1..{pyramid.j_max})"
        )
    if pyramid.counts[j1 - 1] < 1:
        raise ScaleRangeError(f"no coefficients at requested coarsest scale {j1}")
    mats = []
    for j in range(j0, j1 + 1):
        w = pyramid.level(j)
        mats.append(w.T @ w)
    return Scalogram(
        matrices=np.array(mats),
        counts=pyramid.counts[j0 - 1 : j1].copy(),
        j0=j0,
        j1=j1,
    )


def _g_weighted(scal: Scalogram, d: np.ndarray, center: float, weights=None) -> np.ndarray:
    """(1/n) sum_j w_j Lam_{j-center}(d)^-1 I(j) Lam_{j-center}(d)^-1.

    ``weights`` defaults to w_j = 1; a (k, n_scales) array gives the k
    weighted sums at once, stacked as a (k, p, p) array.
    """
    js = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64)
    factors = 2.0 ** (-np.outer(js - center, d))
    scaled = factors[:, :, None] * scal.matrices * factors[:, None, :]
    if weights is None:
        weights = np.ones_like(js)
    p = d.size
    total = weights @ scaled.reshape(js.size, p * p)
    return total.reshape(np.shape(weights)[:-1] + (p, p)) / scal.n_coefficients


def g_hat(scal: Scalogram, d) -> np.ndarray:
    """Profile covariance G_hat(d), entrywise (1/n) sum_j 2^-j(d_l+d_m) I_lm(j)."""
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    return _g_weighted(scal, d, 0.0)


def whittle_likelihood(scal: Scalogram, g_matrix: np.ndarray, d) -> float:
    """Wavelet Whittle criterion L(G, d) in its trace form.

    Equals log det G + 2 log(2) <J> sum(d) + trace(G^-1 G_hat(d)); raises
    LikelihoodError when G is singular or not positive definite.
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    g_matrix = np.asarray(g_matrix, dtype=np.float64)
    sign, logdet = np.linalg.slogdet(g_matrix)
    if sign <= 0 or not np.isfinite(logdet):
        raise LikelihoodError("criterion needs a positive definite G")
    try:
        trace_term = float(np.trace(np.linalg.solve(g_matrix, g_hat(scal, d))))
    except np.linalg.LinAlgError as exc:
        raise LikelihoodError("singular G in criterion") from exc
    return logdet + 2.0 * LOG2 * scal.mean_scale * float(d.sum()) + trace_term


def objective_R(scal: Scalogram, d) -> float:
    """Reduced objective R(d) = L(G_hat(d), d) - 1, computed in shifted form.

    Evaluated as log det of the <J>-centred weighted scalogram average plus
    (p - 1), which keeps the exponents small; returns +inf when the profile
    covariance is singular so minimizers treat the point as infeasible.
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    return _profile_logdet(_g_weighted(scal, d, scal.mean_scale)) + scal.n_channels - 1.0


def _profile_logdet(g_bar: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(g_bar)
    if sign <= 0 or not np.isfinite(logdet):
        return math.inf
    return float(logdet)


def _objective_and_gradient(scal: Scalogram, d: np.ndarray) -> tuple[float, np.ndarray]:
    """R(d) and its gradient dR/dd_l = -2 log(2) [G_bar^-1 H]_ll.

    H = (1/n) sum_j (j - <J>) Lam^-1 I(j) Lam^-1 is the scale-weighted
    companion of G_bar.  At an infeasible point (singular G_bar) the value is
    +inf and the gradient zero.
    """
    center = scal.mean_scale
    js = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64)
    g_bar, h = _g_weighted(scal, d, center, np.stack([np.ones_like(js), js - center]))
    logdet = _profile_logdet(g_bar)
    if not math.isfinite(logdet):
        return math.inf, np.zeros_like(d)
    grad = -2.0 * LOG2 * np.diagonal(np.linalg.solve(g_bar, h))
    return logdet + scal.n_channels - 1.0, grad


@dataclass
class EstimationConfig:
    """Scale range, search box and iteration cap for the Whittle minimization.

    ``j1 = None`` uses the deepest scale with at least p coefficients.
    The search box defaults to (-2, M]; its upper end is resolved against
    the wavelet spec at estimation time when left as None.  A fit that hits
    ``max_iterations`` (None: the solver's own cap) reports non-convergence.
    """

    j0: int = 1
    j1: int | None = None
    box_low: float = -2.0
    box_high: float | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if self.j0 < 1:
            raise ConfigError("j0 must be at least 1")
        if self.j1 is not None and self.j1 <= self.j0:
            raise ConfigError("j1 must exceed j0")

    def resolved_box(self, spec: WaveletSpec) -> tuple[float, float]:
        high = self.box_high if self.box_high is not None else float(spec.vanishing_moments)
        if not high > self.box_low:
            raise ConfigError("search box is empty")
        return self.box_low, high


def rate_rule_j0(n_samples: int, beta: float) -> int:
    """Finest scale from the optimal-rate rule 2^j0 = N**(1/(1+2*beta))."""
    if beta <= 0:
        raise ConfigError("beta must be positive")
    return max(1, round(math.log2(n_samples) / (1.0 + 2.0 * beta)))


def _log_regression_init(scal: Scalogram, box: tuple[float, float]) -> np.ndarray:
    """Per-channel slope of log2(I_ll(j)/n_j) on j, halved."""
    js = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64)
    init = np.empty(scal.n_channels)
    for ell in range(scal.n_channels):
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.log2(np.diagonal(scal.matrices, axis1=1, axis2=2)[:, ell] / scal.counts)
        good = np.isfinite(y)
        if good.sum() >= 2:
            slope = np.polyfit(js[good], y[good], 1)[0]
            init[ell] = 0.5 * slope
        else:
            init[ell] = 0.25
    margin = 1e-3 * (box[1] - box[0])
    return np.clip(init, box[0] + margin, box[1] - margin)


def estimate_d(scal: Scalogram, config: EstimationConfig, spec: WaveletSpec):
    """Minimize R(d) over the search box; returns (d_hat, R(d_hat), diagnostics).

    One bounded L-BFGS-B search on the analytic gradient, started from the
    per-channel log-regression of the scalogram diagonals; deterministic.
    A fit whose final objective is not finite is reported as not converged.
    """
    p = scal.n_channels
    if scal.n_coefficients < p:
        raise ConfigError(
            f"only {scal.n_coefficients} coefficients for {p} channels; estimation refused"
        )
    if scal.j1 == scal.j0:
        raise ConfigError("single-scale objective is flat in d; need j0 < j1")
    lo, hi = config.resolved_box(spec)
    options = {"ftol": SOLVER_FTOL, "gtol": SOLVER_GTOL}
    if config.max_iterations is not None:
        options["maxiter"] = config.max_iterations
    res = minimize(
        lambda d: _objective_and_gradient(scal, d),
        _log_regression_init(scal, (lo, hi)),
        method="L-BFGS-B",
        jac=True,
        bounds=Bounds(np.full(p, lo), np.full(p, hi)),
        options=options,
    )
    value = float(res.fun)
    diagnostics = {
        "method": "l-bfgs-b",
        "converged": bool(res.success) and math.isfinite(value),
        "function_evaluations": int(res.nfev),
        "iterations": int(res.nit),
    }
    return np.asarray(res.x, dtype=np.float64), value, diagnostics


def estimate_omega(
    scal: Scalogram, d_hat, spec: WaveletSpec, config: EstimationConfig | None = None
):
    """Phase-corrected long-run covariance from the profile covariance at d_hat.

    Omega_hat[l, m] = G_hat[l, m] / (cos(pi (d_l - d_m)/2) * K(d_l + d_m)/2pi);
    the 2*pi matches the model normalization under which unit white noise has
    unit wavelet variance.  Pairs with |cos| below the degeneracy threshold
    are flagged; an exactly vanishing cosine (or a K-domain violation) marks
    the pair undefined (NaN).  Returns (omega, correlation, g_matrix, warnings).
    ``config`` is not read; it stays in the signature for existing callers.
    """
    d_hat = np.atleast_1d(np.asarray(d_hat, dtype=np.float64))
    p = d_hat.size
    g_matrix = g_hat(scal, d_hat)
    rows, cols = np.triu_indices(p)
    upper = rows < cols
    cosine = np.cos(np.pi * (d_hat[rows] - d_hat[cols]) / 2.0)
    delta = d_hat[rows] + d_hat[cols]
    # the cosine vanishes where d_l - d_m is congruent to 1 mod 2
    defined = ~(np.abs(cosine) < 1e-12) & in_k_domain(delta, spec)
    k_norm = spectral_k(delta[defined], spec) / (2.0 * math.pi)
    r, c = rows[defined], cols[defined]
    omega = np.full((p, p), np.nan)
    omega[r, c] = omega[c, r] = g_matrix[r, c] / (cosine[defined] * k_norm)

    diag = np.diagonal(omega).copy()
    invalid = ~(diag > 0)
    diag[invalid] = np.nan
    scale = np.sqrt(diag)
    with np.errstate(invalid="ignore", divide="ignore"):
        correlation = omega / np.outer(scale, scale)
    corr = correlation[rows, cols]
    out_of_range = upper & np.isfinite(corr) & (np.abs(corr) > 1.05)

    def pairs(mask: np.ndarray) -> list[tuple[int, int]]:
        return list(zip(rows[mask].tolist(), cols[mask].tolist()))

    warnings = {
        "degenerate_pairs": pairs(upper & (np.abs(cosine) < DEGENERACY_THRESHOLD)),
        "undefined_pairs": pairs(~defined),
        "invalid_channels": np.flatnonzero(invalid).tolist(),
        "out_of_range_correlation": pairs(out_of_range),
    }
    return omega, correlation, g_matrix, warnings


@dataclass
class MwwEstimate:
    """Joint estimate of d, the profile covariance, and the long-run covariance."""

    d_hat: np.ndarray
    g_matrix: np.ndarray
    omega: np.ndarray
    correlation: np.ndarray
    objective_value: float
    j0: int
    j1: int
    counts: np.ndarray
    diagnostics: dict
    warnings: dict


def resolve_scales(
    n_samples: int, spec: WaveletSpec, config: EstimationConfig, n_channels: int = 1
) -> tuple[int, int]:
    """Clamp the configured scale range to what the sample length supports.

    The requested coarsest scale is reduced to the deepest level holding at
    least one coefficient (defaulting to the deepest level with at least p
    when unset); an empty or single-scale result raises ScaleRangeError.
    """
    feasible = max_feasible_level(n_samples, spec)
    if config.j1 is None:
        counts = coefficient_counts(n_samples, spec, feasible)
        deep_enough = np.nonzero(counts >= max(1, n_channels))[0]
        j1 = int(deep_enough[-1]) + 1 if deep_enough.size else feasible
    else:
        j1 = min(config.j1, feasible)
    if config.j0 > feasible:
        raise ScaleRangeError(
            f"finest scale j0={config.j0} infeasible for N={n_samples} (max {feasible})"
        )
    if j1 <= config.j0:
        raise ScaleRangeError(
            f"scale range j0={config.j0}, j1={j1} leaves fewer than two scales"
        )
    return config.j0, j1


def estimate_panel(panel: np.ndarray, spec: WaveletSpec, config: EstimationConfig) -> MwwEstimate:
    """Full estimation pipeline on an (N, p) sample panel."""
    x = np.asarray(panel, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    j0, j1 = resolve_scales(x.shape[0], spec, config, x.shape[1])
    pyramid = dwt_pyramid(x, spec, j1)
    scal = scalogram(pyramid, j0, j1)
    d_hat, value, diagnostics = estimate_d(scal, config, spec)
    omega, correlation, g_matrix, warnings = estimate_omega(scal, d_hat, spec)
    if config.j1 is not None and j1 != config.j1:
        diagnostics["requested_j1"] = config.j1
    return MwwEstimate(
        d_hat=d_hat,
        g_matrix=g_matrix,
        omega=omega,
        correlation=correlation,
        objective_value=value,
        j0=j0,
        j1=j1,
        counts=scal.counts,
        diagnostics=diagnostics,
        warnings=warnings,
    )


def estimate_univariate_each(
    panel: np.ndarray, spec: WaveletSpec, config: EstimationConfig
) -> tuple[np.ndarray, list[dict]]:
    """Estimate d channel by channel with p = 1 runs of the same pipeline."""
    x = np.asarray(panel, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    j0, j1 = resolve_scales(x.shape[0], spec, config, 1)
    pyramid = dwt_pyramid(x, spec, j1)
    scal = scalogram(pyramid, j0, j1)
    d_hats = np.empty(x.shape[1])
    diags = []
    for ell in range(x.shape[1]):
        d_ell, _, diag = estimate_d(scal.channel(ell), config, spec)
        d_hats[ell] = d_ell[0]
        diags.append(diag)
    return d_hats, diags
