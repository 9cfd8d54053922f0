"""Multivariate wavelet Whittle estimation of memory parameters and long-run covariance.

Pipeline: detail pyramid -> scalogram -> profile objective minimized over the
memory vector d -> phase-corrected long-run covariance.  Works for any p >= 1;
p = 1 reduces to the univariate wavelet Whittle estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, LikelihoodError, ScaleRangeError
from .wavelets import (
    WaveletPyramid,
    WaveletSpec,
    _freeze,
    coefficient_counts,
    dwt_pyramid,
    in_k_domain,
    max_feasible_level,
    spectral_k,
)

LOG2 = math.log(2.0)
# Pairs with |cos(pi (d_l - d_m) / 2)| below this are flagged as degenerate.
DEGENERACY_THRESHOLD = 0.1
# A channel whose wavelet coefficients have an RMS at most this times its own
# largest |x| is flagged as zero: a constant, or a polynomial the wavelet
# annihilates, leaves ~1e-16 to 2e-14 of rounding for M = 1..10.
ZERO_CHANNEL_RTOL = 1e-12
# The search box for d is (BOX_LOW, M].
BOX_LOW = -2.0
# Projected Newton: iteration cap, and the stopping rule.  A fit has converged
# once its projected step is at most STEP_TOL in every coordinate, or when no
# step lowers R and either the projected gradient is at most GRAD_TOL or the
# free Hessian block is positive definite with a Newton decrement
# g^T H^-1 g / 2 of at most DECREMENT_TOL * max(1, |R|): the most any step
# could still gain is then below what R resolves in double precision (Boyd &
# Vandenberghe 2004, sec. 9.5.1).  A 1e-9 step tolerance stalls on the ~6e-9
# round-off floor of the gradient.
NEWTON_MAX_ITERATIONS = 50
STEP_TOL = 1e-8
GRAD_TOL = 1e-7
DECREMENT_TOL = 8 * np.finfo(np.float64).eps
# Backtracking accepts a step once R falls by this fraction of the decrease
# the gradient predicts.
ARMIJO = 1e-4


@dataclass
class Scalogram:
    """Per-scale sums of outer products I(j) = sum_k W_{j,k} W_{j,k}^T.

    Kept unnormalized (no division by n_j).  ``matrices[i]`` is the p x p
    matrix for scale j = j0 + i.  Treated as immutable: the derived
    quantities below are computed once, on first use.
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

    @cached_property
    def _geometry(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """The constants of its scale range and counts (``_scale_terms``)."""
        return _scale_terms(self.j0, self.j1, tuple(self.counts.tolist()))

    @property
    def mean_scale(self) -> float:
        """Count-weighted mean scale <J> = (1/n) sum_j j n_j."""
        return self._geometry[0]

    @cached_property
    def _centred_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The constants of R and its derivatives: the read-only centred
        scales c_j = j - <J> as a (J, 1) column and (3, J) weights 1, c_j and
        c_j^2 divided by n, and the (J, p^2) view of ``matrices``."""
        _, c, weights, _ = self._geometry
        return c, weights, self.matrices.reshape(c.size, -1)


@lru_cache(maxsize=32)
def _scale_terms(j0: int, j1: int, counts: tuple) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """What a scalogram's scales j0..j1 and counts n_j fix, computed once per
    geometry and read-only: <J>, the centred scales c_j = j - <J> as a (J, 1)
    column, the (3, J) weights 1, c_j and c_j^2 divided by n, and the
    regression weights n_j c_j / sum n_j c_j^2 of ``_log_regression_init``."""
    n_j = np.array(counts)
    mean = float((np.arange(j0, j1 + 1) * n_j).sum() / n_j.sum())
    c = np.arange(j0, j1 + 1, dtype=np.float64) - mean
    weights = np.stack([np.ones_like(c), c, c * c]) / int(n_j.sum())
    regression = n_j * c
    with np.errstate(divide="ignore", invalid="ignore"):  # a single scale has none
        regression /= (regression * c).sum()
    return mean, _freeze(c[:, None]), _freeze(weights), _freeze(regression)


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


def g_hat(scal: Scalogram, d) -> np.ndarray:
    """Profile covariance G_hat(d), entrywise (1/n) sum_j 2^-j(d_l+d_m) I_lm(j)."""
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    factors = np.exp2(-np.arange(scal.j0, scal.j1 + 1)[:, None] * d)
    scaled = factors[:, :, None] * scal.matrices * factors[:, None, :]
    return scaled.sum(axis=0) / scal.n_coefficients


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
    return _profile_logdet(_centred_sums(scal, d)[0]) + scal.n_channels - 1.0


def _profile_logdet(g_bar: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(g_bar)
    if sign <= 0 or not np.isfinite(logdet):
        return math.inf
    return float(logdet)


def _centred_sums(scal: Scalogram, d: np.ndarray) -> np.ndarray:
    """G_bar, H and Q at d as a (3, p, p) array: the sums over scales of
    Lam_{j-<J>}(d)^-1 I(j) Lam_{j-<J>}(d)^-1 / n with the weights 1, c_j and
    c_j^2 (``Scalogram._centred_terms``)."""
    c, weights, flat = scal._centred_terms
    factors = np.exp2(c * -d)
    p = d.size
    scaled = (factors[:, :, None] * factors[:, None, :]).reshape(c.size, p * p) * flat
    return (weights @ scaled).reshape(3, p, p)


def _objective_derivatives(scal: Scalogram, d: np.ndarray):
    """R(d), its gradient and its Hessian.

    With c_j = j - <J>, the weighted sums G_bar, H and Q of
    Lam^-1 I(j) Lam^-1 take the weights 1, c_j and c_j^2.  With A = G_bar^-1
    and B = H A:
        dR/dd_k = -2 log(2) B_kk
        d2R/dd_k dd_q = 2 log(2)^2 [A_kq Q_kq + delta_kq (AQ)_kk
                                    - B_kq B_qk - A_kq (HAH)_kq].
    At an infeasible point (singular G_bar) the value is +inf and the
    gradient and Hessian are zero.
    """
    g_bar, h, q = _centred_sums(scal, d)
    p = d.size
    logdet = _profile_logdet(g_bar)
    if not math.isfinite(logdet):
        return math.inf, np.zeros(p), np.zeros((p, p))
    a = np.linalg.inv(g_bar)
    b = h @ a
    hess = a * q
    hess.ravel()[:: p + 1] += hess.sum(axis=1)
    hess -= b * b.T
    hess -= a * (b @ h)
    return logdet + p - 1.0, -2.0 * LOG2 * b.diagonal(), 2.0 * LOG2**2 * hess


@dataclass(frozen=True)
class EstimationConfig:
    """Scale range for the Whittle minimization; immutable.

    ``j1 = None`` uses the deepest scale with at least p coefficients.
    """

    j0: int = 1
    j1: int | None = None

    def __post_init__(self):
        if self.j0 < 1:
            raise ConfigError("j0 must be at least 1")
        if self.j1 is not None and self.j1 <= self.j0:
            raise ConfigError("j1 must exceed j0")


def search_box(spec: WaveletSpec) -> tuple[float, float]:
    """The box (BOX_LOW, M] that d is searched in."""
    return BOX_LOW, float(spec.vanishing_moments)


def rate_rule_j0(n_samples: int, beta: float) -> int:
    """Finest scale from the optimal-rate rule 2^j0 = N**(1/(1+2*beta))."""
    if beta <= 0:
        raise ConfigError("beta must be positive")
    return max(1, round(math.log2(n_samples) / (1.0 + 2.0 * beta)))


def _log_regression_init(scal: Scalogram, box: tuple[float, float]) -> np.ndarray:
    """Per-channel count-weighted least-squares slope of
    y_jl = log2(I_ll(j)/n_j) on j, halved, in closed form over every channel
    at once: sum_j n_j c_j y_jl / sum_j n_j c_j^2 with the centred scales c_j.

    n_j is, up to a constant, the inverse variance of y_jl, so this is the
    weighted log-regression of Veitch & Abry (1999, IEEE Trans. Inf. Theory
    45).  A channel with non-finite log-variances is fit on its finite ones
    with the same weights; one with fewer than two starts at 0.25.
    """
    variances = np.diagonal(scal.matrices, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log2(variances / scal.counts[:, None])
    good = np.isfinite(y)
    n = good.sum(axis=0)
    if good.all():
        slope = scal._geometry[3] @ y
    else:
        js = np.arange(scal.j0, scal.j1 + 1, dtype=np.float64)[:, None]
        w = good * scal.counts[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(good, js - (w * js).sum(axis=0) / w.sum(axis=0), 0.0)
            dy = np.where(good, y - (w * np.where(good, y, 0.0)).sum(axis=0) / w.sum(axis=0), 0.0)
            slope = (w * dx * dy).sum(axis=0) / (w * dx * dx).sum(axis=0)
    init = np.where(n >= 2, 0.5 * slope, 0.25)
    margin = 1e-3 * (box[1] - box[0])
    return np.clip(init, box[0] + margin, box[1] - margin)


def estimate_d(scal: Scalogram, config: EstimationConfig, spec: WaveletSpec):
    """Minimize R(d) over the search box; returns (d_hat, R(d_hat), diagnostics).

    One damped projected Newton search (see ``_projected_newton``) started
    from the per-channel log-regression of the scalogram diagonals;
    deterministic.  ``config`` is not read: its scale range is already that
    of ``scal``.
    """
    p = scal.n_channels
    if scal.n_coefficients < p:
        raise ConfigError(
            f"only {scal.n_coefficients} coefficients for {p} channels; estimation refused"
        )
    return _projected_newton(scal, spec)


def _projected_newton(scal: Scalogram, spec: WaveletSpec):
    """Damped projected Newton search for the minimum of R on the box
    (Bertsekas 1982, SIAM J. Control Optim. 20).

    Coordinates at a bound whose gradient points out of the box are held
    there: they become identity rows and columns of the Hessian, so that the
    one solve gives the free coordinates the Newton step of their Hessian
    block and the held ones the gradient step.  When that block is not
    positive definite, or no step along the Newton direction lowers R
    enough, the search takes a backtracked gradient step instead.  A fit
    that hits the iteration cap, starts at a singular G_bar or can lower R
    no further with a projected gradient above GRAD_TOL and a Newton
    decrement above round-off (DECREMENT_TOL) is reported as not converged.
    ``active_bounds`` lists the coordinates held in the last iteration.
    """
    if scal.j1 == scal.j0:
        raise ConfigError("single-scale objective is flat in d; need j0 < j1")
    lo, hi = search_box(spec)
    x = _log_regression_init(scal, (lo, hi))
    value, grad, hess = _objective_derivatives(scal, x)
    evaluations, iterations, converged = 1, 0, False
    free = np.ones(x.size, dtype=bool)
    while math.isfinite(value) and iterations < NEWTON_MAX_ITERATIONS:
        iterations += 1
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        reduced = hess if free.all() else np.where(free & free[:, None], hess, np.eye(x.size))
        directions = []
        decrement = math.inf  # g^T H^-1 g on the free block, if it is PD
        try:
            np.linalg.cholesky(reduced)
        except np.linalg.LinAlgError:
            pass
        else:
            newton = np.linalg.solve(reduced, -grad)
            decrement = float(-(grad * free) @ newton)
            trial = _project(x + newton, lo, hi)
            if np.abs(trial - x).max() <= STEP_TOL:
                # the confirming evaluation: only its value is read
                x = trial
                value = objective_R(scal, x)
                evaluations += 1
                converged = math.isfinite(value)
                break
            directions.append(newton)
        directions.append(-grad)
        for direction in directions:
            accepted, count = _backtrack(scal, x, value, grad, direction, (lo, hi))
            evaluations += count
            if accepted is not None:
                x, value, grad, hess = accepted
                break
        else:
            converged = (np.abs(x - _project(x - grad, lo, hi)).max() <= GRAD_TOL
                         or decrement / 2 <= DECREMENT_TOL * max(1.0, abs(value)))
            break
    diagnostics = {
        "method": "newton",
        "converged": bool(converged),
        "function_evaluations": evaluations,
        "iterations": iterations,
        "active_bounds": np.flatnonzero(~free).tolist(),
    }
    return x, value, diagnostics


def _project(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """x clipped to the box [lo, hi]: np.clip, without its call overhead."""
    return np.minimum(np.maximum(x, lo), hi)


def _backtrack(scal: Scalogram, x, value, grad, direction, box):
    """Halve the step along ``direction``, projected on the box, until R falls
    by ARMIJO times the decrease its gradient predicts.

    Returns ((d, R, gradient, Hessian) at the accepted point, evaluation
    count), or (None, count) once the step is at most STEP_TOL.
    """
    alpha, evaluations = 1.0, 0
    while True:
        trial = _project(x + alpha * direction, *box)
        step = trial - x
        if np.abs(step).max() <= STEP_TOL:
            return None, evaluations
        trial_value, trial_grad, trial_hess = _objective_derivatives(scal, trial)
        evaluations += 1
        if trial_value < value and trial_value <= value + ARMIJO * grad @ step:
            return (trial, trial_value, trial_grad, trial_hess), evaluations
        alpha *= 0.5


@lru_cache(maxsize=32)
def _pair_indices(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upper-triangle pairs (l, m), l <= m, of a p x p matrix in
    row-major order, as read-only arrays rows and cols, and the mask of the
    off-diagonal ones (l < m)."""
    rows, cols = np.triu_indices(p)
    return _freeze(rows), _freeze(cols), _freeze(rows < cols)


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
    rows, cols, upper = _pair_indices(p)
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


def _zero_channels(panel: np.ndarray, scal: Scalogram) -> list[int]:
    """Channels whose wavelet coefficients are rounding-level relative to
    their own amplitude (see ZERO_CHANNEL_RTOL); rescaling never changes
    the verdict."""
    rms = np.sqrt(np.diagonal(scal.matrices.sum(axis=0)) / scal.n_coefficients)
    # a column-wise reduction is contiguous only on a Fortran-ordered panel
    amplitude = np.max(np.abs(np.asfortranarray(panel)), axis=0)
    return np.flatnonzero(rms <= ZERO_CHANNEL_RTOL * amplitude).tolist()


def _scalogram(x: np.ndarray, spec: WaveletSpec, config: EstimationConfig, n_channels: int):
    """The scalogram of the (N,) or (N, p) panel x on the scale range
    resolved for an n_channels fit, from a pyramid just that deep."""
    j0, j1 = resolve_scales(x.shape[0], spec, config, n_channels)
    return scalogram(dwt_pyramid(x, spec, j1), j0, j1)


def estimate_panel(panel: np.ndarray, spec: WaveletSpec, config: EstimationConfig) -> MwwEstimate:
    """Full estimation pipeline on an (N, p) sample panel.

    ``warnings`` holds the lists of ``estimate_omega`` plus ``zero_channels``.
    """
    x = np.asarray(panel, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return _fit_panel(x, _scalogram(x, spec, config, x.shape[1]), spec, config)


def _fit_panel(
    x: np.ndarray, scal: Scalogram, spec: WaveletSpec, config: EstimationConfig
) -> MwwEstimate:
    """``estimate_panel`` on the scalogram of the (N, p) panel x."""
    d_hat, value, diagnostics = estimate_d(scal, config, spec)
    omega, correlation, g_matrix, warnings = estimate_omega(scal, d_hat, spec)
    warnings["zero_channels"] = _zero_channels(x, scal)
    if config.j1 is not None and scal.j1 != config.j1:
        diagnostics["requested_j1"] = config.j1
    return MwwEstimate(
        d_hat=d_hat,
        g_matrix=g_matrix,
        omega=omega,
        correlation=correlation,
        objective_value=value,
        j0=scal.j0,
        j1=scal.j1,
        counts=scal.counts,
        diagnostics=diagnostics,
        warnings=warnings,
    )


def estimate_univariate_each(
    panel: np.ndarray, spec: WaveletSpec, config: EstimationConfig
) -> tuple[np.ndarray, list[dict]]:
    """Estimate d channel by channel: the p univariate criteria in one fit.

    With its off-diagonals zeroed, the scalogram's R is the sum of the p
    univariate criteria and its Hessian is diagonal, so one Newton search
    fits every channel.  The scale range is resolved as for p = 1.  Returns
    the estimates and one diagnostics dict per channel, each describing that
    joint fit: one channel with a singular criterion (e.g. all zero) marks
    every channel not converged.
    """
    scal = _scalogram(np.asarray(panel, dtype=np.float64), spec, config, 1)
    return _fit_univariate(scal, spec)


def _fit_univariate(scal: Scalogram, spec: WaveletSpec) -> tuple[np.ndarray, list[dict]]:
    """``estimate_univariate_each`` on the scalogram over the p = 1 scale range."""
    variances = np.diagonal(scal.matrices, axis1=1, axis2=2)
    diagonal = replace(scal, matrices=variances[:, :, None] * np.eye(scal.n_channels))
    d_hats, _, diagnostics = _projected_newton(diagonal, spec)
    return d_hats, [dict(diagnostics) for _ in range(scal.n_channels)]
