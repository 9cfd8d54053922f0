"""Multivariate wavelet Whittle estimation of memory parameters and long-run covariance.

Pipeline: detail pyramid -> scalogram -> profile objective minimized over the
memory vector d -> phase-corrected long-run covariance.  Works for any p >= 1;
p = 1 reduces to the univariate wavelet Whittle estimator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.linalg import _umath_linalg as _gufuncs

from .errors import ConfigError, LikelihoodError, ScaleRangeError
from .wavelets import (
    WaveletPyramid,
    WaveletSpec,
    _freeze,
    _integer,
    _spectral_k,
    coefficient_counts,
    dwt_pyramid,
    in_k_domain,
    max_feasible_level,
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
# once its projected step, of length l (its largest |entry|), is at most
# STEP_TOL, or at most (STEP_TOL l_prev^2)^(1/3) after a whole Newton step of
# length l_prev: in Newton's quadratic phase the error left after the step is
# about (l / l_prev^2) l^2, so the last two steps predict it at most STEP_TOL
# (Boyd & Vandenberghe 2004, sec. 9.5.3).  Either step is taken, and R alone
# evaluated there.  A fit where no step of its direction lowers R has
# converged only when its projected gradient is at most GRAD_TOL: a search
# stalled in round-off above it, as on collinear channels, has not.  A 1e-9
# step tolerance stalls on the ~6e-9 round-off floor of the gradient.
NEWTON_MAX_ITERATIONS = 50
STEP_TOL = 1e-8
GRAD_TOL = 1e-7
# Backtracking accepts a step once R falls by this fraction of the decrease
# the gradient predicts.
ARMIJO = 1e-4


@dataclass
class Scalogram:
    """Per-scale sums of outer products I(j) = sum_k W_{j,k} W_{j,k}^T.

    Kept unnormalized (no division by n_j).  ``matrices[i]`` is the p x p
    matrix for scale j = j0 + i, and row l of the (p, J) ``variances`` table
    holds channel l's I_ll(j) (by default the matrices' diagonal).  Treated
    as immutable: the derived quantities are set once, when it is built:
    ``_geometry``, the constants of its scale range and counts
    (``_scale_terms``), ``_count``, the total number n of coefficients, and
    ``_flat``, ``matrices`` as a (J, p^2) array, row j holding I(j) row-major,
    and ``_starts``, filled by ``_start`` with the fits' start per search box.
    """

    matrices: np.ndarray
    counts: np.ndarray
    j0: int
    j1: int
    variances: np.ndarray | None = None

    def __post_init__(self):
        self._count, self._geometry = _scale_terms(self.j0, self.j1, tuple(self.counts.tolist()))
        self._flat = self.matrices.reshape(len(self.matrices), -1)
        self._starts = {}
        if self.variances is None:
            self.variances = np.ascontiguousarray(np.diagonal(self.matrices, axis1=1, axis2=2).T)

    @property
    def n_channels(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_coefficients(self) -> int:
        return self._count

    @property
    def mean_scale(self) -> float:
        """Count-weighted mean scale <J> = (1/n) sum_j j n_j."""
        return self._geometry[0]

    def _leading(self, j1: int) -> Scalogram:
        """The scalogram of scales j0..j1, j1 at most its own: itself when it
        keeps every level, else a view of its leading levels, equal bit for
        bit to one summed over j0..j1."""
        if j1 == self.j1:
            return self
        levels = j1 - self.j0 + 1
        return Scalogram(self.matrices[:levels], self.counts[:levels], self.j0, j1,
                         self.variances[:, :levels])


@lru_cache(maxsize=32)
def _scale_terms(j0: int, j1: int, counts: tuple) -> tuple[int, tuple]:
    """What a scalogram's scales j0..j1 and counts n_j fix, computed once per
    geometry: the coefficient count n, and the read-only geometry <J>, the
    negated centred scales -c_j = <J> - j as a (J, 1) column, the (3, J)
    weights 1, c_j and c_j^2 divided by n, the regression weights
    n_j c_j / sum n_j c_j^2 of ``_start`` and the negated scales -j as a
    (J, 1) column."""
    n_j = np.array(counts)
    mean = float((np.arange(j0, j1 + 1) * n_j).sum() / n_j.sum())
    scales = np.arange(j0, j1 + 1, dtype=np.float64)
    c = scales - mean
    n = int(n_j.sum())
    weights = np.stack([np.ones_like(c), c, c * c]) / n
    regression = n_j * c
    with np.errstate(divide="ignore", invalid="ignore"):  # a single scale has none
        regression /= (regression * c).sum()
    return n, (mean, _freeze(-c[:, None]), _freeze(weights), _freeze(regression),
               _freeze(-scales[:, None]))


def scalogram(pyramid: WaveletPyramid, j0: int, j1: int) -> Scalogram:
    """Sum the per-scale outer products of the pyramid over scales j0..j1.
    Each level's matrix is one ``w.T @ w``, whose diagonal rounds with the
    panel's width; the variance table takes each channel's I_ll(j) as one
    dot of its own row (``np.vecdot``): the same bits in any panel, and at
    p = 1 those of the matrix."""
    if not 1 <= j0 <= j1 <= pyramid.j_max:
        raise ScaleRangeError(
            f"scales {j0}..{j1} not covered by pyramid (1..{pyramid.j_max})"
        )
    if pyramid.counts[j1 - 1] < 1:
        raise ScaleRangeError(f"no coefficients at requested coarsest scale {j1}")
    levels = pyramid.details[j0 - 1 : j1]
    p = levels[0].shape[1]
    mats = np.empty((len(levels), p, p))
    table = np.empty((len(levels), p))
    # outputs by position: an out= keyword adds ~0.4 us to each call
    for w, out, row in zip(levels, mats, table):
        np.matmul(w.T, w, out)
        np.vecdot(w.T, w.T, row)
    return Scalogram(
        matrices=mats,
        counts=pyramid.counts[j0 - 1 : j1].copy(),
        j0=j0,
        j1=j1,
        variances=table.T.copy(),
    )


def g_hat(scal: Scalogram, d) -> np.ndarray:
    """Profile covariance G_hat(d), entrywise (1/n) sum_j 2^-j(d_l+d_m) I_lm(j)."""
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    factors = np.exp2(scal._geometry[4] * d)
    scaled = factors[:, :, None] * scal.matrices * factors[:, None, :]
    return np.add.reduce(scaled, axis=0) / scal._count


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
    sign, logdet = _Lapack.slogdet(_centred_sums(scal, d)[0])
    if sign <= 0 or not math.isfinite(logdet):
        return math.inf
    return float(logdet) + scal.n_channels - 1.0


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("singular or not positive definite matrix")


class _Lapack:
    """The float64 LAPACK gufuncs of numpy.linalg, called without its wrappers.

    A numpy.linalg call spends ~5 us in Python checking shapes, choosing a
    signature and converting its result: 3-4 times the LAPACK work on the
    2 x 2 matrices of a bivariate joint fit (the univariate pass makes no
    LAPACK call).  These methods call the private gufuncs that numpy.linalg
    itself calls, with the same float64 signatures, on the float64 arrays
    the fit builds, so every result is bit-identical to numpy.linalg's.

    How a failure is seen: a LAPACK factorization that fails fills its
    output with NaN and sets the floating-point invalid flag, and nothing
    else leaves that flag set after ``inv``, ``cholesky_lo`` or ``solve1``.
    numpy.linalg turns the flag into LinAlgError under its own errstate
    (``_raising``), so these calls fail exactly where numpy.linalg does.
    ``slogdet`` reports a singular matrix as sign 0, as numpy.linalg's
    does, and sets the flag only on a NaN entry, whose logdet is NaN.

    The fit's two steps are fused calls, each under one errstate (entering
    one costs ~1 us, about what the LAPACK work on a 2 x 2 matrix costs):
    ``logdet_inv`` for every evaluation of the derivatives and
    ``newton_step`` for every Newton iteration.  ``slogdet`` alone serves
    ``objective_R``, and reports a NaN logdet without numpy.linalg's
    RuntimeWarning.
    """

    # numpy.linalg's errstate: only the invalid flag counts, and it raises
    _raising = {"call": _lapack_failed, "invalid": "call",
                "over": "ignore", "divide": "ignore", "under": "ignore"}

    @staticmethod
    def slogdet(a: np.ndarray):
        with np.errstate(all="ignore"):
            return _gufuncs.slogdet(a, signature="d->dd")

    @staticmethod
    def logdet_inv(a: np.ndarray) -> tuple[float, np.ndarray | None]:
        """(log det a, a^-1) when det a > 0 with a finite log, else
        (inf, None): numpy.linalg.slogdet, then numpy.linalg.inv only where
        that logdet is finite (``inv`` still raises where numpy.linalg's
        does)."""
        with np.errstate(**_Lapack._raising):
            try:
                sign, logdet = _gufuncs.slogdet(a, signature="d->dd")
            except np.linalg.LinAlgError:  # a NaN entry, so a NaN logdet
                return math.inf, None
            if sign <= 0 or not math.isfinite(logdet):
                return math.inf, None
            return float(logdet), _gufuncs.inv(a, signature="d->d")

    @staticmethod
    def newton_step(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """a^-1 b when a passes the positive-definiteness test (its lower
        Cholesky factor exists) and the solve, else None: numpy.linalg's
        cholesky, then its solve, which a Hessian singular in round-off
        (collinear channels) can fail after passing the test."""
        with np.errstate(**_Lapack._raising):
            try:
                _gufuncs.cholesky_lo(a, signature="d->d")
                return _gufuncs.solve1(a, b, signature="dd->d")
            except np.linalg.LinAlgError:
                return None


def _centred_sums(scal: Scalogram, d: np.ndarray) -> np.ndarray:
    """G_bar, H and Q at d as a (3, p, p) array: the sums over scales of
    Lam_{j-<J>}(d)^-1 I(j) Lam_{j-<J>}(d)^-1 / n with the weights 1, c_j and
    c_j^2 (``Scalogram._geometry``)."""
    _, negated, weights, _, _ = scal._geometry
    factors = np.exp2(negated * d)
    p = d.size
    scaled = (factors[:, :, None] * factors[:, None, :]).reshape(negated.size, p * p)
    scaled *= scal._flat
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
    logdet, a = _Lapack.logdet_inv(g_bar)
    if a is None:
        return math.inf, np.zeros(p), np.zeros((p, p))
    b = h @ a
    hess = a * q
    hess.ravel()[:: p + 1] += np.add.reduce(hess, axis=1)
    hess -= b * b.T
    hess -= a * (b @ h)
    return logdet + p - 1.0, -2.0 * LOG2 * b.diagonal(), 2.0 * LOG2**2 * hess


@dataclass(frozen=True)
class EstimationConfig:
    """Scale range for the Whittle minimization; immutable.

    ``j0`` and ``j1`` must be integers (an integral float such as 3.0
    becomes 3; a fraction or a boolean is a ConfigError).  ``j1 = None``
    uses the deepest scale with at least p coefficients.
    """

    j0: int = 1
    j1: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "j0", _integer("j0", self.j0))
        if self.j1 is not None:
            object.__setattr__(self, "j1", _integer("j1", self.j1))
        if self.j0 < 1:
            raise ConfigError("j0 must be at least 1")
        if self.j1 is not None and self.j1 <= self.j0:
            raise ConfigError("j1 must exceed j0")


def search_box(spec: WaveletSpec) -> tuple[float, float]:
    """The box (BOX_LOW, M] that d is searched in."""
    return BOX_LOW, float(spec.vanishing_moments)


def _start(scal: Scalogram, box: tuple[float, float]) -> np.ndarray:
    """The start of every fit, kept 0.1% of the box width inside the box:
    per channel, half the count-weighted least-squares slope of
    y_jl = log2(I_ll(j)/n_j) on j, sum_j n_j c_j y_jl / sum_j n_j c_j^2 with
    the centred scales c_j, one sum along row l of the variance table, so no
    channel's start depends on another's.  n_j is, up to a constant, the
    inverse variance of y_jl: the weighted log-regression of Veitch & Abry
    (1999, IEEE Trans. Inf. Theory 45).  A row with a non-finite
    log-variance is fit on its finite scales with the same weights; one with
    fewer than two starts at 0.25.  Computed once per scalogram and box, and
    read-only: the joint and univariate fits of a replication share it.
    """
    start = scal._starts.get(box)
    if start is not None:
        return start
    if scal.j1 == scal.j0:
        raise ConfigError("single-scale objective is flat in d; need j0 < j1")
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log2(scal.variances / scal.counts)
        init = 0.5 * np.add.reduce(y * scal._geometry[3], axis=1)
        finite = np.isfinite(init)
        if not np.logical_and.reduce(finite):
            bad = ~finite
            good = np.isfinite(y[bad])
            w = good * scal.counts
            total = np.add.reduce(w, axis=1, keepdims=True)
            dx, dy = (np.where(good, v - np.add.reduce(w * np.where(good, v, 0.0), axis=1,
                                                       keepdims=True) / total, 0.0)
                      for v in (-scal._geometry[4].T, y[bad]))
            slope = np.add.reduce(w * dx * dy, axis=1) / np.add.reduce(w * dx * dx, axis=1)
            init[bad] = np.where(np.add.reduce(good, axis=1) >= 2, 0.5 * slope, 0.25)
    margin = 1e-3 * (box[1] - box[0])
    start = scal._starts[box] = _freeze(_project(init, box[0] + margin, box[1] - margin))
    return start


def estimate_d(scal: Scalogram, config: EstimationConfig, spec: WaveletSpec):
    """Minimize R(d) over the search box; returns (d_hat, R(d_hat), diagnostics).

    One damped projected Newton search (``_newton_search``) on p-vectors
    from ``_start``; deterministic.  It reads R's derivatives
    (``_objective_derivatives``) at each point, and R alone (``objective_R``)
    at the confirming point.
    ``config`` is not read: its scale range is already that of ``scal``.
    """
    p = scal.n_channels
    if scal._count < p:
        raise ConfigError(
            f"only {scal._count} coefficients for {p} channels; estimation refused"
        )
    lo, hi = search_box(spec)
    # a copy: a search that never moves returns its start as d_hat
    return _newton_search(_start(scal, (lo, hi)).copy(), lo, hi, _Vectors,
                          partial(_objective_derivatives, scal), partial(objective_R, scal))


def _newton_search(x, lo: float, hi: float, algebra, derivatives, value_at):
    """Damped projected Newton search for the minimum of R on the box
    [lo, hi] (Bertsekas 1982, SIAM J. Control Optim. 20), from the start x:
    the one search of every fit.

    It calls derivatives(point) for (R, gradient, Hessian) at the start and
    at every trial point, and value_at(point) for R alone at the confirming
    point of a "step" or "predicted_step" stop; it returns (d, R(d),
    diagnostics).  ``algebra`` is the arithmetic of the joint fit's
    p-vectors (``_Vectors``) or of one channel's float (``_Floats``).

    Each iteration takes one direction.  Coordinates at a bound whose
    gradient points out of the box are held there and take the gradient
    step; the free ones take the Newton step of their Hessian block when it
    passes the positive-definiteness test, and the gradient step when it
    does not.  The direction is halved, projected on the box, until R falls
    by ARMIJO times the decrease its gradient predicts; when the halved step
    reaches STEP_TOL first, the search ends.  It stops by the rules of the
    module constants above; l_prev is 0 after a halved step, a gradient
    step, or none, so only a run of whole Newton steps can predict.  A
    box-shortened l_prev makes the prediction more cautious, and at a
    degenerate minimum, where Newton converges linearly at a rate r >= 1/2,
    the prediction fires at l <= STEP_TOL / r^2, at most 4 times the plain
    step rule.  A search that hits the iteration cap or starts at a singular
    G_bar has not converged.  ``stopped_by`` names the rule that ended it:
    "step", "predicted_step", "gradient", or, not converged, "no_descent",
    "iteration_cap" or "singular_start".  ``active_bounds`` lists the
    coordinates held in the last iteration.
    """
    move, dot = algebra.move, algebra.dot
    value, grad, hess = derivatives(x)
    evaluations, iterations, converged, free, previous = 1, 0, False, True, 0.0
    while math.isfinite(value) and iterations < NEWTON_MAX_ITERATIONS:
        iterations += 1
        descent = -grad
        free, newton = algebra.newton_step(x, grad, hess, descent, lo, hi)
        direction = descent if newton is None else newton
        trial, step, length = move(x, direction, lo, hi)
        if newton is not None and (length <= STEP_TOL
                                   or length * length * length <= STEP_TOL * previous * previous):
            # the confirming evaluation: R alone
            stopped_by = "step" if length <= STEP_TOL else "predicted_step"
            x = trial
            value = value_at(x)
            evaluations += 1
            converged = math.isfinite(value)
            break
        alpha = 1.0
        # a NaN step is never within STEP_TOL: it ends the search at once
        while length > STEP_TOL:
            trial_value, trial_grad, trial_hess = derivatives(trial)
            evaluations += 1
            if trial_value < value and trial_value <= value + dot(ARMIJO * grad, step):
                break
            alpha *= 0.5
            trial, step, length = move(x, alpha * direction, lo, hi)
        else:
            # no step lowers R: the projected gradient alone can say converged
            stopped_by = "gradient" if move(x, descent, lo, hi)[2] <= GRAD_TOL else "no_descent"
            converged = stopped_by == "gradient"
            break
        x, value, grad, hess = trial, trial_value, trial_grad, trial_hess
        # the length of a whole Newton step, for the next predicted error
        previous = length if alpha == 1.0 and newton is not None else 0.0
    else:
        stopped_by = "iteration_cap" if math.isfinite(value) else "singular_start"
    diagnostics = {
        "method": "newton",
        "converged": bool(converged),
        "stopped_by": stopped_by,
        "function_evaluations": evaluations,
        "iterations": iterations,
        "active_bounds": algebra.held(free),
    }
    return x, value, diagnostics


def _project(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """x clipped to the box [lo, hi]: np.clip, without its call overhead."""
    return np.minimum(np.maximum(x, lo), hi)


class _Vectors:
    """The arithmetic of ``_newton_search`` on the joint fit's p-vectors.

    ``newton_step`` gives the mask of free coordinates (True when x lies
    inside the box) and ``_Lapack.newton_step`` on the Hessian whose held
    rows and columns are made identity, so that the held coordinates take
    the gradient step.
    """

    dot = staticmethod(operator.matmul)

    @staticmethod
    def move(x, direction, lo, hi):
        """The point x + direction projected on the box, the step to it, and
        the step's largest |entry| (NaN when an entry is NaN)."""
        trial = _project(x + direction, lo, hi)
        step = trial - x
        return trial, step, np.maximum.reduce(np.abs(step))

    @staticmethod
    def newton_step(x, grad, hess, descent, lo, hi):
        if lo < np.minimum.reduce(x) and np.maximum.reduce(x) < hi:
            return True, _Lapack.newton_step(hess, descent)
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        if not np.logical_and.reduce(free):
            hess = np.where(free & free[:, None], hess, np.eye(x.size))
        return free, _Lapack.newton_step(hess, descent)

    @staticmethod
    def held(free) -> list[int]:
        return [] if free is True else np.flatnonzero(~free).tolist()


class _Floats:
    """The arithmetic of ``_newton_search`` on one channel's float d, with
    no array and no LAPACK call: whether the channel is free, and its Newton
    step, a division by R'' (by 1 when held) when that is positive, the
    1 x 1 Cholesky test."""

    dot = staticmethod(operator.mul)

    @staticmethod
    def move(x, direction, lo, hi):
        trial = min(max(x + direction, lo), hi)
        step = trial - x
        return trial, step, abs(step)

    @staticmethod
    def newton_step(x, grad, hess, descent, lo, hi):
        free = lo < x < hi or not (x <= lo and grad > 0 or x >= hi and grad < 0)
        curvature = hess if free else 1.0
        return free, descent / curvature if curvature > 0 else None

    @staticmethod
    def held(free: bool) -> list[int]:
        return [] if free else [0]


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
    omega, correlation, g_matrix, cosine, defined = _omega(scal, d_hat, spec)
    rows, cols, upper = _pair_indices(d_hat.size)
    corr = correlation[rows, cols]
    out_of_range = upper & np.isfinite(corr) & (np.abs(corr) > 1.05)

    def pairs(mask: np.ndarray) -> list[tuple[int, int]]:
        return list(zip(rows[mask].tolist(), cols[mask].tolist()))

    warnings = {
        "degenerate_pairs": pairs(upper & (np.abs(cosine) < DEGENERACY_THRESHOLD)),
        "undefined_pairs": pairs(~defined),
        "invalid_channels": np.flatnonzero(~(np.diagonal(omega) > 0)).tolist(),
        "out_of_range_correlation": pairs(out_of_range),
    }
    return omega, correlation, g_matrix, warnings


def _omega(scal: Scalogram, d_hat: np.ndarray, spec: WaveletSpec):
    """``estimate_omega``'s numbers without its warnings, at the float64
    vector d_hat: (omega, correlation, g_matrix), and for the upper-triangle
    pairs the cosines and which pairs omega defines."""
    p = d_hat.size
    g_matrix = g_hat(scal, d_hat)
    rows, cols, _ = _pair_indices(p)
    d_rows, d_cols = d_hat[rows], d_hat[cols]
    cosine = np.cos(np.pi * (d_rows - d_cols) / 2.0)
    delta = d_rows + d_cols
    # the cosine vanishes where d_l - d_m is congruent to 1 mod 2
    defined = ~(np.abs(cosine) < 1e-12) & in_k_domain(delta, spec)
    # every defined exponent is inside K's domain: spectral_k's check would repeat this
    k_norm = _spectral_k(delta[defined], spec) / (2.0 * math.pi)
    r, c = rows[defined], cols[defined]
    omega = np.full((p, p), np.nan)
    omega[r, c] = omega[c, r] = g_matrix[r, c] / (cosine[defined] * k_norm)
    return omega, correlation_from_cov(omega), g_matrix, cosine, defined


def correlation_from_cov(omega: np.ndarray) -> np.ndarray:
    """omega_lm / sqrt(omega_ll omega_mm); NaN in every row and column of a
    channel whose variance is not positive (or NaN)."""
    variance = np.diagonal(omega)
    scale = np.sqrt(np.where(variance > 0, variance, np.nan))
    with np.errstate(invalid="ignore", divide="ignore"):
        return omega / (scale[:, None] * scale)


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
    rms = np.sqrt(np.add.reduce(scal.variances, axis=1) / scal.n_coefficients)
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

    ``warnings`` holds the lists of ``estimate_omega``, ``zero_channels`` and ``non_convergence``.
    """
    x = np.asarray(panel, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    scal = _scalogram(x, spec, config, x.shape[1])
    d_hat, value, diagnostics = estimate_d(scal, config, spec)
    omega, correlation, g_matrix, warnings = estimate_omega(scal, d_hat, spec)
    warnings["zero_channels"] = _zero_channels(x, scal)
    warnings["non_convergence"] = not diagnostics["converged"]
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
    """Estimate d channel by channel: each channel's univariate criterion
    minimized on its own (``_fit_univariate``).

    The scale range is resolved as for p = 1.  Returns the estimates and one
    diagnostics dict per channel: the dict ``estimate_d`` gives for that
    channel alone (``active_bounds`` is [0] when it is held at a box edge),
    and ``zero_channel``, the verdict of ``_zero_channels`` on the channel
    alone.  A channel whose criterion is singular (e.g. all zero) keeps its
    start value and is the only one marked not converged.
    """
    x = np.asarray(panel, dtype=np.float64)
    scal = _scalogram(x, spec, config, 1)
    d_hat, diagnostics = _fit_univariate(scal, spec)
    # row l of the variance table and column l of the panel are the channel's own
    zero = _zero_channels(x, scal)
    for ell, channel in enumerate(diagnostics):
        channel["zero_channel"] = ell in zero
    return d_hat, diagnostics


def _fit_univariate(scal: Scalogram, spec: WaveletSpec) -> tuple[np.ndarray, list[dict]]:
    """The univariate fit of every channel of ``scal``, on its diagonal:
    the estimates and one diagnostics dict per channel.

    Channel l minimizes R_l(d) = log G_l(d), the p = 1 objective, where
    (G_l, H_l, Q_l) = sum_j (1, c_j, c_j^2) 4^(-c_j d) I_ll(j) / n.  Then
    R_l' = -2 log(2) H_l / G_l, and R_l'' = 4 log(2)^2 (Q_l/G_l - (H_l/G_l)^2)
    is the weighted variance of the scales, so never negative.  One channel
    at a time runs its own search (``_newton_search`` on floats,
    ``_Floats``): the joint fit's search at p = 1, step for step, from the
    same start (``_start``).  Its sums are Python floats over its own row of
    the variance table, which is the same bits in any panel
    (``scalogram``), so a channel's estimate and diagnostics are bit for bit
    those of the column fitted alone.  No array and no LAPACK call.
    """
    lo, hi = search_box(spec)
    _, negated, weights, _, _ = scal._geometry
    scales = list(zip(*weights.tolist(), (2.0 * negated[:, 0]).tolist()))
    fits = []
    for x, row in zip(_start(scal, (lo, hi)).tolist(), scal.variances.tolist()):
        terms = [(v * w0, v * w1, v * w2, e) for v, (w0, w1, w2, e) in zip(row, scales)]
        fits.append(_newton_search(x, lo, hi, _Floats, partial(_channel_derivatives, terms),
                                   partial(_channel_value, terms)))
    return np.array([d for d, _, _ in fits]), [diagnostics for _, _, diagnostics in fits]


def _channel_derivatives(terms: list, d: float) -> tuple[float, float, float]:
    """(R_l, R_l', R_l'') at d from the channel's terms per scale (I_ll(j)
    times 1, c_j and c_j^2 over n, and -2 c_j); (inf, 0, 0) where G_l is not
    positive and finite, as on a zero row or one with an infinite variance."""
    g = h = q = 0.0
    for g_j, h_j, q_j, e in terms:
        s = 2.0 ** (d * e)
        g += g_j * s
        h += h_j * s
        q += q_j * s
    if not 0.0 < g < math.inf:
        return math.inf, 0.0, 0.0
    ratio = h / g
    return math.log(g), -2.0 * LOG2 * ratio, 4.0 * LOG2**2 * (q / g - ratio * ratio)


def _channel_value(terms: list, d: float) -> float:
    """R_l alone at d, the same bits as ``_channel_derivatives``'s."""
    g = 0.0
    for g_j, _, _, e in terms:
        g += g_j * 2.0 ** (d * e)
    return math.log(g) if 0.0 < g < math.inf else math.inf
