"""Seeded Monte-Carlo harness: simulate, estimate, aggregate.

A Scenario bundles the simulation template and estimation settings; running
it yields per-quantity bias / standard deviation / RMSE records plus the
multivariate-to-univariate RMSE ratios computed on shared panels (paired
design).  Reports serialize to JSON and CSV.  Everything is deterministic
given the root seed: replication seeds are spawned from a SeedSequence and
aggregation follows replication order, so worker counts never change results.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arfima import ArfimaSpec, correlation_from_cov, embedding_factor, simulate_arfima
from .errors import ScenarioError, WavewhittleError
from .estimator import EstimationConfig, estimate_panel, estimate_univariate_each
from .wavelets import WaveletSpec


def omega_from_rho(rho: float, p: int = 2) -> np.ndarray:
    """Unit-diagonal long-run covariance with constant cross-correlation."""
    omega = np.full((p, p), float(rho))
    np.fill_diagonal(omega, 1.0)
    return omega


@dataclass
class Scenario:
    """One Monte-Carlo cell: ARFIMA template, estimation settings, seeds."""

    d: np.ndarray
    omega: np.ndarray
    n_samples: int = 512
    replications: int = 200
    seed: int = 0
    vanishing_moments: int = 4
    j0: int = 1
    j1: int | None = None
    include_univariate: bool = True
    label: str = ""

    def __post_init__(self):
        self.d = np.atleast_1d(np.asarray(self.d, dtype=np.float64))
        self.omega = np.asarray(self.omega, dtype=np.float64)
        try:
            # the root seed obeys the same rule as the seed of a single draw
            self.arfima_spec(self.seed)
        except (WavewhittleError, ValueError) as exc:
            raise ScenarioError(str(exc)) from exc
        if self.replications < 1:
            raise ScenarioError("replication count must be at least 1")

    @property
    def n_channels(self) -> int:
        return self.d.size

    @property
    def truncation(self) -> None:
        """Always None: the simulator is exact and has no MA truncation.

        Read-only; it exists only for the benchmark's traced replay
        (``perfbench/tracing.py``), which still reads it.
        """
        return None

    def wavelet_spec(self) -> WaveletSpec:
        return WaveletSpec(vanishing_moments=self.vanishing_moments)

    def estimation_config(self) -> EstimationConfig:
        return EstimationConfig(j0=self.j0, j1=self.j1)

    def arfima_spec(self, seed) -> ArfimaSpec:
        return ArfimaSpec(
            d=self.d,
            omega=self.omega,
            n_samples=self.n_samples,
            seed=seed,
            moment_cap=self.vanishing_moments,
        )

    def echo(self) -> dict:
        return {
            "label": self.label,
            "d": self.d.tolist(),
            "omega": self.omega.tolist(),
            "N": self.n_samples,
            "reps": self.replications,
            "seed": self.seed,
            "M": self.vanishing_moments,
            "j0": self.j0,
            "j1": self.j1,
            "univariate": self.include_univariate,
        }


@dataclass
class MCReport:
    """Aggregated Monte-Carlo statistics with full configuration echo."""

    records: list[dict]
    scenario: dict
    n_replications: int
    n_failures: int
    runtime_seconds: float
    raw: dict | None = None

    def record(self, quantity: str) -> dict:
        for rec in self.records:
            if rec["quantity"] == quantity:
                return rec
        raise KeyError(quantity)

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "n_replications": self.n_replications,
            "n_failures": self.n_failures,
            "runtime_seconds": self.runtime_seconds,
            "records": self.records,
        }
        if self.raw is not None:
            out["raw"] = {k: np.asarray(v).tolist() for k, v in self.raw.items()}
        return out

    def write_json(self, path) -> None:
        from .cli import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")

    def write_csv(self, path) -> None:
        from .cli import atomic_write_text

        lines = ["quantity,truth,bias,std,rmse,ratio_mu"]
        for rec in self.records:
            ratio = rec.get("ratio_mu")
            lines.append(
                f"{rec['quantity']},{rec['truth']:.10g},{rec['bias']:.10g},"
                f"{rec['std']:.10g},{rec['rmse']:.10g},"
                + (f"{ratio:.10g}" if ratio is not None else "")
            )
        atomic_write_text(path, "\n".join(lines) + "\n")


def _run_replication(scenario: Scenario, seed) -> dict:
    panel = simulate_arfima(scenario.arfima_spec(seed))
    spec = scenario.wavelet_spec()
    config = scenario.estimation_config()
    est = estimate_panel(panel, spec, config)
    out = {
        "d": est.d_hat,
        "omega": est.omega,
        "correlation": est.correlation,
        "converged": est.diagnostics["converged"],
    }
    if scenario.include_univariate:
        out["d_univariate"], _ = estimate_univariate_each(panel, spec, config)
    return out


def _replication_worker(args):
    scenario, seed = args
    try:
        return _run_replication(scenario, seed)
    except WavewhittleError:
        return None


def _moment_stats(values: np.ndarray, truth: float) -> tuple[float, float, float]:
    bias = float(values.mean() - truth)
    std = float(values.std())
    return bias, std, math.hypot(bias, std)


def _record(quantity: str, truth: float, values: np.ndarray) -> dict:
    bias, std, rmse = _moment_stats(values, truth)
    return {"quantity": quantity, "truth": float(truth), "bias": bias, "std": std,
            "rmse": rmse, "ratio_mu": None}


def run_scenario(scenario: Scenario, keep_raw: bool = False, workers: int = 1) -> MCReport:
    """Run all replications and aggregate bias / std / RMSE per quantity.

    Replications flagged non-converged or raising estimation errors are
    excluded from the aggregates and counted as failures; a scenario where
    every replication fails raises ScenarioError.  A model whose circulant
    embedding is not positive definite raises CovarianceError once, before
    any replication runs.  The output is bit reproducible for a fixed
    scenario regardless of ``workers``.
    """
    t_start = time.perf_counter()
    # builds the cached factor (forked workers inherit it) or raises
    embedding_factor(scenario.arfima_spec(scenario.seed))
    seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.replications)
    jobs = [(scenario, s) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_worker, jobs, chunksize=8))
    else:
        results = [_replication_worker(job) for job in jobs]

    kept = [r for r in results if r is not None and r["converged"]]
    n_failures = scenario.replications - len(kept)
    if not kept:
        raise ScenarioError("all replications failed")

    p = scenario.n_channels
    d_hat = np.array([r["d"] for r in kept])
    omega_hat = np.array([r["omega"] for r in kept])
    corr_hat = np.array([r["correlation"] for r in kept])
    truth_corr = correlation_from_cov(scenario.omega)

    records = []
    if scenario.include_univariate:
        d_uni = np.array([r["d_univariate"] for r in kept])
    for ell in range(p):
        rec = _record(f"d_{ell + 1}", scenario.d[ell], d_hat[:, ell])
        if scenario.include_univariate:
            _, _, rmse_u = _moment_stats(d_uni[:, ell], scenario.d[ell])
            if rmse_u == 0.0:
                raise ScenarioError("univariate RMSE is zero; ratio M/U undefined")
            rec["ratio_mu"] = rec["rmse"] / rmse_u
        records.append(rec)
    for ell in range(p):
        for m in range(ell, p):
            records.append(_record(f"omega_{ell + 1}_{m + 1}", scenario.omega[ell, m],
                                   omega_hat[:, ell, m]))
    for ell in range(p):
        for m in range(ell + 1, p):
            records.append(_record(f"corr_{ell + 1}_{m + 1}", truth_corr[ell, m],
                                   corr_hat[:, ell, m]))

    raw = None
    if keep_raw:
        raw = {"d": d_hat, "omega": omega_hat, "correlation": corr_hat}
        if scenario.include_univariate:
            raw["d_univariate"] = d_uni
    return MCReport(
        records=records,
        scenario=scenario.echo(),
        n_replications=scenario.replications,
        n_failures=n_failures,
        runtime_seconds=time.perf_counter() - t_start,
        raw=raw,
    )


def ratio_m_u(scenario: Scenario, workers: int = 1) -> np.ndarray:
    """Per-channel multivariate / univariate RMSE ratios on shared panels."""
    if not scenario.include_univariate:
        raise ScenarioError("scenario must include univariate estimation for ratio M/U")
    report = run_scenario(scenario, workers=workers)
    return np.array([report.record(f"d_{ell + 1}")["ratio_mu"] for ell in range(scenario.n_channels)])


def rate_check(scenario: Scenario, n_values, workers: int = 1) -> dict:
    """RMSE of d_hat across increasing sample sizes (consistency probe).

    Returns rows of per-channel and mean RMSE per sample size, the log-log
    slope of mean RMSE against N, and a flag for monotone decrease.
    """
    n_values = [int(n) for n in n_values]
    if sorted(n_values) != n_values:
        raise ScenarioError("sample sizes must be increasing")
    seeds = np.random.SeedSequence(scenario.seed).spawn(len(n_values))
    rows = []
    for n, seed in zip(n_values, seeds):
        sub = replace(
            scenario,
            n_samples=n,
            seed=int(seed.generate_state(1, dtype=np.uint64)[0]),
            include_univariate=False,
            label=f"{scenario.label}[N={n}]",
        )
        report = run_scenario(sub, workers=workers)
        rmses = [report.record(f"d_{ell + 1}")["rmse"] for ell in range(scenario.n_channels)]
        rows.append({"N": n, "rmse": rmses, "rmse_mean": float(np.mean(rmses))})
    means = np.array([row["rmse_mean"] for row in rows])
    slope = None
    if len(rows) > 1:
        slope = float(np.polyfit(np.log(n_values), np.log(means), 1)[0])
    return {
        "rows": rows,
        "loglog_slope": slope,
        "monotone_decreasing": bool(np.all(np.diff(means) < 0)) if len(rows) > 1 else None,
    }


def _parse_scalar(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in {"true", "yes", "on"}:
        return True
    if lowered in {"false", "no", "off"}:
        return False
    if lowered in {"none", ""}:
        return None
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def parse_scenario_mapping(data: dict) -> Scenario:
    """Build a Scenario from the documented key set (d, rho/omega, N, ...)."""
    known = {
        "label", "d", "rho", "omega", "n", "m", "j0", "j1", "reps",
        "seed", "univariate",
    }
    mapping = {str(k).lower(): v for k, v in data.items()}
    unknown = set(mapping) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    if "d" not in mapping:
        raise ScenarioError("scenario must define the memory vector d")
    d = np.atleast_1d(np.asarray(mapping["d"], dtype=np.float64))
    if "omega" in mapping and "rho" in mapping:
        raise ScenarioError("give either rho or omega, not both")
    if "omega" in mapping:
        omega = np.asarray(mapping["omega"], dtype=np.float64)
    elif "rho" in mapping:
        omega = omega_from_rho(float(mapping["rho"]), d.size)
    else:
        omega = np.eye(d.size)
    univariate = mapping.get("univariate", True)
    if isinstance(univariate, str):
        univariate = _parse_scalar(univariate)
    if not isinstance(univariate, bool):
        raise ScenarioError(f"univariate must be true or false, got {mapping['univariate']!r}")
    try:
        return Scenario(
            d=d,
            omega=omega,
            n_samples=_integer_value(mapping, "n", 512),
            replications=_integer_value(mapping, "reps", 200),
            seed=_integer_value(mapping, "seed", 0),
            vanishing_moments=_integer_value(mapping, "m", 4),
            j0=_integer_value(mapping, "j0", 1),
            j1=_integer_value(mapping, "j1", None),
            include_univariate=univariate,
            label=str(mapping.get("label", "")),
        )
    except (WavewhittleError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def _integer_value(mapping: dict, key: str, default):
    """The integer under ``key``; a fraction, a boolean or text is an error, not truncated."""
    value = mapping.get(key, default)
    if value is None and default is None:
        return None
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ScenarioError(f"scenario key {key!r} must be an integer, got {value!r}")
    return int(value)


def load_scenario(path) -> Scenario:
    """Read a scenario from JSON or key = value text.

    The text format takes one ``key = value`` pair per line, ``#`` comments,
    comma-separated vectors (``d = 0.2, 0.2``) and semicolon-separated matrix
    rows (``omega = 1, 0.4; 0.4, 1``).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return parse_scenario_mapping(data)

    data: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if ";" in value:
            data[key] = [
                [_parse_scalar(cell) for cell in row.split(",")]
                for row in value.split(";")
            ]
        elif "," in value:
            data[key] = [_parse_scalar(cell) for cell in value.split(",")]
        else:
            data[key] = _parse_scalar(value)
    return parse_scenario_mapping(data)
