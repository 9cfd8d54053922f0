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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .arfima import ArfimaSpec, _draw, correlation_from_cov, embedding_factor
from .errors import CovarianceError, ScenarioError, WavewhittleError
from .estimator import (EstimationConfig, _fit_panel, _fit_univariate, _pair_indices,
                        resolve_scales, scalogram)
from .wavelets import WaveletSpec, dwt_pyramid


def omega_from_rho(rho: float, p: int = 2) -> np.ndarray:
    """Unit-diagonal long-run covariance with constant cross-correlation."""
    omega = np.full((p, p), float(rho))
    np.fill_diagonal(omega, 1.0)
    return omega


#: The scenario-file vocabulary, file key -> Scenario field, in the order a
#: report echoes them.  Keys are read case-insensitively, and a file may give
#: ``rho`` in place of ``omega``.
SCENARIO_KEYS = {
    "label": "label", "d": "d", "omega": "omega", "N": "n_samples", "reps": "replications",
    "seed": "seed", "M": "vanishing_moments", "j0": "j0", "j1": "j1",
    "univariate": "include_univariate",
}
_INTEGER_FIELDS = ("n_samples", "replications", "seed", "vanishing_moments", "j0", "j1")


@dataclass
class Scenario:
    """One Monte-Carlo cell: ARFIMA template, estimation settings, seeds.

    Built from Python or from a file, it checks its fields alike: ``d`` and
    ``omega`` must read as float arrays, and the integer fields hold
    integers (``j1`` may be None); a fraction, a boolean or text is a
    ScenarioError naming the file key, and ``300.0`` becomes 300.
    """

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
        try:
            d = np.atleast_1d(np.asarray(self.d, dtype=np.float64))
            if d.ndim != 1:
                raise ScenarioError(f"d must be a number or a list of numbers, got {self.d!r}")
            self.d = d
            self.omega = np.asarray(self.omega, dtype=np.float64)
            for key, name in SCENARIO_KEYS.items():
                value = getattr(self, name)
                if name in _INTEGER_FIELDS and not (name == "j1" and value is None):
                    setattr(self, name, _integer(key.lower(), value))
            self.label = str(self.label)
            # the root seed obeys the same rule as the seed of a single draw
            self.arfima_spec(self.seed)
        except (CovarianceError, ScenarioError):
            raise  # a CovarianceError keeps its exit code, as a single draw's does
        except (WavewhittleError, ValueError, TypeError) as exc:
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
        """The fields under their file keys; ``parse_scenario_mapping`` reads it back."""
        out = {key: getattr(self, name) for key, name in SCENARIO_KEYS.items()}
        out["d"], out["omega"] = self.d.tolist(), self.omega.tolist()
        return out


@dataclass
class MCReport:
    """Aggregated Monte-Carlo statistics with full configuration echo."""

    records: list[dict]
    scenario: dict
    n_replications: int
    n_failures: int
    runtime_seconds: float
    raw: dict | None = None
    # failed replications by reason (the WavewhittleError class name, or
    # "non_converged"); the counts sum to n_failures
    failures: dict[str, int] = field(default_factory=dict)

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
            "failures": self.failures,
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


@dataclass(frozen=True)
class _Plan:
    """What every replication of a scenario shares, built once per run: the
    validated model, which each replication draws with its own seed, the
    wavelet, the estimation settings and the scale ranges of the joint and
    the univariate fits."""

    model: ArfimaSpec
    spec: WaveletSpec
    config: EstimationConfig
    joint_scales: tuple[int, int]
    univariate_scales: tuple[int, int]
    include_univariate: bool

    @classmethod
    def of(cls, scenario: Scenario, model: ArfimaSpec) -> _Plan:
        """The plan of ``scenario`` drawing ``model``; raises ScaleRangeError
        when the scale range does not fit the sample length."""
        spec, config = scenario.wavelet_spec(), scenario.estimation_config()
        n = scenario.n_samples
        return cls(model, spec, config,
                   resolve_scales(n, spec, config, scenario.n_channels),
                   resolve_scales(n, spec, config, 1), scenario.include_univariate)


def _run_replication(plan: _Plan, seed) -> dict:
    panel = _draw(plan.model, embedding_factor(plan.model), seed)
    # built as deep as the univariate fit reads, the deeper of the two
    pyramid = dwt_pyramid(panel, plan.spec, plan.univariate_scales[1])
    est = _fit_panel(panel, scalogram(pyramid, *plan.joint_scales), plan.spec, plan.config)
    out = {
        "d": est.d_hat,
        "omega": est.omega,
        "correlation": est.correlation,
        "converged": est.diagnostics["converged"],
    }
    if plan.include_univariate:
        out["d_univariate"], _ = _fit_univariate(scalogram(pyramid, *plan.univariate_scales),
                                                 plan.spec)
    return out


def _replication_worker(args):
    """One replication's estimates, or the reason it failed: the class name
    of the WavewhittleError it raised, or "non_converged"."""
    plan, seed = args
    try:
        out = _run_replication(plan, seed)
    except WavewhittleError as exc:
        return type(exc).__name__
    return out if out["converged"] else "non_converged"


def run_scenario(scenario: Scenario, keep_raw: bool = False, workers: int = 1) -> MCReport:
    """Run all replications and aggregate bias / std / RMSE per quantity.

    Replications flagged non-converged or raising estimation errors are
    excluded from the aggregates and counted as failures, by reason; a
    scenario where every replication fails raises ScenarioError.  The model
    and the scale range are checked once, before any replication runs: a
    model whose circulant embedding is not positive definite raises
    CovarianceError, and a scale range the sample length cannot hold raises
    ScaleRangeError.  The output is bit reproducible for a fixed scenario
    regardless of ``workers``.
    """
    t_start = time.perf_counter()
    model = scenario.arfima_spec(scenario.seed)
    # builds the cached factor (forked workers inherit it) or raises
    embedding_factor(model)
    plan = _Plan.of(scenario, model)
    seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.replications)
    jobs = [(plan, s) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_worker, jobs, chunksize=8))
    else:
        results = [_replication_worker(job) for job in jobs]

    kept = [r for r in results if isinstance(r, dict)]
    failures = dict(sorted(Counter(r for r in results if isinstance(r, str)).items()))
    if not kept:
        raise ScenarioError(f"all replications failed: {failures}")

    p = scenario.n_channels
    d_hat = np.array([r["d"] for r in kept])
    omega_hat = np.array([r["omega"] for r in kept])
    corr_hat = np.array([r["correlation"] for r in kept])
    rows, cols, upper = _pair_indices(p)
    quantities = ([f"d_{ell + 1}" for ell in range(p)]
                  + [f"omega_{ell + 1}_{m + 1}" for ell, m in zip(rows, cols)]
                  + [f"corr_{ell + 1}_{m + 1}" for ell, m in zip(rows[upper], cols[upper])])
    truth = [scenario.d, scenario.omega[rows, cols],
             correlation_from_cov(scenario.omega)[rows[upper], cols[upper]]]
    values = [d_hat.T, omega_hat[:, rows, cols].T, corr_hat[:, rows[upper], cols[upper]].T]
    if scenario.include_univariate:
        d_uni = np.array([r["d_univariate"] for r in kept])
        truth.append(scenario.d)
        values.append(d_uni.T)
    # one (quantities, replications) C-contiguous array reduced along its
    # rows sums each quantity in the same order as its own 1-D array
    values = np.concatenate(values)
    truth = np.concatenate(truth)
    bias = (values.mean(axis=1) - truth).tolist()
    std = values.std(axis=1).tolist()
    rmse = [math.hypot(b, s) for b, s in zip(bias, std)]
    records = [{"quantity": name, "truth": float(truth[i]), "bias": bias[i], "std": std[i],
                "rmse": rmse[i], "ratio_mu": None} for i, name in enumerate(quantities)]
    if scenario.include_univariate:
        for rec, rmse_u in zip(records[:p], rmse[-p:]):
            if rmse_u == 0.0:
                raise ScenarioError("univariate RMSE is zero; ratio M/U undefined")
            rec["ratio_mu"] = rec["rmse"] / rmse_u

    raw = None
    if keep_raw:
        raw = {"d": d_hat, "omega": omega_hat, "correlation": corr_hat}
        if scenario.include_univariate:
            raw["d_univariate"] = d_uni
    return MCReport(
        records=records,
        scenario=scenario.echo(),
        n_replications=scenario.replications,
        n_failures=scenario.replications - len(kept),
        runtime_seconds=time.perf_counter() - t_start,
        raw=raw,
        failures=failures,
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
    """Build a Scenario from the keys of ``SCENARIO_KEYS``, or ``rho`` in
    place of ``omega``; a key the mapping leaves out keeps the field default."""
    mapping = {str(k).lower(): v for k, v in data.items()}
    unknown = set(mapping) - {key.lower() for key in SCENARIO_KEYS} - {"rho"}
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    if "d" not in mapping:
        raise ScenarioError("scenario must define the memory vector d")
    if "omega" in mapping and "rho" in mapping:
        raise ScenarioError("give either rho or omega, not both")
    fields = {name: mapping[key.lower()] for key, name in SCENARIO_KEYS.items()
              if key.lower() in mapping}
    if "univariate" in mapping:
        univariate = mapping["univariate"]
        if isinstance(univariate, str):
            univariate = _parse_scalar(univariate)
        if not isinstance(univariate, bool):
            raise ScenarioError(f"univariate must be true or false, got {mapping['univariate']!r}")
        fields["include_univariate"] = univariate
    try:
        if "omega" not in mapping:
            p = np.atleast_1d(np.asarray(mapping["d"], dtype=np.float64)).size
            fields["omega"] = omega_from_rho(float(mapping.get("rho", 0.0)), p)
        return Scenario(**fields)
    except CovarianceError:
        raise
    except (WavewhittleError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def _integer(key: str, value) -> int:
    """``value`` as an int; a fraction, a boolean or text is an error, not truncated."""
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
