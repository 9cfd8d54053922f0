"""Seeded Monte-Carlo harness: simulate, estimate, aggregate.

A Scenario bundles the simulation template and estimation settings; running
it yields per-quantity bias / standard deviation / RMSE records plus the
multivariate-to-univariate RMSE ratios computed on shared panels (paired
design).  ``MCReport.to_dict()`` is a report's data; writing it to files is
the CLI's job (``wavewhittle mc``).  Everything is deterministic
given the root seed: replication seeds are spawned from a SeedSequence and
aggregation follows replication order, so worker counts never change results.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .arfima import ArfimaSpec, _draw, embedding_factor
from .errors import (ConfigError, CovarianceError, ScaleRangeError, ScenarioError,
                     WavewhittleError)
from .estimator import (EstimationConfig, _fit_panel, _fit_univariate, _pair_indices,
                        correlation_from_cov, resolve_scales, scalogram)
from .wavelets import WaveletSpec, _integer, _psi_bands, dwt_pyramid


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


@dataclass(frozen=True)
class Scenario:
    """One Monte-Carlo cell: ARFIMA template, estimation settings, seeds.

    Immutable, and checked once, when it is built, from Python or from a
    file alike.  ``d`` and ``omega`` become read-only float64 copies; the
    integer fields must hold integers (``j1`` may be None), so a fraction, a
    boolean or text is an error and ``300.0`` becomes 300; the univariate
    flag must be a bool.  It keeps what the checks build: the validated
    ``model`` that every replication draws with its own seed, the wavelet
    ``spec`` and estimation ``config`` that every replication fits with, and
    the scale ranges of the joint (p channels) and univariate fits.  A scale
    range the sample length cannot hold raises ScaleRangeError and an invalid
    omega CovarianceError; every other failure is one ScenarioError.
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
    model: ArfimaSpec = field(init=False, repr=False, compare=False)
    spec: WaveletSpec = field(init=False, repr=False, compare=False)
    config: EstimationConfig = field(init=False, repr=False, compare=False)
    joint_scales: tuple[int, int] = field(init=False, repr=False, compare=False)
    univariate_scales: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self._check()
        except (ScaleRangeError, CovarianceError):
            raise  # they keep their exit codes, as in a single estimate or draw
        except (WavewhittleError, ValueError, TypeError, OverflowError) as exc:
            raise ScenarioError(f"invalid scenario: {exc}") from exc

    def _check(self) -> None:
        def store(name, value):
            object.__setattr__(self, name, value)

        for key, name in SCENARIO_KEYS.items():
            value = getattr(self, name)
            if name in _INTEGER_FIELDS and not (name == "j1" and value is None):
                store(name, _integer(f"scenario key {key.lower()!r}", value))
        if not isinstance(self.include_univariate, (bool, np.bool_)):
            raise ConfigError(
                f"scenario key 'univariate' must be true or false, got {self.include_univariate!r}"
            )
        store("include_univariate", bool(self.include_univariate))
        store("label", str(self.label))
        # the root seed obeys the same rule as the seed of a single draw; the
        # model's read-only float64 copies of d and omega are the scenario's
        store("model", self.arfima_spec(self.seed))
        store("d", self.model.d)
        store("omega", self.model.omega)
        if self.replications < 1:
            raise ConfigError("replication count must be at least 1")
        store("spec", WaveletSpec(vanishing_moments=self.vanishing_moments))
        store("config", EstimationConfig(j0=self.j0, j1=self.j1))
        for name, p in (("joint_scales", self.n_channels), ("univariate_scales", 1)):
            store(name, resolve_scales(self.n_samples, self.spec, self.config, p))

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
        return self.spec

    def estimation_config(self) -> EstimationConfig:
        return self.config

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
    # failed replications by reason (the WavewhittleError class name,
    # "non_converged" or "non_converged_univariate"); the counts sum to
    # n_failures
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


def _run_replication(scenario: Scenario, seed) -> dict:
    model, spec, config = scenario.model, scenario.spec, scenario.config
    panel = _draw(model, embedding_factor(model), seed)
    # built as deep as the univariate fit reads, the deeper of the two
    pyramid = dwt_pyramid(panel, spec, scenario.univariate_scales[1])
    est = _fit_panel(panel, scalogram(pyramid, *scenario.joint_scales), spec, config)
    out = {
        "d": est.d_hat,
        "omega": est.omega,
        "correlation": est.correlation,
        "converged": est.diagnostics["converged"],
    }
    # a failed joint fit drops the replication, so its univariate fit is not run
    if scenario.include_univariate and out["converged"]:
        out["d_univariate"], diagnostics = _fit_univariate(
            scalogram(pyramid, *scenario.univariate_scales), spec)
        out["converged_univariate"] = diagnostics["converged"]
    return out


def _replication_worker(args):
    """One replication's estimates, or the reason it failed: the class name
    of the WavewhittleError it raised, "non_converged" when its joint fit did
    not converge (its univariate fit is then not run), or
    "non_converged_univariate" when only its univariate fit did not.  Either
    way both fits are dropped: the design is paired."""
    scenario, seed = args
    try:
        out = _run_replication(scenario, seed)
    except WavewhittleError as exc:
        return type(exc).__name__
    if not out["converged"]:
        return "non_converged"
    if not out.get("converged_univariate", True):
        return "non_converged_univariate"
    return out


def run_scenario(scenario: Scenario, keep_raw: bool = False, workers: int = 1) -> MCReport:
    """Run all replications and aggregate bias / std / RMSE per quantity.

    Replications flagged non-converged or raising estimation errors are
    excluded from the aggregates and counted as failures, by reason; a
    scenario where every replication fails raises ScenarioError.  The
    scenario's model and scale ranges were checked when it was built; its
    circulant embedding is checked here, once, before any replication runs,
    and raises CovarianceError when it is not positive definite.  The output
    is bit reproducible for a fixed scenario regardless of ``workers``.
    """
    t_start = time.perf_counter()
    # builds the cached factor or raises, and fills the K band cache of the
    # fits' M, so that forked workers inherit both
    embedding_factor(scenario.model)
    _psi_bands(scenario.vanishing_moments)
    seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.replications)
    jobs = [(scenario, s) for s in seeds]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs ~20 ms to import

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
    if isinstance(fields.get("include_univariate"), str):
        fields["include_univariate"] = _parse_scalar(fields["include_univariate"])
    if "omega" not in mapping:
        try:
            p = np.atleast_1d(np.asarray(mapping["d"], dtype=np.float64)).size
            fields["omega"] = omega_from_rho(float(mapping.get("rho", 0.0)), p)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ScenarioError(f"invalid scenario: {exc}") from exc
    return Scenario(**fields)


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
