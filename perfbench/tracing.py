"""Traced replay of a workload's calls and the per-layer metrics it yields.

Spans are recorded here, in the benchmark, around its calls into the
package's public functions; the package itself is not instrumented.  A
replay repeats the pipeline that ``run_scenario`` or ``cli.main`` runs for
one operation, stage by stage, with the same seeds and inputs, right after
the untraced call, and checks that it reproduces the untraced estimates.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from wavewhittle import (
    dwt_pyramid,
    estimate_d,
    estimate_omega,
    estimate_univariate_each,
    objective_R,
    scalogram,
    simulate_arfima,
    spectral_k,
)
from wavewhittle import cli
from wavewhittle.estimator import EstimationConfig, resolve_scales
from wavewhittle.wavelets import WaveletSpec

import workloads

# Micro-timings taken on each replayed operation, outside its spans.
OBJECTIVE_CALLS = 20  # objective_R calls at the fitted d
SPECTRAL_K_CALLS = 4  # warm spectral_k calls on the fit's exponents d_l + d_m


class Tracer:
    """In-memory spans: (id, name, request id, parent id, start ns, end ns)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        span_id = len(self.spans)
        record = [span_id, name, request, self._stack[-1] if self._stack else None,
                  time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._stack.pop()

    def by_request(self, name: str) -> dict[int, float]:
        """Summed duration (ms) of the spans called ``name``, per request id."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s[1] == name:
                out[s[2]] = out.get(s[2], 0.0) + (s[5] - s[4]) / 1e6
        return out

    def self_ms(self, factors: dict[int, float]) -> dict[str, float]:
        """Total self time per span name (duration minus time covered by children),
        each span scaled by its request's factor."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[5] - s[4]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s[1]] = out.get(s[1], 0.0) + factors[s[2]] * (s[5] - s[4] - child[s[0]]) / 1e6
        return out

    def write(self, path) -> None:
        keys = ("id", "name", "request", "parent", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class Replay:
    """Replays operations under one Tracer and keeps the per-fit statistics.

    Each operation carries the host-speed factor (calib.py) measured just
    before it; the metrics scale that operation's spans by it.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.factors: dict[int, float] = {}
        self.fits: list[dict] = []  # diagnostics of every multivariate estimate_d
        self.nonconverged = 0
        self.objective_us: list[float] = []
        self.spectral_k_us: list[float] = []

    def _estimate(self, k: int, panel, spec: WaveletSpec, config: EstimationConfig):
        tr = self.tracer
        j0, j1 = resolve_scales(panel.shape[0], spec, config, panel.shape[1])
        with tr.span("wavelets.dwt_pyramid", k):
            pyramid = dwt_pyramid(panel, spec, j1)
        with tr.span("estimator.scalogram", k):
            scal = scalogram(pyramid, j0, j1)
        with tr.span("estimator.estimate_d", k):
            d_hat, _, diagnostics = estimate_d(scal, config, spec)
        with tr.span("estimator.estimate_omega", k):
            omega = estimate_omega(scal, d_hat, spec, config)[0]
        self.fits.append(diagnostics)
        self.nonconverged += not diagnostics.get("converged", True)
        return scal, d_hat, omega

    def _micro(self, k: int, scal, d_hat, spec: WaveletSpec) -> None:
        """Time objective_R and warm spectral_k calls on one fit, outside any span."""
        for _ in range(OBJECTIVE_CALLS):
            t0 = time.perf_counter_ns()
            objective_R(scal, d_hat)
            self.objective_us.append(self.factors[k] * (time.perf_counter_ns() - t0) / 1e3)
        p = d_hat.size
        deltas = sorted({float(d_hat[i] + d_hat[j]) for i in range(p) for j in range(i, p)})
        for delta in deltas[:SPECTRAL_K_CALLS]:
            t0 = time.perf_counter_ns()
            spectral_k(delta, spec)
            self.spectral_k_us.append(self.factors[k] * (time.perf_counter_ns() - t0) / 1e3)

    def ms(self, name: str) -> list[float]:
        """Calibrated durations (ms) of the spans called ``name``."""
        return [self.factors[s[2]] * (s[5] - s[4]) / 1e6 for s in self.tracer.spans if s[1] == name]

    def ms_by_request(self, name: str) -> dict[int, float]:
        """Calibrated summed duration (ms) of the spans called ``name``, per request."""
        return {k: self.factors[k] * ms for k, ms in self.tracer.by_request(name).items()}

    def replication(self, k: int, scenario, factor: float):
        """Replay run_scenario's single replication of a one-replication scenario."""
        self.factors[k] = factor
        seed = np.random.SeedSequence(scenario.seed).spawn(1)[0]
        spec, config = scenario.wavelet_spec(), scenario.estimation_config()
        with self.tracer.span("replication", k):
            with self.tracer.span("arfima.simulate_arfima", k):
                panel = simulate_arfima(scenario.arfima_spec(seed))
            scal, d_hat, omega = self._estimate(k, panel, spec, config)
            if scenario.include_univariate:
                with self.tracer.span("estimator.estimate_univariate_each", k):
                    _, diags = estimate_univariate_each(panel, spec, config)
                self.nonconverged += sum(not d.get("converged", True) for d in diags)
        self._micro(k, scal, d_hat, spec)
        return d_hat, omega

    def estimate(self, k: int, csv: str, factor: float):
        """Replay ``wavewhittle estimate`` with default flags on one CSV panel."""
        self.factors[k] = factor
        spec = WaveletSpec(vanishing_moments=4)
        with self.tracer.span("estimate", k):
            with self.tracer.span("cli.read_panel", k):
                _, panel = cli.read_panel(csv)
            scal, d_hat, _ = self._estimate(k, panel, spec, EstimationConfig())
        self._micro(k, scal, d_hat, spec)
        return d_hat


def _median(values) -> float:
    return float(statistics.median(values))


def pipeline_metrics(rp: Replay) -> tuple[dict, dict]:
    """Per-layer metrics every replay yields (pyramid through estimate_omega)."""
    fit_ms = rp.ms("estimator.estimate_d")
    evals = [f["function_evaluations"] for f in rp.fits if "function_evaluations" in f]
    sweeps = [f["sweeps"] for f in rp.fits if "sweeps" in f]
    tail_value, tail_pct, tail_n = workloads.tail(fit_ms)
    return {
        "wavelets.dwt_pyramid_ms": _median(rp.ms("wavelets.dwt_pyramid")),
        "wavelets.spectral_k_warm_us": _median(rp.spectral_k_us),
        "estimator.scalogram_ms": _median(rp.ms("estimator.scalogram")),
        "estimator.objective_R_us": _median(rp.objective_us),
        "estimator.estimate_d_ms_p50": _median(fit_ms),
        "estimator.estimate_d_ms_tail": tail_value,
        "estimator.objective_evals_per_fit": float(np.mean(evals)) if evals else 0.0,
        "estimator.cd_sweeps_per_fit": float(np.mean(sweeps)) if sweeps else 0.0,
        "estimator.nonconverged": float(rp.nonconverged),
        "estimator.estimate_omega_ms": _median(rp.ms("estimator.estimate_omega")),
    }, {"estimate_d_tail_percentile": tail_pct, "estimate_d_fits": tail_n}


def _paired_median(untraced: dict[int, float], traced: dict[int, float]) -> float:
    return _median([untraced[k] - traced.get(k, 0.0) for k in untraced])


def _summed(rp: Replay, names) -> dict[int, float]:
    out: dict[int, float] = {}
    for name in names:
        for k, ms in rp.ms_by_request(name).items():
            out[k] = out.get(k, 0.0) + ms
    return out


def mc_metrics(rp: Replay, untraced_ms: dict[int, float], scenario, pool_speedup: float):
    """Per-layer metrics of a Monte-Carlo replay; untraced_ms maps op -> run_scenario ms."""
    stages = _summed(rp, ("arfima.simulate_arfima", "wavelets.dwt_pyramid", "estimator.scalogram",
                          "estimator.estimate_d", "estimator.estimate_omega",
                          "estimator.estimate_univariate_each"))
    trunc = 10 * scenario.n_samples if scenario.truncation is None else scenario.truncation
    metrics, info = pipeline_metrics(rp)
    metrics.update({
        "arfima.simulate_ms": _median(rp.ms("arfima.simulate_arfima")),
        "arfima.innovation_mb": (trunc + scenario.n_samples - 1) * scenario.n_channels * 8 / 1e6,
        "montecarlo.harness_self_ms": _paired_median(untraced_ms, stages),
        "montecarlo.pool_speedup": pool_speedup,
        "trace.overhead_ms": -_paired_median(untraced_ms, rp.ms_by_request("replication")),
    })
    univariate = rp.ms("estimator.estimate_univariate_each")
    if univariate:
        metrics["estimator.univariate_ms"] = _median(univariate)
    return metrics, info


def cli_metrics(rp: Replay, untraced_ms: dict[int, float]):
    """Per-layer metrics of a CLI replay; untraced_ms maps op -> cli.main ms."""
    covered = _summed(rp, ("cli.read_panel", "wavelets.dwt_pyramid", "estimator.scalogram",
                           "estimator.estimate_d", "estimator.estimate_omega"))
    metrics, info = pipeline_metrics(rp)
    metrics.update({
        "cli.read_panel_ms": _median(rp.ms("cli.read_panel")),
        "cli.estimate_self_ms": _paired_median(untraced_ms, covered),
        "trace.overhead_ms": -_paired_median(untraced_ms, rp.ms_by_request("estimate")),
    })
    return metrics, info


def replay_matches(untraced: dict[int, np.ndarray], replayed: dict[int, np.ndarray]) -> float:
    """Largest absolute difference between untraced and replayed d_hat."""
    worst = 0.0
    for k, d in untraced.items():
        diff = float(np.max(np.abs(np.asarray(d) - np.asarray(replayed[k]))))
        worst = max(worst, diff) if math.isfinite(diff) else math.inf
    return worst
