"""Workload inputs, derived from the workload seed, and the untraced timed passes.

mc_table1      run_scenario on both bundled Table 1 scenario files.
mc_long        run_scenario on one long (N=65536) bivariate scenario.
estimate_wide  in-process ``wavewhittle estimate`` on generated wide CSV panels.

An operation is one replication (one ``run_scenario`` call with
``replications=1``) or one CLI estimate, run one after another by a single
client and timed one by one.  Two-worker blocks (``run_scenario(workers=2)``)
are run only by the traced run, for montecarlo.pool_speedup.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from wavewhittle import Scenario, load_scenario, omega_from_rho, run_scenario
from wavewhittle import cli
from wavewhittle.errors import ScenarioError

# Seed tag separating two-worker blocks from single-worker replications.
W2_TAG = 1 << 20
# Highest percentile op_ms_tail and estimate_d_ms_tail may report.
TAIL_CAP = 90

# estimate_wide draws from a fixed pool of panels whose reference fits are
# recorded in reference.json; the workload seed picks the order in which
# they are estimated, a channel permutation and per-channel offsets (which
# the wavelets annihilate, so the reference fit still applies).
# Three p=20 panels for every p=6 one keep the median estimate inside the
# p=20 latency mode and the tail inside the slower p=6 mode, so that neither
# falls on the boundary between the two and jumps from run to run.
WIDE_SHAPES = (("p20", 20, 4096, 6), ("p6", 6, 16384, 2))
POOL_SEED = 20250808
WIDE_RHO = 0.3


def derive_seed(*words: int) -> int:
    """A 64-bit seed determined by the given integers (taken modulo 2**64)."""
    entropy = [int(w) % (1 << 64) for w in words]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, n): the highest percentile, up to TAIL_CAP, with at
    least ten samples beyond it.

    Without the cap a 25-second mc_table1 run (~500 ops) reports p98, whose
    run-to-run spread (0.165 over ten seeds) is twice that of p90 (0.079).
    Runs with ten samples or fewer have no such percentile; their maximum is
    reported as percentile 100.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return float(v[-1]), 100, n
    i = min(n - 11, TAIL_CAP * n // 100)
    return float(v[i]), 100 * (i + 1) // n, n


# ---------------------------------------------------------------------------
# Monte-Carlo workloads


@dataclasses.dataclass
class McWorkload:
    scenarios: list[Scenario]
    w2_reps: int
    min_w1: int


def mc_workload(root: Path, name: str) -> McWorkload:
    if name == "mc_table1":
        scenarios = [
            dataclasses.replace(load_scenario(root / "scenarios" / f), include_univariate=True)
            for f in ("table1_row3.cfg", "table1_nonstationary.cfg")
        ]
        return McWorkload(scenarios, w2_reps=32, min_w1=8)
    if name == "mc_long":
        long = Scenario(d=[0.1, 0.3], omega=omega_from_rho(0.4), n_samples=65536,
                        vanishing_moments=4, j0=3, include_univariate=False, label="mc-long")
        return McWorkload([long], w2_reps=16, min_w1=4)
    raise ValueError(f"not a Monte-Carlo workload: {name}")


def mc_op(wl: McWorkload, seed: int, k: int) -> tuple[int, Scenario]:
    """Single-worker operation k: (scenario index, one-replication scenario)."""
    s = k % len(wl.scenarios)
    return s, dataclasses.replace(wl.scenarios[s], replications=1, seed=derive_seed(seed, s, k))


def mc_block(wl: McWorkload, seed: int, c: int) -> tuple[int, Scenario]:
    """Two-worker block c: (scenario index, w2_reps-replication scenario)."""
    s = c % len(wl.scenarios)
    return s, dataclasses.replace(wl.scenarios[s], replications=wl.w2_reps,
                                  seed=derive_seed(seed, s, W2_TAG + c))


class McTally:
    """Pooled raw estimates per scenario plus attempted / failed counts."""

    def __init__(self, n_scenarios: int):
        self.d = [[] for _ in range(n_scenarios)]
        self.omega = [[] for _ in range(n_scenarios)]
        self.attempted = 0
        self.failed = 0

    def run(self, s: int, scenario: Scenario, workers: int):
        """Run one scenario, fold its raw estimates in, return the report or None."""
        self.attempted += scenario.replications
        try:
            report = run_scenario(scenario, keep_raw=True, workers=workers)
        except ScenarioError:  # every replication failed
            self.failed += scenario.replications
            return None
        self.failed += report.n_failures
        self.d[s].append(report.raw["d"])
        self.omega[s].append(report.raw["omega"])
        return report

    def pooled(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        return np.concatenate(self.d[s]), np.concatenate(self.omega[s])


def mc_timed(wl: McWorkload, seed: int, seconds: float, cal) -> dict:
    """Untraced single-worker replications for ``seconds``.

    Times are host-speed calibrated (see calib.py); raw ones are kept too.
    """
    tally = McTally(len(wl.scenarios))
    w1, w1_raw = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < wl.min_w1 or time.perf_counter() < deadline:
        s, scenario = mc_op(wl, seed, k)
        factor = cal.factor()
        t0 = time.perf_counter()
        tally.run(s, scenario, workers=1)
        w1_raw.append(time.perf_counter() - t0)
        w1.append(w1_raw[-1] * factor)
        k += 1
    return {"w1_s": w1, "w1_raw_s": w1_raw, "tally": tally}


# ---------------------------------------------------------------------------
# estimate_wide


def frac_panel(rng: np.random.Generator, d, n: int, rho: float = WIDE_RHO) -> np.ndarray:
    """(n, p) fractionally integrated noise, one memory parameter per channel.

    Equicorrelated Gaussian innovations filtered by the MA weights of
    (1 - B)^-d truncated at 4n lags, via FFT.  This is the benchmark's own
    generator, independent of the package's simulator.
    """
    d = np.asarray(d, dtype=np.float64)
    p = d.size
    corr = np.full((p, p), rho)
    np.fill_diagonal(corr, 1.0)
    lags = 4 * n
    z = rng.standard_normal((lags + n - 1, p)) @ np.linalg.cholesky(corr).T
    size = 1 << int(np.ceil(np.log2(2 * lags + n)))
    k = np.arange(1, lags)
    out = np.empty((n, p))
    for ell in range(p):
        weights = np.concatenate(([1.0], np.cumprod((k - 1 + d[ell]) / k)))
        full = np.fft.irfft(np.fft.rfft(z[:, ell], size) * np.fft.rfft(weights, size), size)
        out[:, ell] = full[lags - 1 : lags - 1 + n]
    return out


def wide_pool():
    """Yield (name, d, panel) for the fixed pool of wide panels."""
    for tag, p, n, count in WIDE_SHAPES:
        for k in range(count):
            rng = np.random.default_rng([POOL_SEED, p, k])
            d = np.sort(rng.uniform(-0.1, 0.45, p))
            yield f"{tag}-{k}", d, frac_panel(rng, d, n)


@dataclasses.dataclass
class WidePanel:
    name: str
    csv: str
    perm: np.ndarray  # column c of the CSV is channel perm[c] of the pool panel
    values: np.ndarray  # the panel as written to the CSV


def wide_inputs(workdir: Path, seed: int) -> tuple[list[WidePanel], np.ndarray]:
    """Write this seed's variant of every pool panel; return them and the op order."""
    rng = np.random.default_rng([seed, 7])
    panels = []
    for name, _, panel in wide_pool():
        p = panel.shape[1]
        perm = rng.permutation(p)
        values = panel[:, perm] + rng.uniform(-5.0, 5.0, p)
        path = workdir / f"{name}.csv"
        np.savetxt(path, values, delimiter=",", fmt="%.17g", comments="",
                   header=",".join(f"ch{c + 1}" for c in range(p)))
        panels.append(WidePanel(name, str(path), perm, values))
    return panels, rng.permutation(len(panels))


def cli_estimate(csv: str, report: str) -> tuple[float, int, list | None, bool]:
    """Time one ``wavewhittle estimate`` call; (seconds, exit code, d_hat, converged)."""
    t0 = time.perf_counter()
    code = cli.main(["estimate", "--input", csv, "--output", report])
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, code, None, False
    with open(report, encoding="utf-8") as fh:
        out = json.load(fh)
    return elapsed, code, out["d_hat"], not out["warnings"]["non_convergence"]


def wide_timed(panels, order, workdir: Path, seconds: float, cal) -> dict:
    """Untraced sequential CLI estimates for ``seconds``."""
    ops = []  # (op index, seconds, exit code, d_hat, converged)
    w1 = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(order) or time.perf_counter() < deadline:
        factor = cal.factor()
        ops.append((k, *cli_estimate(panels[order[k % len(order)]].csv, str(workdir / "w1.json"))))
        w1.append(ops[-1][1] * factor)
        k += 1
    return {"w1_s": w1, "w1_raw_s": [op[1] for op in ops], "results": ops}
