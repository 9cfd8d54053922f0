"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py -q

Tiny runs of every workload must print every named metric with its unit,
and every correctness gate must reject a perturbed result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_metrics_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [m["name"] for m in BENCHMARK[key]] == list(names)
        for metric in BENCHMARK[key]:
            assert metric["unit"] == run.UNITS[metric["name"]]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], meta["gate_failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
    for key in ("git_sha", "nproc", "python", "numpy", "scipy", "blas_threads", "seed", "src_lines"):
        assert key in meta


def test_run_fails_without_the_package():
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(Path(__file__).parent, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(tmp, "--workload", "mc_table1", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_up_to_p90_with_ten_samples_beyond():
    assert workloads.tail(range(50)) == (39.0, 80, 50)
    assert workloads.tail(range(100)) == (89.0, 90, 100)
    assert workloads.tail(range(1000)) == (900.0, 90, 1000)
    assert workloads.tail(range(5)) == (4.0, 100, 5)


def _mc_sample(ref, d_true, omega_true, n, rng):
    p = len(d_true)
    d_hat = np.column_stack([
        d_true[ell] + ref["d_bias"][ell] + ref["d_std"][ell] * rng.standard_normal(n)
        for ell in range(p)
    ])
    omega_hat = np.empty((n, p, p))
    for ell in range(p):
        for m in range(ell, p):
            noise = ref["omega_rmse"][f"{ell + 1}_{m + 1}"] * rng.standard_normal(n)
            omega_hat[:, ell, m] = omega_hat[:, m, ell] = omega_true[ell, m] + noise
    return d_hat, omega_hat


@pytest.mark.parametrize("workload", ["mc_table1", "mc_long"])
def test_mc_gate_accepts_reference_like_results_and_rejects_perturbed_ones(workload):
    rng = np.random.default_rng(0)
    for scenario in workloads.mc_workload(ROOT, workload).scenarios:
        ref = REFERENCE["mc"][scenario.label]
        d_hat, omega_hat = _mc_sample(ref, scenario.d, scenario.omega, 200, rng)
        assert gates.mc_gate(d_hat, omega_hat, scenario.d, scenario.omega, ref) == []
        assert gates.mc_gate(d_hat + 0.1, omega_hat, scenario.d, scenario.omega, ref)
        assert gates.mc_gate(d_hat, 1.5 * omega_hat, scenario.d, scenario.omega, ref)


def test_wide_gate_accepts_the_reference_fit_and_rejects_perturbed_ones():
    from wavewhittle import dwt_pyramid, objective_R, scalogram
    from wavewhittle.estimator import EstimationConfig, resolve_scales
    from wavewhittle.wavelets import WaveletSpec

    spec = WaveletSpec(vanishing_moments=4)
    name, _, panel = next(item for item in workloads.wide_pool() if item[0] == "p6-0")
    j0, j1 = resolve_scales(panel.shape[0], spec, EstimationConfig(), panel.shape[1])
    scal = scalogram(dwt_pyramid(panel, spec, j1), j0, j1)
    ref = REFERENCE["wide"][name]
    d_ref = np.asarray(ref["d"])
    assert gates.wide_gate(d_ref, objective_R(scal, d_ref), d_ref, ref["objective"]) == []
    shifted = d_ref + 0.1
    assert len(gates.wide_gate(shifted, objective_R(scal, shifted), d_ref, ref["objective"])) == 2
    assert gates.wide_gate(d_ref, ref["objective"] + 1e-3, d_ref, ref["objective"])
