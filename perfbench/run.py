"""Benchmark of the wavewhittle package, run from the root of a checkout.

    python3 perfbench/run.py --workload mc_table1 --seed 1 --seconds 25 --trace 0

Imports the package from ``src/`` with BLAS pinned to one thread, derives
every input from ``--seed``, measures for about ``--seconds`` seconds, checks
the outputs against ``perfbench/reference.json``, and prints one JSON line of
run metadata followed by the result line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` replays the
workload's calls under spans and reports the per-layer metrics.  In-process
times are scaled by the host-speed factor of calib.py and cold starts by a
reference cold start (measure_setup); raw times are in the metadata.  Results and spans are also written to ``.perfbench_out/``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The modules here that import wavewhittle (workloads, tracing) are imported
# inside the functions below: main() first puts the checkout's src/ on
# sys.path, and spawned pool workers import this file before that happens.
HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
SETUP_RUNS = 3  # fresh-interpreter cold starts per run; setup_s is their median
# The reference cold start that calibrates setup_s, and its nominal time.
REFERENCE_IMPORTS = "import numpy, scipy.optimize, scipy.signal"
REFERENCE_NOMINAL_S = 1.4
TRACE_SHARE = 0.8  # share of --seconds a traced run spends on untraced ops and their replay
PROBE_OPS = 4  # operations in each fixed small probe of a layer off the workload's path
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("mc_table1", "mc_long", "estimate_wide")

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "arfima.simulate_ms": "ms",
    "arfima.innovation_mb": "MB",
    "wavelets.dwt_pyramid_ms": "ms",
    "wavelets.spectral_k_cold_ms": "ms",
    "wavelets.spectral_k_warm_us": "us",
    "wavelets.psi_hat_sq_ns_per_node": "ns",
    "estimator.scalogram_ms": "ms",
    "estimator.objective_R_us": "us",
    "estimator.estimate_d_ms_p50": "ms",
    "estimator.estimate_d_ms_tail": "ms",
    "estimator.objective_evals_per_fit": "count",
    "estimator.cd_sweeps_per_fit": "count",
    "estimator.nonconverged": "count",
    "estimator.estimate_omega_ms": "ms",
    "estimator.univariate_ms": "ms",
    "montecarlo.harness_self_ms": "ms",
    "montecarlo.pool_speedup": "x",
    "cli.read_panel_ms": "ms",
    "cli.estimate_self_ms": "ms",
    "trace.overhead_ms": "ms",
}
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_ms_p50", "op_ms_tail")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _wall(cmd: list[str], root: Path) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[-1]} failed:\n{proc.stderr}")
    return elapsed, proc.stdout


def measure_setup(root: Path) -> tuple[list[float], list[float], list[float], list[dict]]:
    """SETUP_RUNS cold starts: (calibrated s, raw s, reference s, probe timings).

    Each cold start (setup_probe.py) follows a reference cold start that only
    imports numpy and the scipy modules the package uses.  Both are fresh
    interpreters doing the same kind of work, so their ratio cancels the
    host's speed drift.  The calibrated time is that ratio times
    REFERENCE_NOMINAL_S.
    """
    walls, raws, refs, probes = [], [], [], []
    for _ in range(SETUP_RUNS):
        ref, _ = _wall([sys.executable, "-c", REFERENCE_IMPORTS], root)
        raw, out = _wall([sys.executable, str(HERE / "setup_probe.py")], root)
        factor = REFERENCE_NOMINAL_S / ref
        probe = json.loads(out.strip().splitlines()[-1])
        probe["spectral_k_cold_ms"] *= factor
        walls.append(raw * factor)
        raws.append(raw)
        refs.append(ref)
        probes.append(probe)
    return walls, raws, refs, probes


def run_metadata(root: Path, args) -> dict:
    import numpy as np
    import scipy

    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_library": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# correctness


def mc_check(wl, tally, reference) -> list[str]:
    import gates

    failures = []
    for s, scenario in enumerate(wl.scenarios):
        if not tally.d[s]:
            failures.append(f"{scenario.label}: no kept replications")
            continue
        d_hat, omega_hat = tally.pooled(s)
        failures += [f"{scenario.label}: {m}" for m in gates.mc_gate(
            d_hat, omega_hat, scenario.d, scenario.omega, reference["mc"][scenario.label])]
    return failures


def wide_check(panels, order, results, reference) -> tuple[int, list[str]]:
    """(failed ops, gate failures) for CLI results (op, seconds, code, d_hat, converged)."""
    import numpy as np

    import gates
    from wavewhittle import dwt_pyramid, objective_R, scalogram
    from wavewhittle.estimator import EstimationConfig, resolve_scales
    from wavewhittle.wavelets import WaveletSpec

    spec, config = WaveletSpec(vanishing_moments=4), EstimationConfig()
    scals = {}
    failed = 0
    failures = []
    for k, _, code, d_hat, converged in results:
        panel = panels[order[k % len(order)]]
        failed += code != 0 or not converged
        if d_hat is None:
            continue
        if panel.name not in scals:
            j0, j1 = resolve_scales(panel.values.shape[0], spec, config, panel.values.shape[1])
            scals[panel.name] = scalogram(dwt_pyramid(panel.values, spec, j1), j0, j1)
        ref = reference["wide"][panel.name]
        value = objective_R(scals[panel.name], np.asarray(d_hat))
        failures += [f"{panel.name} op {k}: {m}" for m in gates.wide_gate(
            d_hat, value, np.asarray(ref["d"])[panel.perm], ref["objective"])]
    return failed, failures


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def warm_mc(wl, seed):
    import dataclasses

    from wavewhittle import run_scenario
    import workloads

    for s, scenario in enumerate(wl.scenarios):
        run_scenario(dataclasses.replace(scenario, replications=1,
                                         seed=workloads.derive_seed(seed, s, -1)))


def warm_wide(panels, workdir):
    import workloads

    seen = set()
    for panel in panels:
        shape = panel.values.shape
        if shape not in seen:
            seen.add(shape)
            workloads.cli_estimate(panel.csv, str(workdir / "warm.json"))


def e2e_run(root, workdir, args, reference, cal):
    import workloads

    if args.workload == "estimate_wide":
        panels, order = workloads.wide_inputs(workdir, args.seed)
        warm_wide(panels, workdir)
        res = workloads.wide_timed(panels, order, workdir, args.seconds, cal)
        attempted = len(res["results"])
        failed, failures = wide_check(panels, order, res["results"], reference)
    else:
        wl = workloads.mc_workload(root, args.workload)
        warm_mc(wl, args.seed)
        res = workloads.mc_timed(wl, args.seed, args.seconds, cal)
        attempted, failed = res["tally"].attempted, res["tally"].failed
        failures = mc_check(wl, res["tally"], reference)
    w1, raw = res["w1_s"], res["w1_raw_s"]
    tail_ms, tail_pct, n = workloads.tail([1e3 * t for t in w1])
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops_per_s": len(w1) / sum(w1),
        "op_ms_p50": 1e3 * statistics.median(w1),
        "op_ms_tail": tail_ms,
    }
    info = {
        "ops": n,
        "op_ms_tail_percentile": tail_pct,
        "op_ms": [round(1e3 * t, 3) for t in w1],
        "raw": {
            "ops_per_s": len(raw) / sum(raw),
            "op_ms_p50": 1e3 * statistics.median(raw),
            "op_ms_tail": workloads.tail([1e3 * t for t in raw])[0],
        },
    }
    return metrics, info, attempted, failed, failures


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def trace_mc(wl, seed, seconds, cal):
    """Single-worker ops, each run untraced and then replayed under spans,
    followed by one two-worker block per scenario."""
    import tracing
    import workloads

    tally = workloads.McTally(len(wl.scenarios))
    rp = tracing.Replay()
    untraced_ms, d_untraced, replayed = {}, {}, {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < wl.min_w1 or time.perf_counter() < deadline:
        s, scenario = workloads.mc_op(wl, seed, k)
        factor = cal.factor()
        t0 = time.perf_counter()
        report = tally.run(s, scenario, workers=1)
        untraced_ms[k] = 1e3 * (time.perf_counter() - t0) * factor
        if report is not None and report.raw["d"].shape[0]:
            d_untraced[k] = report.raw["d"][0]
        replayed[k] = rp.replication(k, scenario, cal.factor())[0]
        k += 1
    w1_rate = len(untraced_ms) / (sum(untraced_ms.values()) / 1e3)
    w2_reps, w2_time = 0, 0.0
    factor = cal.factor()
    for c in range(len(wl.scenarios)):
        s, scenario = workloads.mc_block(wl, seed, c)
        t0 = time.perf_counter()
        tally.run(s, scenario, workers=2)
        elapsed = time.perf_counter() - t0
        after = cal.factor()
        w2_time += elapsed * (factor + after) / 2.0
        w2_reps += scenario.replications
        factor = after
    metrics, info = tracing.mc_metrics(rp, untraced_ms, wl.scenarios[0], (w2_reps / w2_time) / w1_rate)
    info["replay_max_abs_diff"] = tracing.replay_matches(d_untraced, replayed)
    return metrics, info, tally, rp


def trace_cli(panels, order, workdir, seconds, min_ops, cal):
    """CLI estimates, each run untraced and then replayed under spans."""
    import tracing
    import workloads

    rp = tracing.Replay()
    ops, untraced_ms, replayed = [], {}, {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_ops or time.perf_counter() < deadline:
        csv = panels[order[k % len(order)]].csv
        factor = cal.factor()
        ops.append((k, *workloads.cli_estimate(csv, str(workdir / "w1.json"))))
        untraced_ms[k] = 1e3 * ops[-1][1] * factor
        replayed[k] = rp.estimate(k, csv, cal.factor())
        k += 1
    metrics, info = tracing.cli_metrics(rp, untraced_ms)
    info["replay_max_abs_diff"] = tracing.replay_matches(
        {op[0]: op[3] for op in ops if op[3] is not None}, replayed)
    return metrics, info, ops, rp


def probe_metrics(workdir, seed, cal) -> dict:
    """Per-layer metrics of every layer on fixed small inputs (p=2, N=512)."""
    import numpy as np

    from wavewhittle import Scenario, omega_from_rho
    import workloads

    probe = workloads.McWorkload(
        [Scenario(d=[0.2, 0.2], omega=omega_from_rho(0.4), n_samples=512, j0=1, label="probe")],
        w2_reps=32, min_w1=PROBE_OPS)
    warm_mc(probe, seed)
    mc = trace_mc(probe, workloads.derive_seed(seed, 1), 0.0, cal)[0]
    rng = np.random.default_rng([workloads.POOL_SEED, 2, 0])
    values = workloads.frac_panel(rng, [0.2, 0.2], 512)
    csv = workdir / "probe.csv"
    np.savetxt(csv, values, delimiter=",", fmt="%.17g", comments="", header="ch1,ch2")
    panels = [workloads.WidePanel("probe", str(csv), np.arange(2), values)]
    warm_wide(panels, workdir)
    cli_side = trace_cli(panels, np.zeros(1, dtype=int), workdir, 0.0, PROBE_OPS, cal)[0]
    return {**cli_side, **mc}


def psi_hat_sq_ns_per_node(cal) -> float:
    import numpy as np

    from wavewhittle import psi_hat_sq
    from wavewhittle.wavelets import WaveletSpec

    nodes = np.linspace(0.1, 1000.0, 1 << 14)
    spec = WaveletSpec(vanishing_moments=4)
    times = []
    for _ in range(3):
        factor = cal.factor()
        t0 = time.perf_counter_ns()
        psi_hat_sq(nodes, spec)
        times.append(factor * (time.perf_counter_ns() - t0) / nodes.size)
    return float(statistics.median(times))


def trace_run(root, workdir, args, reference, probes, out_dir, cal):
    import workloads

    seconds = TRACE_SHARE * args.seconds
    if args.workload == "estimate_wide":
        panels, order = workloads.wide_inputs(workdir, args.seed)
        warm_wide(panels, workdir)
        own, info, ops, rp = trace_cli(panels, order, workdir, seconds, len(order), cal)
        attempted = len(ops)
        failed, failures = wide_check(panels, order, ops, reference)
    else:
        wl = workloads.mc_workload(root, args.workload)
        warm_mc(wl, args.seed)
        own, info, tally, rp = trace_mc(wl, args.seed, seconds, cal)
        attempted, failed = tally.attempted, tally.failed
        failures = mc_check(wl, tally, reference)
    if not info["replay_max_abs_diff"] <= 1e-9:
        failures.append(f"traced replay differs from the untraced run by "
                        f"{info['replay_max_abs_diff']:.3g} in d_hat")
    metrics = probe_metrics(workdir, args.seed, cal)
    metrics.update(own)
    metrics["wavelets.spectral_k_cold_ms"] = statistics.median(p["spectral_k_cold_ms"] for p in probes)
    metrics["wavelets.psi_hat_sq_ns_per_node"] = psi_hat_sq_ns_per_node(cal)
    info["per_layer_source"] = {name: "workload" if name in own else "probe" for name in PER_LAYER}
    info["per_layer_source"]["wavelets.spectral_k_cold_ms"] = "cold start"
    info["per_layer_source"]["wavelets.psi_hat_sq_ns_per_node"] = "2**14 nodes"
    n_ops = len(rp.factors)
    info["layer_self_ms_per_op"] = {
        name: ms / n_ops for name, ms in sorted(rp.tracer.self_ms(rp.factors).items())
    }
    rp.tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics, info, attempted, failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wavewhittle" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        print("error: run from the root of a wavewhittle checkout "
              "(src/wavewhittle and scenarios/ not found)", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = str(root / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import wavewhittle

    import calib

    if Path(wavewhittle.__file__).resolve().parent != (root / "src" / "wavewhittle").resolve():
        print(f"error: wavewhittle imported from {wavewhittle.__file__}, not from src/",
              file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    meta = run_metadata(root, args)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cal = calib.Calibration()
    try:
        walls, raws, refs, probes = measure_setup(root)
        meta["setup"] = {"calibrated_s": walls, "raw_s": raws, "reference_s": refs,
                         "probes": probes}
        if args.trace:
            metrics, info, attempted, failed, failures = trace_run(
                root, workdir, args, reference, probes, out_dir, cal)
        else:
            metrics, info, attempted, failed, failures = e2e_run(root, workdir, args, reference, cal)
            metrics["setup_s"] = statistics.median(walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    names = PER_LAYER if args.trace else END_TO_END
    meta.update(info)
    meta["calibration"] = cal.summary()
    meta["fail_frac"] = failed / attempted
    meta["gate_failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": UNITS[name]} for name in names},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=2)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
