"""Record the reference values the correctness gates compare against.

    python3 perfbench/record_reference.py      # from the root of a checkout

Writes perfbench/reference.json: bias / std / RMSE of every Monte-Carlo
scenario the benchmark runs, from one large seeded run each, and the fit
(d_hat and the objective at d_hat) of every panel in the estimate_wide pool.
Re-record only when the estimator's answers are meant to change, and say so.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 20250808
REFERENCE_REPS = {"table1-row3": 1000, "table1-nonstationary": 1000, "mc-long": 200}


def main() -> int:
    root = Path.cwd()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import dataclasses

    import numpy as np
    import scipy

    from wavewhittle import EstimationConfig, WaveletSpec, estimate_panel, run_scenario
    import workloads

    mc = {}
    for name in ("mc_table1", "mc_long"):
        for scenario in workloads.mc_workload(root, name).scenarios:
            reps = REFERENCE_REPS[scenario.label]
            report = run_scenario(dataclasses.replace(scenario, replications=reps, seed=REFERENCE_SEED),
                                  keep_raw=True, workers=2)
            if report.n_failures:
                raise SystemExit(f"{scenario.label}: {report.n_failures} failed replications")
            p = scenario.n_channels
            recs = {rec["quantity"]: rec for rec in report.records}
            mc[scenario.label] = {
                "n": reps,
                "seed": REFERENCE_SEED,
                "d_bias": [recs[f"d_{i + 1}"]["bias"] for i in range(p)],
                "d_std": [recs[f"d_{i + 1}"]["std"] for i in range(p)],
                "d_rmse": [recs[f"d_{i + 1}"]["rmse"] for i in range(p)],
                "omega_rmse": {f"{i + 1}_{j + 1}": recs[f"omega_{i + 1}_{j + 1}"]["rmse"]
                               for i in range(p) for j in range(i, p)},
            }
            print(scenario.label, mc[scenario.label], flush=True)
    wide = {}
    for name, d_true, panel in workloads.wide_pool():
        est = estimate_panel(panel, WaveletSpec(vanishing_moments=4), EstimationConfig())
        if not est.diagnostics.get("converged", True):
            raise SystemExit(f"{name}: reference fit did not converge")
        wide[name] = {"d": est.d_hat.tolist(), "objective": est.objective_value,
                      "d_generating": d_true.tolist()}
        print(name, wide[name]["d"], flush=True)
    reference = {
        "recorded_with": {"numpy": np.__version__, "scipy": scipy.__version__},
        "mc": mc,
        "wide": wide,
    }
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
