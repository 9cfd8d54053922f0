"""One cold start, run in a fresh interpreter by run.py.

Imports wavewhittle, fills the |psi_hat|^2 band cache through a first
spectral_k call, then estimates a small fixed panel.  Prints a JSON object
with the in-process timings; run.py times the whole process from outside.
"""

import json
import time

t_start = time.perf_counter()

import numpy as np  # noqa: E402

import wavewhittle  # noqa: E402

t_import = time.perf_counter()
spec = wavewhittle.WaveletSpec(vanishing_moments=4)
wavewhittle.spectral_k(0.4, spec)
t_cold = time.perf_counter()
panel = np.random.default_rng(0).standard_normal((512, 2))
estimate = wavewhittle.estimate_panel(panel, spec, wavewhittle.EstimationConfig())
t_end = time.perf_counter()
if not np.all(np.isfinite(estimate.d_hat)):
    raise SystemExit("setup estimate is not finite")
print(json.dumps({
    "import_s": t_import - t_start,
    "spectral_k_cold_ms": 1e3 * (t_cold - t_import),
    "first_estimate_s": t_end - t_cold,
}))
