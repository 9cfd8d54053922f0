"""Host-speed calibration for timings taken on a shared, drifting CPU.

On a shared virtual machine the speed of the same code drifts by tens of
percent over tens of seconds.  The benchmark therefore runs a fixed kernel
(its own code, independent of the package) next to every timed operation
and scales each timing by ``CAL_NOMINAL_MS / kernel time``: a reported
"ms" is a millisecond on a host where the kernel takes CAL_NOMINAL_MS.
Raw wall-clock figures are kept in the run metadata.  Cold starts are
calibrated by a reference cold start instead (run.py, measure_setup).
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

CAL_NOMINAL_MS = 2.0
WINDOW = 3  # a factor is the median of the latest WINDOW kernel timings
WARMUP = 5  # untimed kernel runs before the first timing

_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
_V = np.linspace(0.0, 1.0, 1 << 15)


def kernel() -> float:
    """Small-matrix algebra, float formatting and parsing, and one FFT."""
    acc = 0.0
    for i in range(100):
        acc += np.linalg.slogdet(_M + i * 1e-3)[1]
        acc += float(_V[i : i + 64] @ _V[:64])
        acc += float("%.17g" % (i * 0.1))
    return acc + float(np.fft.irfft(np.fft.rfft(_V) * 0.5)[0])


class Calibration:
    """Kernel timings taken so far; ``factor()`` takes a new one."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        for _ in range(WARMUP):
            kernel()

    def factor(self) -> float:
        """Time the kernel now; return CAL_NOMINAL_MS over the recent median."""
        t0 = time.perf_counter()
        kernel()
        ms = 1e3 * (time.perf_counter() - t0)
        self.samples_ms.append(ms)
        self._recent.append(ms)
        return CAL_NOMINAL_MS / statistics.median(self._recent)

    def summary(self) -> dict:
        s = self.samples_ms
        return {"kernel_nominal_ms": CAL_NOMINAL_MS, "kernel_runs": len(s),
                "kernel_ms_min": min(s), "kernel_ms_p50": statistics.median(s),
                "kernel_ms_max": max(s)}
