"""Host speed calibration for op timings.

The benchmark runs on shared machines whose speed drifts while it runs.  On
a shared 2-core Intel Xeon VM, a fixed pure-Python loop took 13-15 ms
for half a minute and 20-22 ms for the next, and the median latency of one
example2 replicate spread by 9-25% (quartile distance over median) between
25 s runs.  A run cannot average that out.  So a fixed calibration kernel,
which does the same kind of work as the op but never calls the package, is
timed before and after every op, and each op time is scaled by
``reference / kernel time``, the kernel time being the mean of those two
samples.  Timings are thus reported in seconds at the reference host speed.
The host switches between fast and slow states within seconds, so only the
samples next to an op describe it; run-wide or windowed kernel medians
tracked the ops worse.

The kernels and their reference times are part of the benchmark's
definition: changing either changes every reported timing.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel seconds in the fast state of a shared 2-core Intel Xeon VM (about
# the 25th percentile of a few hundred samples).  They only fix the unit;
# any constant would keep runs comparable with each other.
REFERENCE_S = {"interpreter": 2.3e-3, "blas": 6.7e-3}
RUNS_PER_SAMPLE = 4


class Calibration:
    """Times one fixed kernel to estimate the host's current speed."""

    def __init__(self, kind: str):
        self.kind = kind
        self.reference = REFERENCE_S[kind]
        if kind == "interpreter":
            x = np.linspace(-1.0, 1.0, 200)

            def kernel() -> float:
                # small numpy calls driven from Python, like a grid sweep over
                # two-column designs
                total = 0.0
                for k in range(200):
                    phi = np.exp(np.abs(x[:, None] - np.array([-0.5 + 1e-3 * k, 0.5])[None, :]))
                    total += float(np.linalg.cholesky(phi.T @ phi)[1, 1])
                return total

        else:
            g = np.random.default_rng(0).standard_normal((500, 500))
            a = g @ g.T / 500.0 + np.eye(500)

            def kernel() -> float:
                # one dense factorization and product, like a scaled-down
                # N x N evidence computation
                return float(np.linalg.cholesky(a)[-1, -1] + (a @ a)[0, 0])

        self._kernel = kernel
        self._kernel()

    def sample(self) -> float:
        """Kernel seconds now: the median of four runs, so that one run slowed
        by an interrupt is not read as a change of host speed."""
        runs = []
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    def factor(self, before: float, after: float) -> float:
        """Factor taking seconds measured between two samples to reference seconds."""
        return self.reference / (0.5 * (before + after))
