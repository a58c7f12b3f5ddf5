"""Fixed calibration kernel: how fast the machine runs right now.

The benchmark's host shares its cores with other tenants, and its speed
drifts as a whole (both CPUs together, CPU time as much as wall time) by
up to 30% over tens of seconds.  A run that lands in a slow spell reads
slow throughout, so medians of raw wall time differ from run to run by
more than any useful regression bound.  Each task repetition is therefore
bracketed by this kernel, and the end-to-end times are also reported
divided by the mean of the two bracketing kernel times.

The kernel is frozen benchmark code, never the program under test, and it
mixes the program's kinds of work at the program's sizes: small `einsum`
dispatches (the gradient kernel), a fancy-index gather from a
(100, 200, 20) array (the minibatch gather), 64-bit integer mixing (the
counter RNG) and 17-digit float formatting (the CSV and report writers).
One call takes about 50 ms on a shared 2-core x86-64 virtual machine.
"""

from __future__ import annotations

import time

import numpy as np

_REPEATS = 300


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._features = rng.standard_normal((32, 10, 20))
        self._thetas = rng.standard_normal((32, 20))
        self._pool = rng.standard_normal((100, 200, 20))
        self._index = rng.integers(0, 200, size=(100, 10))
        self._rows = np.arange(100)[:, None]
        self._words = np.arange(1000, dtype=np.uint64)

    def __call__(self):
        """Seconds taken by one pass of the fixed kernel."""
        start = time.perf_counter()
        thetas = self._thetas
        for _ in range(_REPEATS):
            margin = np.einsum("nmd,nd->nm", self._features, thetas)
            grads = np.einsum("nm,nmd->nd", margin, self._features)
            thetas = self._thetas - 1e-3 * grads
            self._pool[self._rows, self._index]
            with np.errstate(over="ignore"):
                words = self._words * np.uint64(0x9E3779B97F4A7C15)
                words ^= words >> np.uint64(31)
        ",".join(f"{v:.17g}" for v in self._pool.ravel()[:20000])
        return time.perf_counter() - start
