"""The benchmark's reference clock.

On a shared virtual machine the same call can take 30% longer a minute later
because the host is busier, and a time measured in one run says little about
the next.  The benchmark therefore also times a fixed calibration kernel right
before and right after each measured interval, and reports times on a
reference clock: a wall time is divided by ``slowdown``, the mean of the two
kernel times over ``REFERENCE_S``.  The kernel runs in ``run.py``, while the
process under test waits with its process group stopped, so that nothing that
process leaves behind (garbage, leftover work) can slow the kernel and cancel
out of the metric.

The kernel imitates the mix of the workloads (a Python union-find like
``clusters.decompose``, stacked small symmetric eigensolves like
``spectral``, geometric draws like ``ensemble``) and uses nothing from erlap,
so a change to erlap moves the program's times but never the kernel's.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU Intel Xeon host the first baseline was
# taken on, with one BLAS thread.  It fixes the unit of the reference clock.
REFERENCE_S = 0.25
# kernel runs per calibration
REPEATS = 10


def _kernel() -> None:
    rng = np.random.default_rng(12345)
    n = 30_000
    parent = list(range(n))
    size = [1] * n
    for a, b in rng.integers(0, n, size=(15_000, 2)).tolist():
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
    m = rng.random((300, 12, 12))
    np.linalg.eigvalsh(m + m.transpose(0, 2, 1))
    np.cumsum(rng.geometric(2.5e-5, size=300_000))


def calibrate() -> float:
    """Seconds the kernel takes now, with the cyclic garbage collector off so
    that objects the program left alive cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowdown(*kernel_s: float) -> float:
    """How much slower than the reference clock the host ran around one interval."""
    return statistics.fmean(kernel_s) / REFERENCE_S
