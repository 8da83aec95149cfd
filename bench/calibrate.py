"""Reference kernel that measures how fast the host runs right now.

The benchmark hosts change speed by up to 2x, in plateaus of seconds to
minutes, and process CPU time follows wall time, so the slowdown is the
host's, not scheduling.  Workers time this fixed kernel between jobs.  A
job's host-normalized time is its wall time times ``REFERENCE_S`` over the
kernel's time around it: the time the job would take on a host where the
kernel takes ``REFERENCE_S``.  The kernel mixes interpreter work and small
LAPACK calls, like the jobs it calibrates.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 2.25e-4
# Time between host-speed samples in a worker's job loop.
SAMPLE_EVERY_NS = 50_000_000

_MATRIX = np.random.default_rng(0).standard_normal((12, 12))
_SYM = _MATRIX @ _MATRIX.T


def _kernel() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(1000):
        table[i % 97] = table.get(i % 89, 0) + i
    for _ in range(8):
        np.linalg.eigh(_SYM)
    return time.perf_counter() - t0


def speed_sample() -> float:
    """Median seconds of three kernel runs; robust to one interrupted run."""
    return statistics.median(_kernel() for _ in range(3))
