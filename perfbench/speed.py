"""A fixed task whose duration tracks the host's current speed.

The shared host's speed drifts by up to 1.6x over periods of ten to twenty
seconds (contention on the host, not steal time: process CPU time grows with
wall time). Timings are scaled by ``REFERENCE_PROBE_S / probe()`` with the
probe run right next to what is timed, so that they read as seconds on a
machine where the probe takes ``REFERENCE_PROBE_S``.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_PROBE_S = 2e-3

_MATRIX = np.random.default_rng(0).normal(size=(192, 192))


def probe() -> float:
    """Seconds this machine takes, right now, for a fixed mix of interpreter
    loops and BLAS products (1.5 to 2 ms on a 2-vCPU Xeon host)."""
    start = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    for _ in range(4):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start
