"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the same code runs up to 40% faster or slower
from one minute to the next, because of load from other tenants. A run
times this kernel for a short block before and after each pass, and scales
the pass's rate by the host speed of those two blocks, relative to a host
that runs the kernel at REFERENCE_OPS_PER_S. The kernel is the benchmark's
own code, so no change to the program can move it; it mixes what the
program spends its time on: interpreted scalar float arithmetic and small
numpy calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel iterations per second of the host the gated metrics are scaled to,
# a typical rate of a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4.
REFERENCE_OPS_PER_S = 200_000.0
_CHUNK = 5_000  # iterations between clock reads, about 20 ms


def _kernel(iterations: int) -> None:
    w = np.linspace(-1.0, 1.0, 64).reshape(8, 8) / 8.0
    x = np.linspace(0.0, 1.0, 8)
    q = [0.1 * j for j in range(7)]
    for _ in range(iterations):
        for j in range(7):  # interpreted scalar math, like the physics
            s, c = math.sin(q[j]), math.cos(q[j])
            q[j] = 0.9 * q[j] + 0.05 * s * c + 1e-3
        x = np.tanh(w @ x + q[0]) * 0.9  # small numpy calls, like policy and encoder


def block(seconds: float) -> tuple[int, float]:
    """Run the kernel for about ``seconds``; returns (iterations, elapsed seconds)."""
    done = 0
    t0 = time.perf_counter()
    while True:
        _kernel(_CHUNK)
        done += _CHUNK
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return done, elapsed


def speed(*blocks: tuple[int, float]) -> float:
    """Host speed over some blocks, as a multiple of the reference host."""
    return sum(n for n, _ in blocks) / sum(t for _, t in blocks) / REFERENCE_OPS_PER_S
