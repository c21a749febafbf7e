"""A fixed reference kernel that measures how fast the machine is right now.

The machine the benchmark was tuned on is a shared virtual machine whose
speed drifts by tens of percent within minutes. A fixed numpy loop ran at
anywhere from 0.38 s to 0.55 s within one minute, and one workload's
operation took from 10.4 s to 17.0 s over an hour. ``run.py`` times this
kernel after the imports, after each set-up phase and after each operation,
and rescales the run's times to a machine on which the kernel takes
``REFERENCE_S``, by dividing by the median kernel time. The kernel mixes the
kinds of work the package does: elementwise numpy, ``bincount``, sorting, a
small matrix product and a Python loop.  It works in place on buffers of
2 MB each, so it adds little to the process's peak memory.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the machine the benchmark was tuned on
REFERENCE_S = 0.26


class Pace:
    """Times the reference kernel; every sample is kept in ``samples``."""

    def __init__(self):
        g = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
        self._a = g.random(250_000)
        self._b = np.empty_like(self._a)
        self._s = np.empty_like(self._a)
        self._i = np.empty(self._a.size, dtype=np.int64)
        self._m = g.random((200, 200))
        self.samples: list = []

    def measure(self) -> float:
        a, b, s, i = self._a, self._b, self._s, self._i
        start = time.perf_counter()
        for _ in range(40):
            np.exp(a, out=b)
            np.multiply(b, a, out=b)
            np.multiply(a, 500.0, out=s)
            i[:] = s
            np.bincount(i, weights=b, minlength=500)
            s[:] = a
            s.sort()
        self._m @ self._m
        total = 0
        for k in range(600_000):
            total += k * k
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed
