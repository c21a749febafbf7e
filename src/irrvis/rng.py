"""Deterministic random number streams.

Every stochastic routine in the package draws from a stream keyed by
``(seed, index)``.  Streams built this way are independent of execution
order and of how work is split across processes, which is what makes
replicate-level parallelism reproducible: replicate ``r`` sees the same
draws whether it runs first, last, or in another worker.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["substream"]


def substream(seed: int, index: int) -> np.random.Generator:
    """Return a generator for stream ``index`` of a family keyed by ``seed``.

    Uses a counter-based bit generator (Philox) whose 128-bit key is the
    pair itself, so distinct ``(seed, index)`` pairs give independent
    streams and equal pairs give identical ones, on every platform.  Both
    must be integers in [0, 2**64); a bool, a float or a str is rejected,
    not truncated, and a numpy integer is accepted.
    """
    for value in (seed, index):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"seed and stream index must be integers, got {value!r}")
        if not 0 <= value < 1 << 64:
            raise ValueError(f"seed and stream index must be in [0, 2**64), got {value!r}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
