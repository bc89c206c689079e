"""Host slowdown: how much slower than nominal this machine runs right now.

The shared host runs identical code up to 2x slower for minutes at a
time, in every part of the program alike.  The benchmark divides each
job's and each set-up's wall time by the slowdown measured just before
and just after it: the time of a fixed NumPy and dict computation that
never touches causalqed, over its nominal time.  REF_NOMINAL_S is about
that time on an idle vCPU of a 2-vCPU Intel Xeon virtual machine, so
adjusted times read as seconds at that speed.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REF_NOMINAL_S = 5e-4
_ARRAY = np.arange(64, dtype=float) / 64.0


def _reference_seconds() -> float:
    gc.disable()  # a collection would time the program's heap, not the host
    try:
        start = time.perf_counter()
        acc, table = 0.0, {}
        for k in range(300):
            acc += float(_ARRAY.dot(_ARRAY))
        for k in range(1500):
            key = (k % 97, k % 13)
            table[key] = table.get(key, 0) + k
        return time.perf_counter() - start
    finally:
        gc.enable()


def slowdown() -> float:
    """Median of five reference timings over the nominal reference time."""
    return statistics.median(_reference_seconds() for _ in range(5)) / REF_NOMINAL_S
