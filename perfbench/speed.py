"""Machine-speed calibration for the timed metrics.

The benchmark's hosts are shared: on a 2-core Xeon VM the same pure-Python
work ran up to 50 % slower from one minute to the next, and thread CPU time
moved with wall time, so the slowdown is in the core, not in descheduling.
Interpreter loops, big-integer multiplies and int64 vector arithmetic slowed
together there: each one's time moved by 50 % while the ratios between them
moved by under 10 %.

So a timed query is preceded by one run of ``kernel``, a fixed mix of those
three kinds of work that never calls chocnum, and times are reported at a
reference speed::

    reported = measured * REFERENCE_S / trimmed mean(kernel times around it)

A change to the program moves the measured time and not the kernel, so it
shows in full; a slower minute on the host moves both and cancels.  Raw
times go to the run record beside the scaled ones.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

# The kernel's time at the reference speed, about its median on the 2-core
# Xeon (Python 3.11.7, numpy 2.4.6) the benchmark was written on.
REFERENCE_S = 0.004

_BIG_A = 3 ** 2500
_BIG_B = 5 ** 2100


@functools.cache
def _vector():
    # imported here, not at the top: a set-up probe imports this module,
    # and numpy's import must stay inside the program's own set-up time
    import numpy as np

    return (np.arange(4000, dtype=np.int64) * 7919) % 1009


def kernel() -> int:
    """About 1 ms each of dict-and-int interpreter work, big-integer
    multiply-adds and int64 vector products mod a small prime."""
    counts: dict[int, int] = {}
    for i in range(12_000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    total = 0
    for i in range(60):
        total += _BIG_A * (_BIG_B + i)
    base = vec = _vector()
    for _ in range(40):
        vec = vec * base % 1009
        total += int(vec.sum())
    return total + len(counts)


class Speed:
    """Kernel times taken over one stretch of a run (a pass, or around one
    set-up probe) and the factor that brings that stretch to reference
    speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        """REFERENCE_S over the 10 %-trimmed mean kernel time.  A mean, not
        a median: the host flips between a fast and a slow state every
        tenth of a second or so, and the mean follows the share of time
        spent slow where a median jumps from one state to the other."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return REFERENCE_S * len(kept) / sum(kept)


def pin_to_one_cpu() -> int | None:
    """Keep this process and every child it starts on one CPU, the last it
    may use, so that kernel samples and the timed work share a core: the
    host slows each core on its own.  Returns the CPU, or None where the
    platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
