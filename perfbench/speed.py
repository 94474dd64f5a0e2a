"""The machine's speed during a run, read from a fixed probe kernel.

The small shared VMs this benchmark runs on change speed by up to 1.8x,
in stretches of a few seconds to minutes, and a whole 30 s run can fall in
a fast or a slow stretch.  Statistics over one run's passes cannot remove
that.  So the run times ``probe_kernel`` every PROBE_EVERY_S between jobs.
Each time measured in the run is scaled by PROBE_REF_S over the median
probe time near it (from PROBE_WINDOW_S before it starts to PROBE_WINDOW_S
after it ends).  The result is the time it would have taken at the speed
at which the kernel takes PROBE_REF_S.

The kernel calls nothing in homforge.  Its time moves with the machine and
never with the code under test, so a change to the library moves the
scaled times as much as the raw ones.  run.py prints the raw times in its
context line.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0
# About the median time of probe_kernel() on a 2-vCPU Xeon VM with
# Python 3.11.7 and numpy 2.4.6, where the bounds were set.
PROBE_REF_S = 0.0045


def probe_kernel() -> int:
    """A few milliseconds of the two kinds of work the library does:
    interpreter work on dicts, tuples and small ints, and numpy calls on
    small arrays."""
    import numpy as np
    table: dict[int, int] = {}
    acc, rows = 0, []
    for i in range(6000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
        if i % 8 == 0:
            rows.append((key, i & 255))
    rows.sort()
    x = np.arange(512, dtype=np.int64)
    for _ in range(200):
        x = (x * 3 + 1) % 5
    return acc + len(rows) + int(x[0])


class Speed:
    """Probe times and the moments they were taken."""

    def __init__(self):
        probe_kernel()  # warm-up: the first call runs unspecialised bytecode
        self.at: list[float] = []
        self.took: list[float] = []
        self.jobs: list[tuple[float, float]] = []  # (start, end) of each job run
        self.last = float("-inf")

    def probe(self) -> float:
        """Time the kernel once, with the collector held off so that the
        library's heap cannot slow it.  Returns the seconds spent."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe_kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1
        return time.perf_counter() - t0

    def due(self, now: float) -> float:
        """Probe if PROBE_EVERY_S has passed since the last probe; returns
        the seconds spent."""
        return self.probe() if now - self.last >= PROBE_EVERY_S else 0.0

    def scale(self, t0: float, t1: float) -> float:
        """The factor that takes a time measured from t0 to t1 to the
        reference speed."""
        lo = bisect.bisect_left(self.at, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_WINDOW_S)
        near = self.took[lo:hi]
        if not near:  # no probe close by: the nearest one
            i = min(bisect.bisect_left(self.at, t0), len(self.at) - 1)
            near = self.took[i:i + 1]
        return PROBE_REF_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.took)
