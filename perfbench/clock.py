"""Times in reference seconds: wall time corrected for the CPU's speed.

The shared machines this benchmark runs on change the speed of a core by
up to half, for a few seconds at a time, and drift over tens of minutes.
A wall-clock median over a run then depends on how much of the run fell
in a slow spell.  ``RefClock`` runs a fixed pure-Python kernel between
ops, at least every ``EVERY_S`` seconds, and converts a wall interval to
reference seconds as::

    wall * REF_KERNEL_S / (median kernel time around the interval)

that is, the time the interval would have taken on a machine where the
kernel takes ``REF_KERNEL_S``.  The kernel never calls the package, so a
change to the package moves op times and leaves the kernel alone.  Kernel
runs are not part of any op's time.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REF_KERNEL_S = 0.004   # the kernel's time on the reference machine
EVERY_S = 0.05         # calibrate at least this often between ops
WINDOW_S = 0.25        # kernel runs this close to an interval set its speed


def kernel() -> int:
    """Fixed interpreter work of the kind the package does: small-int
    arithmetic, tuples, list appends and dict updates, and many small
    objects made and freed (which tracks the package's speed better than
    arithmetic alone)."""
    made = {}
    for i in range(3000):
        made[(i, i + 1)] = [i, 2 * i, (i,)]
    counts: dict[int, int] = {}
    row: list[tuple[int, int]] = []
    total = 0
    for i in range(6000):
        key = (i * 7919) % 613
        counts[key] = counts.get(key, 0) + 1
        row.append((key, i & 15))
        if len(row) == 32:
            total += sum(a - b for a, b in row)
            row.clear()
    return total + len(counts) + len(made)


class RefClock:
    def __init__(self):
        self.stamps: list[float] = []    # wall time at the end of each kernel run
        self.kernel_s: list[float] = []  # and its duration
        for _ in range(5):               # warm the kernel's code and memory
            kernel()
        self.calibrate()

    def calibrate(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.stamps.append(end)
        self.kernel_s.append(end - start)

    def tick(self) -> None:
        """Calibrate if the last kernel run is older than ``EVERY_S``."""
        if perf_counter() - self.stamps[-1] >= EVERY_S:
            self.calibrate()

    def recent_factor(self) -> float:
        """Wall seconds per reference second, from the last few kernel runs."""
        return statistics.median(self.kernel_s[-5:]) / REF_KERNEL_S

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]: from the
        kernel runs within ``WINDOW_S`` of it, and at least the nearest run
        on each side."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        first = bisect.bisect_left(self.stamps, start)
        lo = min(lo, max(first - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.stamps, end) + 1, len(self.stamps)))
        return REF_KERNEL_S / statistics.median(self.kernel_s[lo:hi])

    def ref_seconds(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
