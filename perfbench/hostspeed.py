"""Host-speed reference for the benchmark's timings.

Shared hosts drift: the same pure-Python loop has been seen to take
anywhere from 1x to 2x its fastest time within a minute, with process
CPU time swinging alike, so the drift is contention for the machine,
not scheduling.  Every timed call is therefore bracketed by a short
fixed loop, and its wall time is reported adjusted to a nominal host on
which that loop takes ``NOMINAL_S``:

    adjusted = wall * NOMINAL_S / mean(loop time before, loop time after)

The raw wall times are kept next to the adjusted ones.  The loop does
not touch the toolkit, so a change in the toolkit cannot move it.
"""

from __future__ import annotations

import time

ITERATIONS = 50_000
NOMINAL_S = 0.005


def reference_loop(iterations: int = ITERATIONS) -> float:
    """Seconds taken by fixed pure-Python arithmetic."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def adjust(wall: float, before: float, after: float) -> float:
    return wall * NOMINAL_S / ((before + after) / 2)
