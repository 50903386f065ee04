"""The host's current CPU speed, from a fixed reference loop.

The benchmark runs on a few cores of a shared host whose speed changes in
stretches of seconds: a fixed Python loop takes 30-60% longer in a slow
stretch than in a fast one, and a 30-second run may fall mostly in either.
Raw op times of two runs of the same code then differ by up to 30%.

So the benchmark times `reference_loop` right after every op and reports op
times at the reference speed: each measured time is multiplied by
REFERENCE_S over the median of the loop timings around it (`scale`).  The
loop uses only the standard library (Fraction, dict, str, sorted, the same
kinds of work the package does), so a change to fermatgroups never changes
it, and the garbage collector is off while it runs, so objects the program
keeps alive cannot slow it down either.  A change that makes the program
faster or slower moves the scaled times just as it moves the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

__all__ = ["REFERENCE_S", "factors", "reference_loop", "scale"]

# The loop's median time on a 2-core x86-64 VM (Intel Xeon) with Python
# 3.11.7 in a slow stretch, its usual state (1.98-2.01 ms over five 30-second
# runs).  Scaled times are seconds at that speed, so there they read close
# to the raw ones.
REFERENCE_S = 0.002

# Loop timings on each side of an op that its scale factor is taken from.
WINDOW = 4


def reference_loop() -> float:
    """Seconds one fixed standard-library loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = Fraction(0)
        table = {}
        for i in range(1, 130):
            value = Fraction(i * i + 1, 2 * i + 3)
            total += value * value - Fraction(1, i)
            table[(i % 37, value.denominator % 11)] = str(value)
        sorted((j * 7919) % 1009 for j in range(1500))
        "".join(table.values())
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def factors(loops: list[float]) -> list[float]:
    """Per sample, REFERENCE_S over the median loop timing of its window."""
    return [
        REFERENCE_S / statistics.median(loops[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(loops))
    ]


def scale(seconds: list[float], loops: list[float]) -> list[float]:
    """Times measured in sequence, each followed by one loop timing, at the reference speed."""
    return [s * f for s, f in zip(seconds, factors(loops))]
