"""The host's pace, measured with a fixed loop.

The benchmark runs on shared machines whose speed drifts by tens of percent
for minutes at a time, on every core alike; a run of a few tens of seconds
cannot average that out.  So the worker times this loop before and after
every operation, and the end-to-end times are scaled by
REFERENCE_S / (the loop's time): seconds at the reference pace.  A program
that gets slower still reads slower, since the loop does not change with
the program.

The loop mixes the kinds of work the workloads do, because they do not all
slow alike: integer arithmetic in the interpreter, dict updates, and small
NumPy matrix-vector products in a Python loop.  In a five-minute trial this
mix followed the operations better than any one part of it alone.  It uses
only the interpreter and NumPy, and none of hitbounds.
"""

import statistics
import time

import numpy as np

# The loop's median time on the reference host (a 2-core Intel Xeon VM at
# 2.0 GHz), so that times at the reference pace read as seconds there.
REFERENCE_S = 0.011

_MATRIX = np.full((60, 60), 1.0 / 60.0)


def _loop() -> None:
    s = 0
    for i in range(50_000):
        s += i * i % 7
    counts = {}
    for i in range(15_000):
        key = i * 7919 % 997
        counts[key] = counts.get(key, 0) + 1
    v = np.ones(60)
    for _ in range(1_100):
        v = _MATRIX @ v
        v *= 0.999


def sample() -> float:
    """Seconds the loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def median_sample(count: int) -> float:
    return statistics.median(sample() for _ in range(count))


def at_reference(seconds: float, loop_seconds: float) -> float:
    """seconds measured while the loop took loop_seconds, at the reference pace."""
    return seconds * REFERENCE_S / loop_seconds
