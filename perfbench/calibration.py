"""A fixed pure-Python loop that gauges how fast the machine runs Python.

On a shared machine the speed of a core drifts by a quarter or more within
a minute, as other tenants load its sibling threads, caches and memory.
The benchmark times this loop just before and just after everything it
measures, and reports each time scaled to a reference speed: a time ``t``
taken while the loop ran in ``c`` seconds is reported as
``t * REFERENCE_S / c``, where ``c`` is the mean of the readings around
``t``.  The loop is the benchmark's own code, so nothing in posetlex can
change it; a change to posetlex moves the scaled times as it moves the raw
ones.
"""

from __future__ import annotations

import statistics
import threading
import time

#: Iterations of the loop, about 2 ms of work.
STEPS = 4000
#: Runs of the loop per reading; a reading is their median.
RUNS = 3
#: Reported times are seconds on a machine where the loop takes this long.
REFERENCE_S = 0.002


def loop():
    """Integer arithmetic, tuples, dict updates and set unions: the
    staples of posetlex's kernels."""
    x, counts, seen = 1, {}, frozenset()
    for i in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, i & 7)
        counts[key] = counts.get(key, 0) + (x >> 20)
        if not i & 63:
            seen = seen | {key}
    return len(counts) + len(seen)


def reading():
    """Median time of ``RUNS`` runs of the loop, in seconds.

    Only a single-threaded process reads the machine alone: another
    thread of the process would slow the loop and hide its own cost.
    """
    if threading.active_count() != 1:
        raise RuntimeError("calibration needs a single-threaded process")
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before, after):
    """Factor that turns a time taken between two readings into seconds
    at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
