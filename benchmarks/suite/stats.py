"""Percentiles with honest sample counts, and the noise guard."""

from __future__ import annotations

import itertools
import math
import os
import platform
import sys
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10

#: Calibration drift above this share marks a run as noisy.
NOISY_DRIFT = 0.10


def _rank(count: int, fraction: float) -> int:
    # Nearest rank, 0-based: the smallest value with at least
    # ``fraction`` of the samples at or below it.  The rounding keeps
    # 0.95 * 200 from landing a hair above 190.
    return max(0, math.ceil(round(fraction * count, 9)) - 1)


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (which need not be sorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), fraction)]


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie beyond the ``fraction`` percentile."""
    return count - 1 - _rank(count, fraction) if count else 0


def highest_supported(count: int) -> float | None:
    """The highest standard percentile with ``MIN_BEYOND`` samples beyond
    it, or None when not even the median has them."""
    for fraction in (0.999, 0.99, 0.95, 0.9, 0.75, 0.5):
        if beyond(count, fraction) >= MIN_BEYOND:
            return fraction
    return None


def calibration_seconds() -> float:
    """Time a fixed pure-Python loop: the processor's speed right now.

    Run before and after a workload; a drift above ``NOISY_DRIFT`` means
    something else had the processor and the run is marked noisy.  The
    loop is arithmetic on small ints without a loop counter, so nothing
    is allocated and the state of the allocator after a workload does
    not show.  (A loop that also walked memory was tried: its own speed
    moves by 10-15 % with where the process's pages happen to lie, which
    is the same lottery the workloads are subject to, so it flags
    nothing useful.)
    """
    best = float("inf")
    for _ in range(6):
        start = time.perf_counter()
        x = 1
        for _ in itertools.repeat(None, 400_000):
            x = (x + 1) & 127
        best = min(best, time.perf_counter() - start)
    return best


def drift_share(before: float, after: float) -> float:
    return abs(after - before) / before


def machine_fingerprint() -> dict:
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "loadavg": load,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }
