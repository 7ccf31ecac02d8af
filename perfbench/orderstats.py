"""Order statistics for benchmark timings.

A timing is reported as its median and the highest percentile that still has
at least MIN_TAIL samples beyond it, together with the sample count.
"""

from __future__ import annotations

import math

MIN_TAIL = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """p-th percentile by linear interpolation between closest ranks (the
    default method of numpy.percentile)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(count: int, p: float) -> float:
    """Number of samples above the p-th percentile of `count` (rounded so that
    decimal percentiles such as 99.9 do not lose the last unit)."""
    return round(count * (100.0 - p) / 100.0, 9)


def tail_percentile(count: int) -> float | None:
    """Highest percentile in PERCENTILES with at least MIN_TAIL samples beyond
    it, or None when even the median has fewer."""
    for p in PERCENTILES:
        if samples_beyond(count, p) >= MIN_TAIL:
            return p
    return None
