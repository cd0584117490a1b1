"""Statistics helpers shared by every workload.

Tail latency ("p99") is reported at the highest whole percentile (at
most the 99th) that still has at least ten samples beyond it, so a
short run does not report a "p99" that is really its maximum; only a
population of ten or fewer, where no percentile has ten beyond it,
reports its maximum.  Self time is a span's duration minus the union
of its children's intervals, so overlapping children (a leader's work
seen from two commits) are not subtracted twice.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def tail_percentile(n: int, cap: int = 99, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """The highest whole percentile ``q <= cap`` whose nearest-rank
    value leaves at least ``beyond`` of ``n`` samples above it, or
    None when no percentile can (``n <= beyond``)."""
    for q in range(cap, 0, -1):
        if n - nearest_rank(n, q) >= beyond:
            return q
    return None


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest-rank position of percentile ``q`` among ``n``."""
    return max(1, math.ceil(q / 100.0 * n))


#: the statistics a per-layer time is described by
STATS = ("mean", "p50", "p99")


def summarize(values: Sequence[float]) -> dict:
    """Mean, median, tail (``p99``, see :func:`tail_percentile`) and
    count; zeros for no samples.

    With too few samples for any tail percentile the maximum is
    reported and ``tail_q`` is None."""
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "tail_q": None}
    ordered = sorted(values)
    q = tail_percentile(len(ordered))
    tail = ordered[-1] if q is None else ordered[nearest_rank(len(ordered), q) - 1]
    return {
        "count": len(ordered),
        "mean": statistics.fmean(ordered),
        "p50": ordered[nearest_rank(len(ordered), 50) - 1],
        "p99": tail,
        "tail_q": q,
    }


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)
