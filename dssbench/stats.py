"""Pure arithmetic of the benchmark: percentiles, spread, lateness, span time.

Everything here is a function of plain numbers so that it can be unit
tested without running a workload (see ``test_dssbench.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Matches ``numpy.percentile``'s default method: the rank is
    ``q/100 * (n - 1)`` and the value is interpolated between the two
    neighbouring order statistics.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` — the same quartiles the
    benchmark's acceptance rule is stated in.  0.0 for fewer than two
    values or a zero median.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each open-loop send left against its schedule, in ms.

    Both arguments are ``perf_counter`` seconds.  A send that left early
    (clock jitter in the sleep) counts as on time, not as negative
    lateness.
    """
    if len(due) != len(sent):
        raise ValueError("due and sent must have the same length")
    return [max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent)]


def union_length(intervals: Iterable[Interval], clip: Optional[Interval] = None) -> float:
    """Total length covered by ``intervals`` (overlaps counted once).

    With ``clip``, only the part inside that interval counts.
    """
    pieces = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            pieces.append((start, end))
    pieces.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in pieces:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def coverage(root: Interval, children: Iterable[Interval]) -> float:
    """Share of ``root`` covered by the union of ``children``."""
    length = root[1] - root[0]
    if length <= 0:
        return 0.0
    return union_length(children, clip=root) / length


def self_times(
    spans: Sequence[Tuple[float, float, int]],
) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(start, end, parent)`` where ``parent`` is the
    index of the enclosing span or -1.  A child that overlaps a sibling
    is not subtracted twice.
    """
    children: Dict[int, List[Interval]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = union_length(children.get(index, ()), clip=(start, end))
        out.append(max(0.0, (end - start) - covered))
    return out


def timing_summary(values_ms: Sequence[float]) -> Dict[str, float]:
    """Median, p90, sample count and samples beyond p90 of a latency list."""
    return {
        "p50": statistics.median(values_ms),
        "p90": percentile(values_ms, 90.0),
        "count": len(values_ms),
        "beyond_p90": beyond(values_ms, 90.0),
    }
