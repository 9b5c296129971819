"""The harness's own arithmetic: op outcomes, tail percentile, self time."""

from __future__ import annotations

import statistics

# Candidate tail percentiles in per-mille.  A fixed ladder keeps the reported
# percentile the same when a faster program fits more ops into a run.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10
TAIL_MIN_OPS = 20


def tail_percentile(latencies, min_beyond: int = TAIL_MIN_BEYOND,
                    min_ops: int = TAIL_MIN_OPS):
    """The highest ladder percentile with at least min_beyond ops above it.

    Returns (percentile, value, op count), or None below min_ops ops.  The
    percentile is nearest-rank: the value at 1-based rank ceil(p * n).
    """
    n = len(latencies)
    if n < min_ops:
        return None
    xs = sorted(latencies)
    best = None
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)
        if n - rank >= min_beyond:
            best = (per_mille / 10, xs[rank - 1], n)
    return best


def fail_counts(outcomes) -> tuple[int, int]:
    """(attempted, failed) over op outcomes.

    An outcome is None when the op ran and passed its check, else a short
    reason: the exception it raised or the check it failed.
    """
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for o in outcomes if o is not None)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus what its children cover.

    A span is a tuple whose items 1, 2 and 3 are start, end and the index of
    its parent span (-1 for none).
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered_ns(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
