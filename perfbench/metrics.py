"""Percentiles with the sample-count rule the benchmark reports them under."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # a reported percentile needs at least this many samples above it


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q``-th percentile."""
    return n - math.ceil(q / 100 * n)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; refuses one with too few samples beyond.

    The median is exempt from the rule: it always has half the samples above it.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if q > 50 and samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"{MIN_BEYOND} are needed"
        )
    return ordered[max(1, math.ceil(q / 100 * n)) - 1]


def latency_order(latencies: list[float], failed: list[bool]) -> list[float]:
    """Latencies ascending, each failed op counted as slow as the slowest op of the run.

    A wrong or refused answer may raise a percentile but never lower one.
    """
    worst = max(latencies)
    return sorted(worst if bad else lat for lat, bad in zip(latencies, failed))
