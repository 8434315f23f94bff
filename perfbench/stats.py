"""Summary arithmetic for the benchmark: percentiles, failure share, spread.

Kept free of numpy and of the anomex package so the tests can check it
in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A percentile is reported only when at least this many samples lie
# beyond it, so p95 needs 200 samples.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(values: Sequence[float], q: float = 95.0) -> float | None:
    """``percentile(values, q)`` if enough samples lie beyond it, else None."""
    if len(values) * (100.0 - q) / 100.0 < MIN_SAMPLES_BEYOND - 1e-9:
        return None
    return percentile(values, q)


def summarize(values: Sequence[float]) -> dict:
    """Median, p95 when it has enough support, and the sample count."""
    return {
        "p50": statistics.median(values),
        "p95": tail_percentile(values, 95.0),
        "n": len(values),
    }


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles from ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
