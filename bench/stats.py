"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

import numpy as np

# A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
# (percentile, samples per thousand that lie beyond it)
_LADDER = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def supported_tail(count: int) -> Optional[float]:
    """The highest percentile of the ladder that leaves at least
    ``TAIL_SAMPLES`` of ``count`` samples beyond it (None: too few
    samples for any tail)."""
    for q, per_thousand in _LADDER:
        if count * per_thousand >= TAIL_SAMPLES * 1000:
            return q
    return None


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """(percentile, value) of the highest supported tail."""
    q = supported_tail(len(values))
    if q is None:
        return None, None
    return q, percentile(values, q)


def mad_share(values: Sequence[float]) -> float:
    """Median absolute deviation as a share of the median."""
    mid = median(values)
    if mid == 0:
        return 0.0
    return median([abs(v - mid) for v in values]) / abs(mid)


def spread_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the driver holds against a metric's bound."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
