"""Percentiles with the sample-count rule.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it, so a p99 needs at least 1,000 samples
(:func:`min_samples`); a run with fewer leaves its p99 out rather than
report a noisier number. Percentiles use the nearest-rank definition
(always an observed sample, so an infinite "refused" sample propagates
as a miss).
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must fall beyond a reported tail percentile.
MIN_BEYOND = 10


def min_samples(fraction: float) -> int:
    """Fewest samples for which :data:`MIN_BEYOND` lie past the
    ``fraction`` percentile (1,000 for p99)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    return math.ceil(round(MIN_BEYOND / (1.0 - fraction), 9))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (unsorted is fine)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Median (mean of the middle two for an even count); 0.0 for none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
