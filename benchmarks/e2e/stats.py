"""Order statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401  (re-exported)


def percentile(samples, q):
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(samples):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(samples):
    """Inter-quartile distance as a share of the median (0 for one run)."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / q2 if q2 else 0.0
