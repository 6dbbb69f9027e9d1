"""Summaries of repeated measurements: medians, quartiles and the tail."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(percentile, value, n) of the highest percentile that still has
    :data:`TAIL_BEYOND` samples beyond it.

    That is the ``(n - 10)``-th smallest sample: p99 at n = 1000.  Below
    ``2 * TAIL_BEYOND`` samples no percentile at or above the median
    qualifies, so the median sample is reported and the caller sees the
    percentile it got.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else (n + 1) // 2
    return 100.0 * rank / n, ordered[rank - 1], n


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and n of one metric's per-run values."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return dict(median=median, q1=q1, q3=q3, n=len(values), values=values)


def spread(summary: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0
