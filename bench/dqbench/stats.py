"""Summaries of timing samples: median, quartiles and the tail rule."""

from __future__ import annotations

import math
import statistics

# Tail levels tried from the highest down; a level is reported only when at
# least MIN_BEYOND samples lie beyond it, so it rests on more than a few
# outliers.
TAIL_LEVELS = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest of ``TAIL_LEVELS`` with at least ``MIN_BEYOND`` samples above
    its nearest-rank value, as ``(level, value)``; None when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = math.ceil(level * n / 100.0 - 1e-9)  # 99.9% of 10000 is 9990
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return level, ordered[rank - 1]
    return None


def summarize(samples) -> dict:
    """Median, quartiles, sample count and tail of a list of samples."""
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("no samples to summarize")
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_level"], out["tail"] = tail
    return out

