"""Arithmetic shared by run.py, child.py and steady.py.

Pure functions over plain numbers, so the self-test can check them without
running ctrlkit.
"""

from __future__ import annotations

import statistics


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value), or (None, None) when fewer than eleven
    samples exist.  The value is the smallest sample that still has ten
    samples above it.
    """
    n = len(values)
    if n < 11:
        return None, None
    pct = int(100 * (n - 10) / n)
    return pct, sorted(values)[n - 11]


def first_rung_time(rungs):
    """Time to stated accuracy along one step ladder.

    `rungs` is a list of (seconds, met_target) in ladder order.  The result
    is the seconds of the first rung that meets its target, or None when no
    rung does (the item then counts as failed).
    """
    for seconds, met in rungs:
        if met:
            return seconds
    return None


def fail_frac(outcomes):
    """Failed items over attempted items; `outcomes` holds one bool per item."""
    if not outcomes:
        raise ValueError("no items attempted")
    return sum(1 for ok in outcomes if not ok) / len(outcomes)


def spread(values):
    """Quartile distance as a share of the median (the steadiness measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
