"""Order statistics and the compare verdict used by the perf ledger.

Everything here is plain Python over short lists: the ledger never has
more than a few thousand samples of one metric, and the helpers are
checked against hand values in ``tests/test_ledger.py``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

__all__ = ["median", "quartiles", "percentile", "spread", "summary",
           "worse_by", "verdict"]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q2, q3)`` exactly as ``statistics.quantiles(values, n=4)``.

    The builder contract measures run-to-run spread with that function,
    so the ledger uses the same one; a single sample is its own
    quartiles.
    """
    if len(values) < 2:
        v = float(values[0])
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = int(math.ceil(q / 100.0 * len(ordered))) - 1
    return float(ordered[min(max(rank, 0), len(ordered) - 1)])


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "min": float(min(values)), "q1": q1,
            "median": q2, "q3": q3, "max": float(max(values))}


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive = worse, negative = better, whichever direction the metric
    improves in.
    """
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(base: Sequence[float], new: Sequence[float], *, better: str,
            bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric.

    The medians decide, by the metric's bound.  When either side's
    run-to-run spread is wider than the bound the medians cannot be
    trusted to that precision: the result is ``unresolved`` unless the
    two sets of runs do not overlap at all, in which case every run of
    one side beat every run of the other and the direction is certain.
    """
    shift = worse_by(median(base), median(new), better)
    if max(spread(base), spread(new)) > bound:
        if better == "lower":
            new_wins = max(new) < min(base)
            base_wins = max(base) < min(new)
        else:
            new_wins = min(new) > max(base)
            base_wins = min(base) > max(new)
        if new_wins:
            return "better"
        if base_wins:
            return "worse"
        return "unresolved"
    if shift > bound:
        return "worse"
    if shift < -bound:
        return "better"
    return "same"
