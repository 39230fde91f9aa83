"""Order statistics for repeated timings, and the base-vs-head verdict.

Host timings are skewed (a rep can only be slowed down), so every
metric is summarized by its median and quartiles, with a
distribution-free 95 % confidence interval for the median taken from
order statistics -- never by the best of N.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _coverage(n: int, rank: int) -> float:
    """P(x_(rank) <= median <= x_(n+1-rank)) for a continuous variable:
    the chance that Binomial(n, 1/2) lands in [rank, n - rank]."""
    return sum(math.comb(n, i) for i in range(rank, n - rank + 1)) / 2.0 ** n


def median_ci(values: Sequence[float], level: float = 0.95):
    """Order-statistic confidence interval for the median.

    Returns ``(low, high, coverage)``: the narrowest symmetric pair of
    order statistics whose coverage is at least ``level``.  Fewer than
    six samples cannot reach 95 %; the interval is then the full range
    and ``coverage`` says what it actually achieves.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = 1
    while rank + 1 <= n - rank and _coverage(n, rank + 1) >= level:
        rank += 1
    return ordered[rank - 1], ordered[n - rank], _coverage(n, rank)


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """n, median, q1/q3 and the 95 % CI half-width of one metric."""
    q1, median, q3 = quartiles(values)
    low, high, coverage = median_ci(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "ci95_half": (high - low) / 2.0,
        "ci_coverage": coverage,
        "samples": list(values),
    }


def verdict(base: Sequence[float], head: Sequence[float], bound: float,
            better: str) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved``.

    ``worse``: head's median is worse than base's by more than
    ``bound`` (a share of base's median), and base's own quartile
    spread is within the bound or every head sample is worse than
    every base sample.  ``better``: head wins at least nine tenths of
    all (base, head) sample pairs and the medians differ by more than
    base's quartile spread.  A median within the bound is
    ``unchanged`` unless base's spread is wider than the bound, which
    makes the pairing ``unresolved``.
    """
    sign = 1.0 if better == "lower" else -1.0
    _, base_median, _ = quartiles(base)
    _, head_median, _ = quartiles(head)
    q1, _, q3 = quartiles(base)
    spread = (q3 - q1) / abs(base_median) if base_median else math.inf
    worsening = sign * (head_median - base_median) / abs(base_median) \
        if base_median else 0.0
    head_all_worse = min(sign * h for h in head) > max(sign * b for b in base)
    head_all_better = max(sign * h for h in head) < min(sign * b for b in base)
    if worsening > bound:
        return "worse" if spread <= bound or head_all_worse else "unresolved"
    pairs = [(b, h) for b in base for h in head]
    wins = sum(1 for b, h in pairs if sign * h < sign * b)
    if wins >= 0.9 * len(pairs) and abs(head_median - base_median) > q3 - q1:
        return "better"
    if spread > bound and not head_all_better:
        return "unresolved"
    return "unchanged"
