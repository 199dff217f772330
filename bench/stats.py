"""Order statistics and the rules that turn runs into verdicts.

Everything here is pure arithmetic over lists of numbers, so
``bench/tests`` pins it without running a workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: a percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: a gain needs the change to win this share of the pairs run.
WIN_SHARE = 0.9

#: and at least this many pairs.
MIN_PAIRS = 10


def rank(percent: int, count: int) -> int:
    """The 1-based nearest rank of the ``percent``-th percentile of ``count``
    samples: the smallest rank whose share of samples is at least ``percent``.

    Integer arithmetic on purpose: ``ceil(p / 100 * n)`` in floating point
    can land one rank high (7% of 100 samples reads 7.000000000000001).
    """
    if count <= 0:
        raise ValueError("no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percentile must be in (0, 100], not {percent}")
    return max(1, -(-percent * count // 100))


def percentile(samples: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile: the ``rank(percent, n)``-th smallest sample."""
    ordered = sorted(samples)
    return ordered[rank(percent, len(ordered)) - 1]


def beyond(percent: int, count: int) -> int:
    """How many of ``count`` samples lie strictly beyond the percentile's rank."""
    return count - rank(percent, count)


def reportable(percents: Sequence[int], count: int) -> List[int]:
    """The percentiles that have at least :data:`MIN_BEYOND` samples beyond
    them, which is the rule that decides what a workload reports."""
    return [p for p in percents if count > 0 and beyond(p, count) >= MIN_BEYOND]


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


@dataclass(frozen=True)
class Metric:
    """One reported number: its unit, which way is better, and its bound.

    ``bound`` is the share of the parent's median by which the metric may
    get worse, and ``floor`` the absolute amount (in ``unit``) below which
    a worsening is noise whatever its share.  A change regresses the
    metric only when it exceeds both.  Per-layer metrics carry no bound.
    """

    name: str
    unit: str
    better: str
    bound: float = 0.0
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.better not in ("lower", "higher"):
            raise ValueError(f"{self.name}: better must be 'lower' or 'higher'")

    def worsening(self, base: float, change: float) -> float:
        """How much worse ``change`` reads than ``base`` (negative: better)."""
        return change - base if self.better == "lower" else base - change

    def regressed(self, base: float, change: float) -> bool:
        """True when ``change`` is worse than ``base`` by more than the bound
        *and* by more than the floor."""
        worse = self.worsening(base, change)
        return worse > self.bound * abs(base) and worse > self.floor


def verdict(metric: Metric, base: Sequence[float], change: Sequence[float]) -> Dict:
    """Judge paired runs of one metric on one workload.

    ``base[i]`` and ``change[i]`` are the i-th pair (same seed, run back to
    back with alternating order).  The verdict is:

    * ``improved`` — the change wins at least 9/10 of the pairs (ties
      count for neither) and the medians differ by more than the base
      runs' interquartile distance and the metric's floor;
    * ``regressed`` — the change's median is worse than the base median
      by more than the metric's bound and floor;
    * ``unresolved`` — neither, with fewer than :data:`MIN_PAIRS` pairs, or
      with a base spread wider than the bound (unless every change run
      reads better than every base run);
    * ``unchanged`` — otherwise.
    """
    if len(base) != len(change):
        raise ValueError("base and change must be paired runs")
    pairs = len(base)
    wins = sum(1 for b, c in zip(base, change) if metric.worsening(b, c) < 0)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    row = {
        "metric": metric.name,
        "unit": metric.unit,
        "pairs": pairs,
        "wins": wins,
        "base": {"q1": b1, "median": bm, "q3": b3},
        "change": {"q1": c1, "median": cm, "q3": c3},
    }
    if pairs < MIN_PAIRS:
        row["verdict"] = "unresolved"
        return row
    if wins >= WIN_SHARE * pairs and abs(cm - bm) > max(b3 - b1, metric.floor):
        row["verdict"] = "improved"
    elif metric.regressed(bm, cm):
        row["verdict"] = "regressed"
    elif spread(base) > metric.bound and not all(
        metric.worsening(b, c) < 0 for b in base for c in change
    ):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row
