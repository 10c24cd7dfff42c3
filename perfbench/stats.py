"""Summary statistics and the parent-versus-change verdict."""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Summary:
    n: int
    median: float
    q1: float
    q3: float

    @property
    def spread(self) -> float:
        """Interquartile distance as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) if self.median else float("inf")


def summarize(values) -> Summary:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    data = list(values)
    if len(data) == 1:
        return Summary(1, data[0], data[0], data[0])
    q1, median, q3 = statistics.quantiles(data, n=4)
    return Summary(len(data), median, q1, q3)


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, float]:
    """Classify a change against its parent for one metric on one workload.

    ``parent[i]`` and ``change[i]`` are paired runs (same seed).  Returns the
    verdict and the share of pairs the change won (ties count for neither).

    - improved: the change wins at least nine tenths of the pairs and the
      medians differ by more than the parent's interquartile distance;
    - unresolved: the parent's own spread exceeds the bound, unless every
      change run is better than every parent run;
    - worse: the change's median is worse than the parent's by more than
      the bound (a share of the parent's median);
    - no worse: otherwise.

    Identical runs on both sides read "same".  Without a bound (per-layer
    metrics) the others are improved, worse (the mirror of the improved
    rule) and unresolved.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if list(parent) == list(change):
        return "same", 0.0
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    win_fraction = wins / len(parent)
    p, c = summarize(parent), summarize(change)
    gain = sign * (c.median - p.median)
    iqr = p.q3 - p.q1
    if win_fraction >= 0.9 and gain > iqr:
        return "improved", win_fraction
    if bound is None:
        if losses / len(parent) >= 0.9 and -gain > iqr:
            return "worse", win_fraction
        return "unresolved", win_fraction
    all_better = min(sign * x for x in change) > max(sign * x for x in parent)
    if p.spread > bound and not all_better:
        return "unresolved", win_fraction
    if -gain > bound * abs(p.median):
        return "worse", win_fraction
    return "no worse", win_fraction
