"""Streaming percentile histogram.

Latency distributions (query p50/p95/p99 per server) must not require
storing every sample — a paper-scale run issues hundreds of thousands of
messages. :class:`StreamingHistogram` keeps sparse geometric buckets
(HdrHistogram-style): each bucket spans a fixed ratio ``growth``, so the
relative quantile error is bounded by ``growth - 1`` regardless of how
many samples arrive, and memory is O(log(max/min)).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple


class StreamingHistogram:
    """Fixed-relative-error quantile sketch over positive values.

    Values at or below ``min_value`` share the underflow bucket 0;
    larger values land in bucket ``1 + floor(log(v / min_value) /
    log(growth))``. Percentiles interpolate inside the winning bucket
    and are clamped to the observed min/max, so small sample counts
    behave sensibly too.
    """

    __slots__ = ("min_value", "growth", "_log_growth", "_buckets",
                 "count", "total", "min", "max")

    def __init__(self, min_value: float = 1e-6, growth: float = 1.04):
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.min_value = min_value
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        return 1 + int(math.log(value / self.min_value) / self._log_growth)

    def _bounds(self, index: int) -> Tuple[float, float]:
        if index == 0:
            return (0.0, self.min_value)
        lo = self.min_value * self.growth ** (index - 1)
        return (lo, lo * self.growth)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative sample: {value}")
        idx = self._index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Approximate the *pct*-th percentile (0..100)."""
        if not (0.0 <= pct <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if self.count == 0:
            return 0.0
        rank = pct / 100.0 * self.count
        seen = 0
        for idx in sorted(self._buckets):
            n = self._buckets[idx]
            seen += n
            if seen >= rank:
                lo, hi = self._bounds(idx)
                # Interpolate within the bucket by rank position.
                frac = 1.0 - max(0.0, (seen - rank) / n)
                value = lo + (hi - lo) * frac
                return min(max(value, self.min), self.max)
        return self.max

    def percentiles(self, pcts: Iterable[float]) -> List[float]:
        return [self.percentile(p) for p in pcts]

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold *other* into self (bucket layouts must agree)."""
        if (other.min_value, other.growth) != (self.min_value, self.growth):
            raise ValueError("cannot merge histograms with different layouts")
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
