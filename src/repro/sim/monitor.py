"""Measurement primitives: utilization trackers and latency stats.

These are deliberately simple and allocation-light because they sit on
the simulator's hot paths.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = [
    "TimeWeightedValue",
    "LatencyRecorder",
    "percentile",
    "summarize",
]


def percentile(sorted_values: List[float], p: float) -> float:
    """Linear-interpolation percentile of an already-sorted list.

    ``p`` is in [0, 100]. Raises ``ValueError`` on an empty list.
    """
    if not sorted_values:
        raise ValueError("percentile of empty list")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    frac = rank - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


class TimeWeightedValue:
    """Tracks the time-weighted average of a piecewise-constant value.

    Used for resource utilization: set the value whenever it changes and
    read ``average(now)`` at the end of a run.
    """

    __slots__ = ("_value", "_last_change", "_weighted_sum", "_start_time")

    def __init__(self, initial: float = 0.0, start_time: float = 0.0):
        self._value = initial
        self._last_change = start_time
        self._weighted_sum = 0.0
        self._start_time = start_time

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float, now: float) -> None:
        self._weighted_sum += self._value * (now - self._last_change)
        self._value = value
        self._last_change = now

    def add(self, delta: float, now: float) -> None:
        # set(), unrolled: this runs on every busy/idle edge of the
        # CPU, DMA and NoC models.
        value = self._value
        self._weighted_sum += value * (now - self._last_change)
        self._value = value + delta
        self._last_change = now

    def average(self, now: float) -> float:
        """Time-weighted average over [start_time, now]."""
        elapsed = now - self._start_time
        if elapsed <= 0:
            return self._value
        return (self._weighted_sum + self._value * (now - self._last_change)) / elapsed

    def reset(self, now: float) -> None:
        """Restart averaging from ``now``, keeping the current value."""
        self._weighted_sum = 0.0
        self._last_change = now
        self._start_time = now


class LatencyRecorder:
    """Collects per-request latency samples and summarizes them."""

    def __init__(self, warmup_fraction: float = 0.0):
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.samples: List[float] = []
        self.warmup_fraction = warmup_fraction
        #: Sorted view of the effective samples, invalidated on record().
        self._sorted: Optional[List[float]] = None

    def record(self, latency: float) -> None:
        self.samples.append(latency)
        self._sorted = None

    def __len__(self) -> int:
        return len(self.samples)

    def _effective(self) -> List[float]:
        skip = int(len(self.samples) * self.warmup_fraction)
        return self.samples[skip:]

    def _effective_sorted(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._effective())
        return self._sorted

    @property
    def count(self) -> int:
        return len(self._effective())

    def mean(self) -> float:
        values = self._effective()
        if not values:
            raise ValueError("no samples recorded")
        return sum(values) / len(values)

    def pct(self, p: float) -> float:
        return percentile(self._effective_sorted(), p)

    def p50(self) -> float:
        return self.pct(50.0)

    def p99(self) -> float:
        return self.pct(99.0)

    def max(self) -> float:
        values = self._effective()
        if not values:
            raise ValueError("no samples recorded")
        return max(values)

    def summary(self) -> Dict[str, float]:
        ordered = self._effective_sorted()
        if not ordered:
            return {"count": 0}
        return {
            "count": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "p99": percentile(ordered, 99.0),
            "max": ordered[-1],
        }


def summarize(values: List[float]) -> Dict[str, float]:
    """Mean/p50/p95/p99/max summary of a sample list."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 50.0),
        "p95": percentile(ordered, 95.0),
        "p99": percentile(ordered, 99.0),
        "max": ordered[-1],
    }
