"""The metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` is shared by every layer of a simulated
deployment (injected through the :class:`~repro.simulator.Simulator`), so
the kernel, the network fabric and the Tornado runtime all publish into
a single sink that reports and tests can read.

Instruments are plain Python objects with ``__slots__``; hot paths cache
the instrument once at construction time so an update is a single method
call on a small object, cheap enough to leave always-on.
"""

from __future__ import annotations

import bisect
from typing import Any

#: Default histogram bucket upper bounds (seconds-ish scale: from 1 µs of
#: virtual time up to 100 s, roughly logarithmic).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value (e.g. a queue depth), with a tracked peak."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

class Histogram:
    """Fixed-bucket histogram of observed values."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        # One overflow bucket past the last bound.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing quantile ``q`` (0..1)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ---------------------------------------------------------- instruments
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    # -------------------------------------------------------------- queries
    def snapshot(self) -> dict[str, Any]:
        """Deterministic (sorted, plain-value) view of every instrument."""
        out: dict[str, Any] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            gauge = self._gauges[name]
            out[name] = {"value": gauge.value, "peak": gauge.peak}
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            out[name] = {
                "count": histogram.count,
                "mean": histogram.mean,
                "min": histogram.min if histogram.count else 0.0,
                "max": histogram.max if histogram.count else 0.0,
                "p99": histogram.quantile(0.99),
            }
        return out

    def render(self) -> str:
        """Plain-text metrics table (one ``name  value`` line per
        instrument, sorted by name)."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                detail = " ".join(f"{k}={v:.6g}" for k, v in value.items())
                lines.append(f"{name}  {detail}")
            else:
                lines.append(f"{name}  {value:.6g}")
        return "\n".join(lines)
