"""A thread-safe registry of counters, gauges, and histograms.

The registry is the metrics half of the observability layer (the tracer is
the timing half): instrumented components increment named counters
(``bufferpool.hits``), set gauges (``cluster.live_nodes``), and observe
histogram samples (``statement.wall_seconds``).  All metric families share
the registry's lock, so concurrent sessions can record safely.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field

from repro.verify import sanitizer


@dataclass
class CacheStats:
    """Lifetime counters for one cache (the engine's plan cache, the
    serving result cache); the owning cache's lock guards them."""

    #: Every reason a statement can go around this cache, counted apart.
    bypass_reasons: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    stores: int = 0
    bypass: int = 0  # statements that went around the cache, all reasons
    stale_drops: int = 0  # entries found invalid on lookup
    invalidations: int = 0  # entries dropped because what they read changed
    spared: int = 0  # entries kept across a commit to a table they read
    evictions: int = 0  # LRU capacity evictions

    @property
    def hit_rate(self) -> float:
        asked = self.hits + self.misses
        return self.hits / asked if asked else 0.0

    def count_bypass(self, reason: str) -> None:
        self.bypass += 1
        self.bypass_reasons[reason] += 1

    def snapshot(self) -> dict:
        return {**dataclasses.asdict(self), "hit_rate": self.hit_rate}


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % (amount,))
        with self._lock:
            if sanitizer.ENABLED:
                sanitizer.access("metrics", self.name, site="Counter.inc")
            self.value += amount


class Gauge:
    """A value that can go up or down (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            if sanitizer.ENABLED:
                sanitizer.access("metrics", self.name, site="Gauge.set")
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            if sanitizer.ENABLED:
                sanitizer.access("metrics", self.name, site="Gauge.add")
            self.value += float(delta)


class Histogram:
    """Sample distribution: count / sum / min / max plus a bounded reservoir.

    The reservoir keeps the first ``reservoir_size`` samples (deterministic,
    enough for test-scale percentile queries); count/sum/min/max stay exact
    for any volume.
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples",
                 "reservoir_size", "_lock")

    def __init__(self, name: str, lock: threading.Lock, reservoir_size: int = 1024):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.samples: list[float] = []
        self.reservoir_size = reservoir_size
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self.samples) < self.reservoir_size:
                self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Approximate percentile over the reservoir (0 <= fraction <= 1)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        with self._lock:
            if not self.samples:
                return 0.0
            ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
        return ordered[index]


class MetricsRegistry:
    """Get-or-create access to named metrics; snapshot for monreport."""

    def __init__(self):
        self._lock = sanitizer.make_lock("metrics")
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name, self._lock)
                self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        metric = self._get(name, Counter)
        if not isinstance(metric, Counter):
            raise TypeError("%s is registered as %s" % (name, type(metric).__name__))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get(name, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError("%s is registered as %s" % (name, type(metric).__name__))
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._get(name, Histogram)
        if not isinstance(metric, Histogram):
            raise TypeError("%s is registered as %s" % (name, type(metric).__name__))
        return metric

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """A plain-data view of every metric (the monreport payload)."""
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, object] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = metric.value
            else:
                out[name] = {
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.min,
                    "max": metric.max,
                    "mean": metric.mean,
                }
        return out
