"""Latency histograms: fixed buckets, estimated p50/p95/p99.

The store service keeps one :class:`Histogram` per endpoint next to its
plain counters (:class:`~repro.service.server.ServiceMetrics`), which is
why its JSON ``/metrics`` document reports latency quantiles and not just
mean/max.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["DEFAULT_LATENCY_BUCKETS_MS", "Histogram"]

#: Default histogram buckets (upper bounds) for latencies recorded in
#: milliseconds: sub-millisecond local-store hits through multi-second
#: retried-request tails.  A final implicit overflow bucket catches the rest.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Histogram:
    """Fixed-bucket distribution with estimated quantiles.

    Buckets are upper bounds in ascending order; one implicit overflow bucket
    collects everything above the last bound.  Count, sum, min and max are
    tracked exactly; quantiles are estimated by linear interpolation inside
    the bucket containing the target rank (the Prometheus convention), then
    clamped to the observed [min, max] so tiny samples never report an
    estimate outside the data.

    Not thread-safe on its own: an owner shared between threads guards it
    with its own lock, as ``ServiceMetrics`` does.
    """

    __slots__ = ("buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must be non-empty and ascending: {buckets!r}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self._counts[bisect_left(self.buckets, value)] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``); 0.0 when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            below = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                low = self.buckets[index - 1] if index > 0 else 0.0
                high = self.buckets[index] if index < len(self.buckets) else self._max
                estimate = low + (high - low) * ((rank - below) / bucket_count)
                return min(max(estimate, self._min or 0.0), self._max or estimate)
        return self._max or 0.0

    def snapshot(self) -> dict[str, float | int]:
        """JSON-able summary: count/sum/mean/min/max plus p50/p95/p99."""
        if self._count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self._sum / self._count,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }
