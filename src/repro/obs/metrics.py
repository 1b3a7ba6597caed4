"""Metrics registry: counters and latency histograms.

Two instrument kinds cover every metric the repo keeps:

* :class:`Counter` — monotonically increasing totals (requests, retries);
* :class:`Histogram` — fixed-bucket latency distributions with estimated
  p50/p95/p99 plus exact count/sum/min/max.

Instruments are grouped into a :class:`MetricFamily` (optionally labelled,
e.g. ``requests{endpoint="POST /lookup"}``) and families live in a
:class:`MetricsRegistry` whose :meth:`~MetricsRegistry.snapshot` is
JSON-able.

Two registries matter in practice: each :class:`~repro.service.server.StoreService`
owns one for its endpoint metrics (the JSON ``/metrics`` document), and
:func:`global_registry` is the ambient per-process registry the store retry
layer counts into, since it has no natural owner object.  The global
registry is keyed by PID so forked sweep workers start from zero instead of
inheriting parent totals.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Iterator

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "global_registry",
]

#: Default histogram buckets (upper bounds) for latencies recorded in
#: milliseconds: sub-millisecond local-store hits through multi-second
#: retried-request tails.  A final implicit overflow bucket catches the rest.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing total.  Negative increments are rejected."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock | None = None) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (got increment {amount!r})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with estimated quantiles.

    Buckets are upper bounds in ascending order; one implicit overflow bucket
    collects everything above the last bound.  Count, sum, min and max are
    tracked exactly; quantiles are estimated by linear interpolation inside
    the bucket containing the target rank (the Prometheus convention), then
    clamped to the observed [min, max] so tiny samples never report an
    estimate outside the data.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self,
        lock: threading.RLock | None = None,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must be non-empty and ascending: {buckets!r}")
        self._lock = lock if lock is not None else threading.RLock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
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
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
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
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }


_KINDS = ("counter", "histogram")


class MetricFamily:
    """A named group of same-kind instruments, one per label-value tuple.

    Families with no declared labels hold exactly one instrument and proxy
    its methods (``family.inc(2)``); labelled families mint children on
    demand via :meth:`labels` (``family.labels(endpoint="GET /x").inc()``).
    """

    def __init__(
        self,
        lock: threading.RLock,
        kind: str,
        name: str,
        help_text: str,
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self._lock = lock
        self.kind = kind
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], Counter | Histogram] = {}
        if not self.label_names:
            self._child(())

    def _child(self, key: tuple[str, ...]) -> Counter | Histogram:
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = Counter(self._lock)
                self._children[key] = child
            return child

    def labels(self, **labels: str) -> Counter | Histogram:
        """The child instrument for one label-value assignment."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names!r}, got {tuple(labels)!r}"
            )
        return self._child(tuple(str(labels[name]) for name in self.label_names))

    def _sole_child(self) -> Counter | Histogram:
        if self.label_names:
            raise ValueError(f"metric {self.name!r} is labelled; use .labels(...)")
        return self._child(())

    # Unlabelled conveniences ------------------------------------------- #
    def inc(self, amount: float = 1) -> None:
        self._sole_child().inc(amount)

    def observe(self, value: float) -> None:
        child = self._sole_child()
        if not isinstance(child, Histogram):
            raise ValueError(f"metric {self.name!r} is a {self.kind}, not a histogram")
        child.observe(value)

    @property
    def value(self) -> float:
        child = self._sole_child()
        if isinstance(child, Histogram):
            raise ValueError(f"metric {self.name!r} is a histogram; use .snapshot()")
        return child.value

    def samples(self) -> Iterator[tuple[tuple[str, ...], Counter | Histogram]]:
        """``(label_values, instrument)`` pairs in sorted label order."""
        with self._lock:
            items = sorted(self._children.items())
        yield from items

    def snapshot(self) -> Any:
        """JSON-able value: scalar, ``{label: value}`` map, or histogram dict(s)."""
        if not self.label_names:
            child = self._child(())
            return child.snapshot() if isinstance(child, Histogram) else child.value
        result = {}
        for values, child in self.samples():
            key = ",".join(values)
            result[key] = child.snapshot() if isinstance(child, Histogram) else child.value
        return result


class MetricsRegistry:  # mas-lint: disable=fork-safety(no registry is pickled: the global registry is re-minted per PID and ServiceMetrics never crosses a process boundary)
    """An ordered collection of metric families sharing one lock.

    Registration is idempotent: asking for an existing name returns the
    existing family when kind and labels match (so call sites can declare
    metrics at point of use), and raises on any mismatch.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    def _register(self, kind: str, name: str, help_text: str, **kwargs: Any) -> MetricFamily:
        label_names = tuple(kwargs.get("labels", ()))
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.label_names!r}"
                    )
                return existing
            family = MetricFamily(
                self._lock,
                kind,
                name,
                help_text,
                label_names=label_names,
                buckets=tuple(kwargs.get("buckets", DEFAULT_LATENCY_BUCKETS_MS)),
            )
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str, labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._register("counter", name, help_text, labels=labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> MetricFamily:
        return self._register("histogram", name, help_text, labels=labels, buckets=buckets)

    def families(self) -> tuple[MetricFamily, ...]:
        with self._lock:
            return tuple(self._families.values())

    def snapshot(self) -> dict[str, Any]:
        """Every family's :meth:`~MetricFamily.snapshot`, in registration order."""
        return {family.name: family.snapshot() for family in self.families()}


_GLOBAL_LOCK = threading.Lock()
_global: MetricsRegistry | None = None
_global_pid: int | None = None


def global_registry() -> MetricsRegistry:
    """The ambient registry for this process.

    Forked workers (sweep pair executors, search evaluators) get a fresh
    registry on first use after the fork, so per-process deltas — e.g. the
    retry counters a pair folds into its ``store_stats`` — never include
    totals inherited from the parent.  Callers must fetch the registry at
    use time rather than caching families at import time.
    """
    global _global, _global_pid
    pid = os.getpid()
    if _global is None or _global_pid != pid:
        with _GLOBAL_LOCK:
            if _global is None or _global_pid != pid:
                _global = MetricsRegistry()
                _global_pid = pid
    return _global
