"""Retry with exponential backoff: one tested code path for transient failures.

:class:`~repro.store.http.HttpStore` requests can bounce off a briefly
overloaded or restarting service (connection resets, 5xx responses).  They
go through :func:`call_with_retry` with a ``should_retry`` classifier, so the
backoff schedule, the attempt accounting and the "re-raise the last error"
semantics live — and are tested — in one place.

Every backoff and every exhausted retry is also counted, per exception
class, in the process-global metrics registry (``retry_attempts`` /
``retry_giveups``): pairs fold the per-process deltas into their
``store_stats`` so sweeps surface them in ``cache_stats()``.  Retries happen
on the client side, so that is where they are visible.  :func:`retry_totals`
is the cheap summary used for those deltas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.obs.metrics import MetricFamily, global_registry

__all__ = ["RetryPolicy", "call_with_retry", "retry_counters", "retry_totals"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule of a retried operation.

    ``attempts`` counts every try including the first; the delay before retry
    ``n`` is ``base_delay * backoff**(n-1)``, capped at ``max_delay``.  The
    defaults retry 4 times over roughly three quarters of a second — long
    enough to ride out a service restart's accept-queue hiccup, short enough
    that a genuinely dead dependency fails a sweep promptly.
    """

    attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        return min(self.base_delay * self.backoff ** (attempt - 1), self.max_delay)


def retry_counters() -> tuple[MetricFamily, MetricFamily]:
    """The ``(retry_attempts, retry_giveups)`` counter families, labelled by
    exception class name.

    Fetched from :func:`~repro.obs.metrics.global_registry` at call time —
    never cached at import — so forked sweep workers count into their own
    per-process registry.
    """
    registry = global_registry()
    return (
        registry.counter(
            "retry_attempts",
            "Transient store failures that triggered a backoff-and-retry.",
            labels=("error",),
        ),
        registry.counter(
            "retry_giveups",
            "Store operations abandoned after exhausting their retry budget.",
            labels=("error",),
        ),
    )


def retry_totals() -> dict[str, int]:
    """This process's retry counters summed across error classes.

    ``{"retry_attempts": n, "retry_giveups": m}`` — the shape pairs embed in
    ``store_stats`` and :meth:`ExperimentRunner.cache_stats` aggregates.
    """
    attempts, giveups = retry_counters()
    return {
        "retry_attempts": int(sum(child.value for _, child in attempts.samples())),
        "retry_giveups": int(sum(child.value for _, child in giveups.samples())),
    }


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    should_retry: Callable[[BaseException], bool] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` until it succeeds, a non-transient error escapes, or the
    policy's attempts run out (the last error is re-raised unchanged).

    ``should_retry`` classifies exceptions: ``True`` means transient (back
    off and retry), ``False`` re-raises immediately.  ``None`` treats every
    exception as transient — callers with a single already-filtered failure
    mode.  ``sleep`` is injectable so tests assert the schedule without
    actually waiting.
    """
    policy = policy or RetryPolicy()
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except Exception as exc:
            if should_retry is not None and not should_retry(exc):
                raise
            attempts, giveups = retry_counters()
            if attempt == policy.attempts:
                giveups.labels(error=type(exc).__name__).inc()
                raise
            attempts.labels(error=type(exc).__name__).inc()
            sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover
