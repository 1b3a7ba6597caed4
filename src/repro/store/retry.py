"""Retry with exponential backoff: one tested code path for transient failures.

:class:`~repro.store.http.HttpStore` requests can bounce off a briefly
overloaded or restarting service (connection resets, 5xx responses).  They
go through :func:`call_with_retry` with a ``should_retry`` classifier, so the
backoff schedule, the attempt accounting and the "re-raise the last error"
semantics live — and are tested — in one place.

The caller counts what happened: ``call_with_retry`` calls ``sleep`` once
before each retry, and a transient error that escapes it is a give-up.
``HttpStore`` counts both per instance (``retry_attempts`` /
``retry_giveups``), and sweeps surface them in ``cache_stats()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = ["RetryPolicy", "call_with_retry"]

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
    mode.  ``sleep`` runs once before each retry; it is injectable so tests
    assert the schedule without actually waiting, and so a caller can count
    its retries.
    """
    policy = policy or RetryPolicy()
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except Exception as exc:
            if should_retry is not None and not should_retry(exc):
                raise
            if attempt == policy.attempts:
                raise
            sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover
