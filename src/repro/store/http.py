"""HTTP result-store client: the store-service backend behind the same ABC.

An :class:`HttpStore` speaks to a ``mas-attention serve`` process
(:mod:`repro.service`) over plain REST+JSON and plugs in wherever a
:class:`~repro.store.base.ResultStore` does — ``--cache http://host:8787``,
``$MAS_CACHE_URI`` — so sweep workers need a TCP route to the service instead
of filesystem access to the store.  Two properties let many sweep hosts
share one service:

* **one round trip per operation** — every store operation maps to exactly
  one service route, and the service performs the whole operation there
  under its locks: ``lookup`` checks the schema and refreshes LRU state,
  ``put`` writes and enforces the eviction caps;
* **connection reuse with retry** — one keep-alive connection per store
  instance, re-established transparently; transient failures (connection
  resets, 5xx responses such as a restarting service) retry with exponential
  backoff through :func:`~repro.store.retry.call_with_retry`.  Each instance
  counts its retries and give-ups, which sweeps report in ``cache_stats()``.

Workers never pickle a live connection: the store rebuilds it from the URL
inside each process.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any
from urllib.parse import urlencode, urlsplit

from repro.obs import trace as obs_trace
from repro.store.base import EntryInfo, ResultStore, StoreStats
from repro.store.eviction import EvictionPolicy
from repro.store.retry import RetryPolicy, call_with_retry

__all__ = ["API_PREFIX", "HttpStore", "TransientServiceError"]

#: Path prefix of every store route (health and metrics live at the root);
#: the service routes the same paths.
API_PREFIX = "/api/v1"

#: Socket timeout, in seconds, of every request to the service.
REQUEST_TIMEOUT_S = 30.0


class TransientServiceError(RuntimeError):
    """A retryable service failure: 5xx response or broken connection."""


#: Request failures worth a backoff-and-retry.
_TRANSIENT_ERRORS = (TransientServiceError, http.client.HTTPException, OSError)


def _is_transient(exc: BaseException) -> bool:
    """Whether a request failure is worth a backoff-and-retry."""
    return isinstance(exc, _TRANSIENT_ERRORS)


#: Everything a failed request to a dead or foreign service can surface: the
#: transient classifier's re-raises after exhausted retries (5xx, connection
#: errors, a non-HTTP endpoint's BadStatusLine) plus ``ValueError`` for an
#: HTTP server that is not a store service at all (unexpected status,
#: non-JSON body — ``JSONDecodeError`` is a ``ValueError``).
UNREACHABLE_ERRORS = (
    TransientServiceError,
    http.client.HTTPException,
    OSError,
    ValueError,
)


class HttpStore(ResultStore):
    """Result store over a ``mas-attention serve`` HTTP service."""

    backend = "http"

    def __init__(
        self,
        base_url: str,
        policy: EvictionPolicy | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(policy)
        parts = urlsplit(base_url)
        scheme = parts.scheme.lower()
        if scheme not in ("http", "https"):
            raise ValueError(f"HttpStore needs an http(s) URL, got {base_url!r}")
        if not parts.netloc:
            raise ValueError(f"HttpStore URL {base_url!r} is missing a host")
        if parts.query or parts.fragment:
            raise ValueError(
                f"HttpStore URL {base_url!r} must not carry a query/fragment; "
                "policy parameters are parsed by open_store"
            )
        self._scheme = scheme
        self._netloc = parts.netloc
        self._prefix = parts.path.rstrip("/")
        self.retry = retry or RetryPolicy()
        #: Transient failures this instance backed off and retried, and
        #: requests it abandoned after its last attempt.
        self.retry_attempts = 0
        self.retry_giveups = 0
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def base_url(self) -> str:
        return f"{self._scheme}://{self._netloc}{self._prefix}"

    def uri(self) -> str:
        return self.base_url + self.policy.as_query()

    def _connect(self) -> http.client.HTTPConnection:
        if self._conn is None:
            factory = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            self._conn = factory(self._netloc, timeout=REQUEST_TIMEOUT_S)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __getstate__(self) -> dict[str, Any]:
        # Pool workers rebuild the connection from the URL; never pickle sockets.
        state = dict(self.__dict__)
        state["_conn"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

    def _request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """One retried request; returns the response's JSON body.

        5xx responses and connection-level failures count as transient and
        retry with backoff (the connection is dropped and re-established);
        any status other than 200 raises ``ValueError`` with the service's
        error message.
        """
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"}
        full_path = self._prefix + path  # the proxy mount point, if any

        def send() -> tuple[int, dict[str, Any] | None]:
            conn = self._connect()
            try:
                conn.request(method, full_path, body=data, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except Exception:
                # Whatever broke, the keep-alive stream is now suspect.
                self.close()
                raise
            if response.status >= 500:
                raise TransientServiceError(
                    f"{method} {path} -> {response.status}: {raw[:200]!r}"
                )
            return response.status, json.loads(raw) if raw else None

        with obs_trace.span("http.request", layer="http", method=method, path=path) as sp:
            if sp.context is not None:
                # Propagate this request span across the wire: the service
                # parents its own span on it, so one trace spans both sides.
                headers[obs_trace.TRACE_HEADER] = sp.context.to_header()
            try:
                status, payload = call_with_retry(
                    send,
                    policy=self.retry,
                    should_retry=_is_transient,
                    sleep=self._back_off,
                )
            except _TRANSIENT_ERRORS:  # raised only once attempts run out
                self.retry_giveups += 1
                raise
            sp.set(status=status)
        if status != 200:
            message = (payload or {}).get("error", f"unexpected status {status}")
            raise ValueError(f"{method} {path}: {message}")
        return payload or {}

    def _back_off(self, seconds: float) -> None:
        """``call_with_retry`` sleeps once before each retry: count it."""
        self.retry_attempts += 1
        time.sleep(seconds)

    def ping(self) -> dict[str, Any]:
        """The service's ``/healthz`` document (raises if unreachable)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        """The service's ``/metrics`` document (hits/misses/latency, JSON)."""
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------ #
    # The store contract: one route each, executed service-side
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        response = self._request("POST", f"{API_PREFIX}/lookup", {"key": key})
        return response.get("payload"), response.get("status", "miss")

    def put(self, key: str, payload: dict[str, Any]) -> list[str]:
        """Write + policy enforcement as one service-side operation.

        A locally bounded policy (``http://...?max_entries=``) is shipped
        with the request; the service enforces it on top of its own caps.
        """
        body: dict[str, Any] = {"key": key, "payload": payload}
        body.update(self._policy_body(self.policy))
        response = self._request("POST", f"{API_PREFIX}/put", body)
        return list(response.get("evicted", []))

    def entries(self, **filters: str | None) -> list[EntryInfo]:
        """Entry metadata; filters travel as query parameters (applied service-side)."""
        active = self._check_entry_filters(filters)
        path = f"{API_PREFIX}/entries"
        if active:
            path += "?" + urlencode(active)
        response = self._request("GET", path)
        return [EntryInfo(**entry) for entry in response.get("entries", [])]

    def stats(self) -> StoreStats:
        response = self._request("GET", f"{API_PREFIX}/stats")
        return StoreStats(
            backend=self.backend,
            location=self.uri(),
            entries=int(response.get("entries", 0)),
            total_bytes=int(response.get("total_bytes", 0)),
            stale_entries=int(response.get("stale_entries", 0)),
        )

    def evict(self, policy: EvictionPolicy | None = None) -> list[str]:
        """LRU-evict service-side.

        The service always enforces the caps it was launched with, on top
        of the caps a request ships.  So ``None`` — "the store's own
        policy" — sends this client's caps if it has any, and otherwise an
        empty body, which enforces the service's caps alone.
        """
        if policy is not None and not policy.bounded:
            return []  # explicitly unbounded: nothing to enforce, no trip
        body = self._policy_body(policy if policy is not None else self.policy)
        response = self._request("POST", f"{API_PREFIX}/evict", body)
        return list(response.get("evicted", []))

    def clear(self) -> int:
        response = self._request("POST", f"{API_PREFIX}/clear", {})
        return int(response.get("removed", 0))

    def __len__(self) -> int:
        # One stats round trip instead of shipping the whole entry list.
        return self.stats().entries

    @staticmethod
    def _policy_body(policy: EvictionPolicy) -> dict[str, int]:
        caps = {"max_entries": policy.max_entries, "max_bytes": policy.max_bytes}
        return {name: value for name, value in caps.items() if value is not None}
