"""HTTP result-store client: the store-service backend behind the same ABC.

An :class:`HttpStore` speaks to a ``mas-attention serve`` process
(:mod:`repro.service`) over plain REST+JSON and plugs in wherever a
:class:`~repro.store.base.ResultStore` does — ``--cache http://host:8787``,
``$MAS_CACHE_URI`` — so sweep workers need a TCP route to the service instead
of filesystem access to the store.  Three properties let many sweep hosts
share one service:

* **single-round-trip hot paths** — ``lookup`` and ``put`` each map to one
  server-side endpoint that performs the whole schema-aware operation
  (normalize + touch + upgrade write-back; write + eviction) under the
  service's lock, instead of replaying the base class's multi-primitive
  sequence over the network;
* **connection reuse with retry** — one keep-alive connection per store
  instance, re-established transparently; transient failures (connection
  resets, 5xx responses such as a restarting service) retry with exponential
  backoff through :func:`~repro.store.retry.call_with_retry`;
* **optimistic concurrency** — every entry carries a server-assigned ETag;
  conditional writes/deletes (``If-Match``) fail with
  :class:`StoreConflictError` instead of clobbering an entry another client
  refreshed, which is how cross-host LRU eviction never loses a
  just-touched result.

Workers never pickle a live connection: the store rebuilds it from the URL
inside each process.
"""

from __future__ import annotations

import http.client
import json
from typing import Any
from urllib.parse import quote, urlencode, urlsplit

from repro.obs import trace as obs_trace
from repro.store.base import EntryInfo, ResultStore, StoreStats
from repro.store.eviction import EvictionPolicy
from repro.store.retry import RetryPolicy, call_with_retry

__all__ = ["HttpStore", "StoreConflictError", "TransientServiceError"]

#: Path prefix of every store endpoint (health and metrics live at the root).
API_PREFIX = "/api/v1"

#: Socket timeout, in seconds, of every request to the service.
REQUEST_TIMEOUT_S = 30.0


class TransientServiceError(RuntimeError):
    """A retryable service failure: 5xx response or broken connection."""


class StoreConflictError(RuntimeError):
    """A conditional request lost its race: the entry's ETag moved (HTTP 412).

    ``current_etag`` carries the winning version (when the server reported
    one), so the loser can re-read its assumptions and retry conditionally
    without an extra GET just to learn the new tag.
    """

    def __init__(self, message: str, current_etag: str | None = None) -> None:
        super().__init__(message)
        self.current_etag = current_etag


def _is_transient(exc: BaseException) -> bool:
    """Whether a request failure is worth a backoff-and-retry."""
    return isinstance(
        exc, (TransientServiceError, http.client.HTTPException, OSError)
    )


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
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
        ok: tuple[int, ...] = (200,),
    ) -> tuple[int, dict[str, Any] | None, str | None]:
        """One retried request; returns ``(status, json_body, etag)``.

        5xx responses and connection-level failures count as transient and
        retry with backoff (the connection is dropped and re-established);
        404 and 412 are returned to the caller; any other unexpected status
        raises ``ValueError`` with the service's error message.

        Exception: a request carrying ``If-Match`` is sent exactly once.  A
        connection that dies mid-exchange leaves the operation's outcome
        unknown — the server may already have applied it and bumped the
        ETag, so a blind replay would bounce with a spurious 412 (or worse,
        report a committed delete as failed).  Conditional callers handle
        the raised transport error instead.
        """
        data = None
        send_headers = {"Content-Type": "application/json", **(headers or {})}
        conditional = "If-Match" in send_headers
        if body is not None:
            data = json.dumps(body).encode()

        full_path = self._prefix + path  # the proxy mount point, if any

        def send() -> tuple[int, dict[str, Any] | None, str | None]:
            conn = self._connect()
            try:
                conn.request(method, full_path, body=data, headers=send_headers)
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
            payload = json.loads(raw) if raw else None
            return response.status, payload, response.getheader("ETag")

        with obs_trace.span("http.request", layer="http", method=method, path=path) as sp:
            if sp.context is not None:
                # Propagate this request span across the wire: the service
                # parents its own span on it, so one trace spans both sides.
                send_headers[obs_trace.TRACE_HEADER] = sp.context.to_header()
            if conditional:
                status, payload, etag = send()
            else:
                status, payload, etag = call_with_retry(
                    send, policy=self.retry, should_retry=_is_transient
                )
            sp.set(status=status)
        if status == 412:
            raise StoreConflictError(
                (payload or {}).get("error", f"{method} {path}: entry version moved"),
                current_etag=etag or (payload or {}).get("etag"),
            )
        if status not in ok:
            message = (payload or {}).get("error", f"unexpected status {status}")
            raise ValueError(f"{method} {path}: {message}")
        return status, payload, etag

    @staticmethod
    def _entry_path(key: str) -> str:
        return f"{API_PREFIX}/entry/{quote(key, safe='')}"

    def ping(self) -> dict[str, Any]:
        """The service's ``/healthz`` document (raises if unreachable)."""
        _, payload, _ = self._request("GET", "/healthz")
        return payload or {}

    # ------------------------------------------------------------------ #
    # Backend primitives (raw, schema-unaware — the contract's low level)
    # ------------------------------------------------------------------ #
    def read(self, key: str) -> dict[str, Any] | None:
        status, payload, _ = self._request("GET", self._entry_path(key), ok=(200, 404))
        return None if status == 404 else payload

    def read_with_etag(self, key: str) -> tuple[dict[str, Any] | None, str | None]:
        """Raw payload plus its current ETag (both ``None`` when absent)."""
        status, payload, etag = self._request(
            "GET", self._entry_path(key), ok=(200, 404)
        )
        return (None, None) if status == 404 else (payload, etag)

    def write(
        self, key: str, payload: dict[str, Any], if_match: str | None = None
    ) -> str:
        """Raw write; with ``if_match`` it is conditional (conflict raises).

        Returns the entry's new ETag (the backend token of this store).
        """
        headers = {"If-Match": if_match} if if_match is not None else None
        _, body, etag = self._request(
            "PUT", self._entry_path(key), body=payload, headers=headers
        )
        return etag or (body or {}).get("etag", "")

    def delete(self, key: str, if_match: str | None = None) -> bool:
        headers = {"If-Match": if_match} if if_match is not None else None
        status, body, _ = self._request(
            "DELETE", self._entry_path(key), headers=headers, ok=(200, 404)
        )
        return status == 200 and bool((body or {}).get("deleted"))

    def keys(self) -> list[str]:
        _, payload, _ = self._request("GET", f"{API_PREFIX}/keys")
        return list((payload or {}).get("keys", []))

    def touch(self, key: str) -> None:
        try:
            self._request("POST", f"{self._entry_path(key)}/touch", ok=(200, 404))
        except (TransientServiceError, http.client.HTTPException, OSError):
            # LRU freshness is best-effort everywhere: a flaky route to the
            # service must not fail the lookup that asked for the touch.
            pass

    def entries(self, **filters: str | None) -> list[EntryInfo]:
        """Entry metadata; filters travel as query parameters (applied service-side)."""
        active = self._check_entry_filters(filters)
        path = f"{API_PREFIX}/entries"
        if active:
            path += "?" + urlencode(active)
        _, payload, _ = self._request("GET", path)
        return [EntryInfo(**entry) for entry in (payload or {}).get("entries", [])]

    def _list_entries(self) -> list[EntryInfo]:
        return self.entries()

    # ------------------------------------------------------------------ #
    # Schema-aware operations: one round trip each, executed service-side
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        _, payload, _ = self._request(
            "POST", f"{API_PREFIX}/lookup", body={"key": key}
        )
        payload = payload or {}
        return payload.get("payload"), payload.get("status", "miss")

    def put(self, key: str, payload: dict[str, Any]) -> str:
        """Write + policy enforcement as one service-side operation.

        A locally bounded policy (``http://...?max_entries=``) is shipped
        with the request; otherwise the service applies its own store policy.
        """
        body: dict[str, Any] = {"key": key, "payload": payload}
        body.update(self._policy_body(self.policy if self.policy.bounded else None))
        _, response, etag = self._request("POST", f"{API_PREFIX}/put", body=body)
        return etag or (response or {}).get("etag", "")

    def evict(self, policy: EvictionPolicy | None = None) -> list[str]:
        if policy is None and not self.policy.bounded:
            # "The store's own policy" for a served store is the *service's*
            # policy: an empty request body lets the server enforce whatever
            # caps it was launched with.
            body: dict[str, int] = {}
        else:
            effective = policy if policy is not None else self.policy
            if not effective.bounded:
                return []  # explicitly unbounded: nothing to enforce, no trip
            body = self._policy_body(effective)
        _, payload, _ = self._request("POST", f"{API_PREFIX}/evict", body=body)
        return list((payload or {}).get("evicted", []))

    def clear(self) -> int:
        _, payload, _ = self._request("POST", f"{API_PREFIX}/clear", body={})
        return int((payload or {}).get("removed", 0))

    def stats(self) -> StoreStats:
        _, payload, _ = self._request("GET", f"{API_PREFIX}/stats")
        payload = payload or {}
        return StoreStats(
            backend=self.backend,
            location=self.uri(),
            entries=int(payload.get("entries", 0)),
            total_bytes=int(payload.get("total_bytes", 0)),
            stale_entries=int(payload.get("stale_entries", 0)),
        )

    def metrics(self) -> dict[str, Any]:
        """The service's ``/metrics`` document (hits/misses/latency, JSON)."""
        _, payload, _ = self._request("GET", "/metrics")
        return payload or {}

    @staticmethod
    def _policy_body(policy: EvictionPolicy | None) -> dict[str, int]:
        if policy is None:
            return {}
        caps = {"max_entries": policy.max_entries, "max_bytes": policy.max_bytes}
        return {name: value for name, value in caps.items() if value is not None}

    def __len__(self) -> int:
        # One stats round trip instead of shipping the whole key list.
        return self.stats().entries
