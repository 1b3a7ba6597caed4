"""The HTTP result-store server: REST endpoints, ETags, metrics.

Three layers, separable on purpose:

* :class:`StoreService` — a thread-safe facade over one
  :class:`~repro.store.base.ResultStore`.  Concurrency is per-key: every
  operation on one entry holds that key's stripe in a
  :class:`~repro.service.locks.KeyedLocks` pool (shared store-wide gate),
  so lookups of distinct keys from different sweep hosts proceed in
  parallel, while store-wide operations (``evict``/``clear``/``stats``/
  ``keys``/``entries``) take the gate exclusively and see a frozen store —
  the plan-then-delete eviction sequence stays atomic.
  ETag **versions** (bumped on every write *and* touch, so an entry a
  client just refreshed wins conditional races against cross-host
  eviction) live under a dedicated metadata lock and feed
  :class:`ServiceMetrics`;
* :class:`StoreRequestHandler` — the REST surface (see the table in
  ``docs/store_service.md``): raw entry primitives for the store contract,
  single-round-trip ``/lookup``/``/put`` for the sweep hot path,
  ``/evict``, ``/stats``, ``/metrics`` (JSON, or Prometheus text exposition
  via content negotiation) and ``/healthz``;
* :func:`make_server` / :func:`serve_store` — construction and the CLI's
  blocking entry point.

The server is the *only* writer of its backing store, which is what makes
ETag versions authoritative without any backend cooperation.  Backends must
tolerate concurrent calls on *distinct* keys (the JSON directory writes each
file atomically); same-key and store-wide sequences are serialized here.
Scaling rule of thumb: one service per store; many sweep hosts per service.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator
from urllib.parse import parse_qsl, unquote, urlsplit

from repro import __version__
from repro.obs import prom
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import TraceContext
from repro.service.locks import DEFAULT_STRIPES, KeyedLocks
from repro.store.base import ResultStore
from repro.store.eviction import EvictionPolicy, parse_size

__all__ = [
    "DEFAULT_PORT",
    "ServiceMetrics",
    "StoreService",
    "StoreRequestHandler",
    "make_server",
    "running_server",
    "serve_store",
    "server_url",
]

#: Default TCP port of ``mas-attention serve``.
DEFAULT_PORT = 8787

#: Path prefix of the store API (mirrored by the client).
API_PREFIX = "/api/v1"

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Conflict(Exception):
    """Internal: a conditional request's If-Match did not match (HTTP 412)."""

    def __init__(self, key: str, current: str | None) -> None:
        super().__init__(f"entry {key!r} changed (current etag {current})")
        self.current = current


class ServiceMetrics:  # mas-lint: disable=fork-safety(lives in the server process only; never pickled to workers)
    """Store-level counters plus per-endpoint latency, served at ``/metrics``.

    Backed by a :class:`~repro.obs.metrics.MetricsRegistry`: the counters
    are unlabelled counter families, per-endpoint traffic is a labelled
    counter pair, and latency is a labelled **histogram** family — so the
    JSON document and the Prometheus exposition report p50/p95/p99 per
    endpoint, not just mean/max.  Everything is monotonic since server
    start and safe for the request threads of a
    :class:`~http.server.ThreadingHTTPServer` to record concurrently.
    """

    #: Counter names, fixed so ``/metrics`` output is stable for dashboards.
    COUNTERS = (
        "hits",
        "misses",
        "stale",
        "upgraded",
        "puts",
        "deletes",
        "evictions",
        "conflicts",
        "bytes_stored",
        "bytes_served",
    )

    #: Lookup statuses as reported by ``ResultStore.lookup`` -> counter name.
    _LOOKUP_STATUSES = {
        "hit": "hits",
        "upgraded": "upgraded",
        "stale": "stale",
        "miss": "misses",
    }

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter(
                name, f"Total {name.replace('_', ' ')} since server start."
            )
            for name in self.COUNTERS
        }
        self._uptime = self.registry.gauge(
            "uptime_seconds", "Seconds since server start."
        )
        self._requests = self.registry.counter(
            "requests", "Requests served, by endpoint.", labels=("endpoint",)
        )
        self._errors = self.registry.counter(
            "request_errors", "5xx responses, by endpoint.", labels=("endpoint",)
        )
        self._latency = self.registry.histogram(
            "request_ms",
            "Request latency, by endpoint.",
            labels=("endpoint",),
            prom_name="request_seconds",
            prom_scale=1e-3,
        )
        self._started = time.time()

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self._started

    def count(self, **increments: int) -> None:
        for name, amount in increments.items():
            self._counters[name].inc(amount)

    def record_lookup(self, status: str) -> None:
        """Tally one schema-aware lookup outcome (hit/upgraded/stale/miss).

        An unknown status raises instead of silently counting as a miss: a
        new lookup outcome must be given a counter (and a dashboard line)
        explicitly, or the miss rate silently absorbs it.
        """
        counter = self._LOOKUP_STATUSES.get(status)
        if counter is None:
            raise ValueError(
                f"unknown lookup status {status!r}; "
                f"expected one of {sorted(self._LOOKUP_STATUSES)}"
            )
        self.count(**{counter: 1})

    def observe(self, endpoint: str, elapsed_ms: float, error: bool = False) -> None:
        """Record one served request against its endpoint label."""
        self._requests.labels(endpoint=endpoint).inc()
        errors = self._errors.labels(endpoint=endpoint)  # minted even at 0
        if error:
            errors.inc()
        self._latency.labels(endpoint=endpoint).observe(elapsed_ms)

    def snapshot(self) -> dict[str, Any]:
        """The JSON ``/metrics`` document: counters + per-endpoint latency.

        Each endpoint reports exact count/errors/total/mean/max plus the
        histogram's estimated p50/p95/p99, and ``process`` carries the
        server process's ambient registry (retry counters and friends).
        """
        requests: dict[str, dict[str, Any]] = {}
        for (endpoint,), hist in self._latency.samples():
            stats = hist.snapshot()
            requests[endpoint] = {
                "count": stats["count"],
                "errors": int(self._errors.labels(endpoint=endpoint).value),
                "total_ms": round(stats["sum"], 3),
                "mean_ms": round(stats["mean"], 3),
                "max_ms": round(stats["max"], 3),
                "p50_ms": round(stats["p50"], 3),
                "p95_ms": round(stats["p95"], 3),
                "p99_ms": round(stats["p99"], 3),
            }
        document: dict[str, Any] = {
            name: int(family.value) for name, family in self._counters.items()
        }
        document["uptime_s"] = round(self.uptime_seconds, 3)
        document["requests"] = requests
        document["process"] = global_registry().snapshot()
        return document

    def render_prometheus(self) -> str:
        """The same numbers in Prometheus text exposition format (``/metrics``
        with ``Accept: text/plain`` or ``?format=prometheus``).

        Rendered through :mod:`repro.obs.prom` under the ``mas_store``
        namespace: ``mas_store_<counter>_total``, ``mas_store_uptime_seconds``,
        per-endpoint ``mas_store_requests_total`` / ``mas_store_request_errors_total``
        and the ``mas_store_request_seconds`` histogram (buckets + sum +
        count + exact max).  The process-ambient registry follows under the
        ``mas`` namespace.
        """
        self._uptime.set(self.uptime_seconds)
        return prom.render_registry(self.registry, "mas_store") + prom.render_registry(
            global_registry(), "mas"
        )


class StoreService:  # mas-lint: disable=fork-safety(server-side singleton; clients cross processes via HTTP, not pickle)
    """Per-key-locked, ETag-versioned facade over one result store.

    ``stripes=1`` collapses the keyed pool to one stripe — the old
    global-lock behaviour, kept reachable as the concurrency benchmark's
    baseline (``bench_parallel_runner.py::test_service_lock_concurrency``).
    """

    def __init__(self, store: ResultStore, stripes: int = DEFAULT_STRIPES) -> None:
        self.store = store
        # The policy is frozen at construction; snapshot boundedness so put()
        # can pick its lock (stripe vs store gate) before entering either.
        self._store_bounded = store.policy.bounded
        self.metrics = ServiceMetrics()
        self._locks = KeyedLocks(stripes)
        # ETag metadata has its own lock (innermost, never held across store
        # I/O except the existence probe in _etag_locked): version bumps from
        # parallel stripes must still serialize on the shared counter.
        self._meta = threading.Lock()
        self._versions: dict[str, int] = {}
        self._next_version = 0

    # ------------------------------------------------------------------ #
    # ETag bookkeeping — these *_locked helpers require the caller to hold
    # self._meta (the innermost lock; never taken around store I/O except
    # the existence probe in _etag_locked)
    # ------------------------------------------------------------------ #
    def _bump_locked(self, key: str) -> str:
        self._next_version += 1
        self._versions[key] = self._next_version
        return f'"{self._versions[key]}"'

    def _etag_locked(self, key: str) -> str | None:
        """Current ETag of ``key``, or ``None`` when no such entry exists.

        Entries that predate this server process get a version lazily on
        first sight — ETags are authoritative only within one server
        lifetime, which suffices because the server is the store's only
        writer.
        """
        if key not in self._versions:
            if not self.store.exists(key):
                return None
            self._bump_locked(key)
        return f'"{self._versions[key]}"'

    def _check_match_locked(self, key: str, if_match: str | None) -> None:
        if if_match is None:
            return
        current = self._etag_locked(key)
        if if_match != current:
            self.metrics.count(conflicts=1)
            raise _Conflict(key, current)

    # ------------------------------------------------------------------ #
    # Raw primitives — each holds its key's stripe (shared store gate)
    # ------------------------------------------------------------------ #
    def read(self, key: str) -> tuple[dict[str, Any] | None, str | None]:
        with self._locks.key(key):
            payload = self.store.read(key)
            if payload is None:
                return None, None
            with self._meta:
                return payload, self._etag_locked(key)

    def write(
        self, key: str, payload: dict[str, Any], if_match: str | None = None
    ) -> str:
        with self._locks.key(key):
            return self._write_key_locked(key, payload, if_match)

    def _write_key_locked(
        self, key: str, payload: dict[str, Any], if_match: str | None = None
    ) -> str:
        """One write; the caller holds ``key``'s stripe or the store gate.

        Byte counters (bytes_served / bytes_stored) are accounted by the
        request handler from actual payload sizes — recomputing them here
        would re-serialize every payload inside the locked section.
        """
        with self._meta:
            self._check_match_locked(key, if_match)
        self.store.write(key, payload)
        self.metrics.count(puts=1)
        with self._meta:
            return self._bump_locked(key)

    def delete(self, key: str, if_match: str | None = None) -> bool:
        with self._locks.key(key):
            with self._meta:
                self._check_match_locked(key, if_match)
            existed = self.store.delete(key)
            with self._meta:
                self._versions.pop(key, None)
            self.metrics.count(deletes=int(existed))
            return existed

    def touch(self, key: str) -> str | None:
        with self._locks.key(key):
            # Touches are pure LRU bookkeeping: a missing entry is a 404,
            # never created.
            if not self.store.exists(key):
                return None
            self.store.touch(key)
            with self._meta:
                return self._bump_locked(key)

    # ------------------------------------------------------------------ #
    # Store-wide snapshots — exclusive gate, the store is frozen
    # ------------------------------------------------------------------ #
    def keys(self) -> list[str]:
        with self._locks.store():
            return self.store.keys()

    def entries(self, filters: dict[str, str]) -> list[dict[str, Any]]:
        with self._locks.store():
            return [asdict(info) for info in self.store.entries(**filters)]

    def stats(self) -> dict[str, Any]:
        with self._locks.store():
            return self.store.stats().as_dict()

    # ------------------------------------------------------------------ #
    # Schema-aware, single-round-trip operations
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str, str | None]:
        with self._locks.key(key):
            payload, status = self.store.lookup(key)
            self.metrics.record_lookup(status)
            etag = None
            if status in ("hit", "upgraded"):
                # The lookup refreshed LRU state (and possibly rewrote the
                # payload): the entry's version moves, so a concurrently
                # planned eviction holding the old ETag loses its race.
                with self._meta:
                    etag = self._bump_locked(key)
            return payload, status, etag

    def put(
        self, key: str, payload: dict[str, Any], policy: EvictionPolicy | None
    ) -> tuple[str, list[str]]:
        """Write + single eviction pass, atomically; returns (etag, evicted).

        An unbounded put only needs its key's stripe; with caps in play
        (request or store policy) the write and the eviction pass happen
        under the exclusive gate so the cap is enforced against a store no
        other writer is growing mid-plan.
        """
        bounded = (policy is not None and policy.bounded) or self._store_bounded
        if bounded:
            with self._locks.store():
                etag = self._write_key_locked(key, payload)
                return etag, self._evict_store_locked(policy)
        with self._locks.key(key):
            return self._write_key_locked(key, payload), []

    def evict(self, policy: EvictionPolicy | None) -> list[str]:
        with self._locks.store():
            return self._evict_store_locked(policy)

    def _evict_store_locked(self, policy: EvictionPolicy | None) -> list[str]:
        """One eviction pass; the caller holds the exclusive store gate.

        A client-shipped policy composes with — never replaces — the caps
        the service was launched with: the request's policy is enforced
        first, then the store's own, so a client with looser caps cannot
        grow a capped store past its configured bound.
        """
        policies = [p for p in (policy, self.store.policy) if p is not None and p.bounded]
        if len(policies) == 2 and policies[0] == policies[1]:
            policies.pop()
        evicted: list[str] = []
        for effective in policies:
            evicted.extend(self.store.evict(effective))
        with self._meta:
            for key in evicted:
                self._versions.pop(key, None)
        self.metrics.count(evictions=len(evicted))
        return evicted

    def clear(self) -> int:
        with self._locks.store():
            removed = self.store.clear()
            with self._meta:
                self._versions.clear()
            self.metrics.count(deletes=removed)
            return removed


class StoreRequestHandler(BaseHTTPRequestHandler):
    """Routes the REST surface onto a :class:`StoreService`.

    HTTP/1.1 with explicit ``Content-Length`` on every response, so clients
    keep one connection alive across a whole sweep.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"mas-attention-store/{__version__}"

    # Populated by make_server on the server object; typed here for clarity.
    @property
    def service(self) -> StoreService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    #: Endpoints whose 200 responses carry entry payloads out — bytes_served
    #: is accounted here from the actual response size.  bytes_stored is
    #: accounted inside the storing handlers from the *entry payload* bytes
    #: (not the request Content-Length: the JSON envelope — key, policy
    #: caps, quoting — is not stored data).
    _SERVING_LABELS = frozenset({"GET /entry", "POST /lookup"})

    def _dispatch(self, method: str) -> None:
        # Adopt the client's trace context (X-MAS-Trace, sent by HttpStore)
        # as this request span's parent, so one trace crosses the wire; no
        # header (or tracing off) means no span and zero overhead.
        parent = TraceContext.from_header(self.headers.get(obs_trace.TRACE_HEADER))
        with obs_trace.span(
            "service.request", layer="service", parent=parent, method=method
        ) as span:
            self._dispatch_traced(method, span)

    def _dispatch_traced(self, method: str, span: Any) -> None:
        started = time.perf_counter()
        parts = urlsplit(self.path)
        # Unmatched paths share one fixed label: per-path labels would let a
        # port scanner (or a buggy client) grow the metrics table unboundedly.
        label = f"{method} <unmatched>"
        status = 500
        try:
            # Consume the request body exactly once, up front, whatever the
            # route: on a keep-alive connection any unread body bytes would
            # be parsed as the next request line, desyncing the stream for
            # every later request (no per-endpoint handler can forget this).
            length = int(self.headers.get("Content-Length") or 0)
            self._body_bytes = self.rfile.read(length) if length > 0 else b""
            route = self._route(method, parts.path)
            if route is None:
                status = 404
                self._send_json(
                    404, {"error": f"no such endpoint: {method} {parts.path}"}
                )
                return
            handler, args, label = route
            query = dict(parse_qsl(parts.query))
            status, payload, headers = handler(*args, query)
            sent = self._send_json(status, payload, headers)
            if status == 200 and label in self._SERVING_LABELS:
                self.service.metrics.count(bytes_served=sent)
        except _Conflict as conflict:
            status = 412
            # The winning ETag rides in the header as well as the body, so a
            # conditional client can retry without a second GET.
            self._send_json(
                412,
                {"error": str(conflict), "etag": conflict.current},
                {"ETag": conflict.current} if conflict.current else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            status = 400
            self._send_json(400, {"error": f"bad request: {exc}"})
        except BrokenPipeError:  # pragma: no cover - client went away
            status = 499
        except Exception as exc:  # noqa: BLE001 - the service must not die
            status = 500
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:  # pragma: no cover - client went away mid-error
                pass
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self.service.metrics.observe(label, elapsed_ms, error=status >= 500)
            span.set(endpoint=label, status=status)

    def _route(self, method: str, path: str):
        """Resolve ``(handler, args, metrics_label)`` for one request path."""
        if method == "GET":
            if path == "/healthz":
                return self._handle_healthz, (), "GET /healthz"
            if path == "/metrics":
                return self._handle_metrics, (), "GET /metrics"
            if path == f"{API_PREFIX}/stats":
                return self._handle_stats, (), "GET /stats"
            if path == f"{API_PREFIX}/keys":
                return self._handle_keys, (), "GET /keys"
            if path == f"{API_PREFIX}/entries":
                return self._handle_entries, (), "GET /entries"
        key = self._entry_key(path)
        if key is not None:
            if method == "GET":
                return self._handle_entry_get, (key,), "GET /entry"
            if method == "PUT":
                return self._handle_entry_put, (key,), "PUT /entry"
            if method == "DELETE":
                return self._handle_entry_delete, (key,), "DELETE /entry"
        touch_key = self._entry_key(path, suffix="/touch")
        if method == "POST" and touch_key is not None:
            return self._handle_touch, (touch_key,), "POST /touch"
        if method == "POST":
            posts = {
                f"{API_PREFIX}/lookup": self._handle_lookup,
                f"{API_PREFIX}/put": self._handle_put,
                f"{API_PREFIX}/evict": self._handle_evict,
                f"{API_PREFIX}/clear": self._handle_clear,
            }
            if path in posts:
                return posts[path], (), f"POST {path.removeprefix(API_PREFIX)}"
        return None

    @staticmethod
    def _entry_key(path: str, suffix: str = "") -> str | None:
        prefix = f"{API_PREFIX}/entry/"
        if not (path.startswith(prefix) and path.endswith(suffix)):
            return None
        quoted = path[len(prefix) : len(path) - len(suffix)]
        if not quoted or "/" in quoted:
            return None
        return unquote(quoted)

    @staticmethod
    def _payload_bytes(payload: dict[str, Any]) -> int:
        """Size of one entry payload as stored (compact JSON), for metrics."""
        return len(json.dumps(payload, separators=(",", ":")).encode())

    # ------------------------------------------------------------------ #
    # Endpoint handlers: (status, payload, headers)
    # ------------------------------------------------------------------ #
    def _handle_healthz(self, query: dict) -> tuple[int, dict, dict]:
        store = self.service.store
        return 200, {
            "ok": True,
            "version": __version__,
            "backend": store.backend,
            "store": store.uri(),
            "uptime_seconds": round(self.service.metrics.uptime_seconds, 3),
            "pid": os.getpid(),
        }, {}

    def _handle_metrics(self, query: dict) -> tuple[int, Any, dict]:
        accept = self.headers.get("Accept") or ""
        wants_text = (
            query.get("format") == "prometheus"
            or "text/plain" in accept
            or "openmetrics" in accept
        )
        if wants_text:
            text = self.service.metrics.render_prometheus()
            return 200, text, {"Content-Type": PROMETHEUS_CONTENT_TYPE}
        return 200, self.service.metrics.snapshot(), {}

    def _handle_stats(self, query: dict) -> tuple[int, dict, dict]:
        return 200, self.service.stats(), {}

    def _handle_keys(self, query: dict) -> tuple[int, dict, dict]:
        return 200, {"keys": self.service.keys()}, {}

    def _handle_entries(self, query: dict) -> tuple[int, dict, dict]:
        return 200, {"entries": self.service.entries(query)}, {}

    def _handle_entry_get(self, key: str, query: dict) -> tuple[int, dict, dict]:
        payload, etag = self.service.read(key)
        if payload is None:
            return 404, {"error": f"no entry {key!r}"}, {}
        return 200, payload, {"ETag": etag}

    def _handle_entry_put(self, key: str, query: dict) -> tuple[int, dict, dict]:
        payload = self._json_body()
        if not isinstance(payload, dict):
            raise ValueError("entry payload must be a JSON object")
        etag = self.service.write(key, payload, self.headers.get("If-Match"))
        # The whole request body *is* the entry here, so its wire size is
        # the stored size.
        self.service.metrics.count(bytes_stored=len(self._body_bytes))
        return 200, {"stored": True, "etag": etag}, {"ETag": etag}

    def _handle_entry_delete(self, key: str, query: dict) -> tuple[int, dict, dict]:
        existed = self.service.delete(key, self.headers.get("If-Match"))
        return 200, {"deleted": existed}, {}

    def _handle_touch(self, key: str, query: dict) -> tuple[int, dict, dict]:
        etag = self.service.touch(key)
        if etag is None:
            return 404, {"error": f"no entry {key!r}"}, {}
        return 200, {"touched": True, "etag": etag}, {"ETag": etag}

    def _handle_lookup(self, query: dict) -> tuple[int, dict, dict]:
        body = self._json_body()
        key = body.get("key")
        if not isinstance(key, str):
            raise ValueError("lookup body must carry a string 'key'")
        payload, status, etag = self.service.lookup(key)
        headers = {"ETag": etag} if etag else {}
        return 200, {"status": status, "payload": payload, "etag": etag}, headers

    def _handle_put(self, query: dict) -> tuple[int, dict, dict]:
        body = self._json_body()
        key, payload = body.get("key"), body.get("payload")
        if not isinstance(key, str) or not isinstance(payload, dict):
            raise ValueError("put body must carry a string 'key' and object 'payload'")
        etag, evicted = self.service.put(key, payload, self._body_policy(body))
        self.service.metrics.count(bytes_stored=self._payload_bytes(payload))
        return 200, {"stored": True, "etag": etag, "evicted": evicted}, {"ETag": etag}

    def _handle_evict(self, query: dict) -> tuple[int, dict, dict]:
        evicted = self.service.evict(self._body_policy(self._json_body()))
        return 200, {"evicted": evicted}, {}

    def _handle_clear(self, query: dict) -> tuple[int, dict, dict]:
        return 200, {"removed": self.service.clear()}, {}

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _body_policy(body: dict) -> EvictionPolicy | None:
        """Caps shipped in a request body, or ``None`` for the store policy."""
        caps = {k: body[k] for k in ("max_entries", "max_bytes") if k in body}
        if not caps:
            return None
        return EvictionPolicy(
            max_entries=int(caps["max_entries"]) if "max_entries" in caps else None,
            max_bytes=parse_size(caps["max_bytes"]) if "max_bytes" in caps else None,
        )

    def _json_body(self) -> dict[str, Any]:
        """The request body (pre-read by ``_dispatch``) as a JSON object."""
        if not self._body_bytes:
            return {}
        try:
            payload = json.loads(self._body_bytes)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any] | str,
        headers: dict[str, str] | None = None,
    ) -> int:
        """Send one response; returns the body size in bytes.

        A ``dict`` payload goes out as JSON; a ``str`` payload goes out
        verbatim (the Prometheus text exposition), with the content type
        taken from ``headers``.
        """
        extra = dict(headers or {})
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = extra.pop("Content-Type", "text/plain; charset=utf-8")
        else:
            data = json.dumps(payload).encode()
            content_type = extra.pop("Content-Type", "application/json")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in extra.items():
            if value:
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        return len(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Quiet by default; ``make_server(verbose=True)`` restores the log."""
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)


def make_server(
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = False,
    stripes: int = DEFAULT_STRIPES,
) -> ThreadingHTTPServer:
    """A ready-to-run server fronting ``store`` (``port=0`` picks a free one).

    The caller owns the lifecycle: run ``serve_forever()`` (typically in a
    thread for tests), then ``shutdown()`` + ``server_close()``.  The
    attached :class:`StoreService` is reachable as ``server.service``.
    ``stripes`` sizes the per-key lock pool (1 = global-lock behaviour).
    """
    server = ThreadingHTTPServer((host, port), StoreRequestHandler)
    server.service = StoreService(store, stripes=stripes)  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def server_url(server: ThreadingHTTPServer) -> str:
    """The ``http://host:port`` base URL a client reaches ``server`` at.

    A wildcard bind (``0.0.0.0`` / ``::``) is unreachable as written — the
    whole point of binding it is remote sweep hosts — so it is substituted
    with this machine's hostname before being shown to anyone.
    """
    host, port = server.server_address[:2]
    if host in ("0.0.0.0", "::", ""):
        host = socket.gethostname()
    if ":" in host:  # bare IPv6 literal: bracket it for URL use
        host = f"[{host}]"
    return f"http://{host}:{port}"


@contextmanager
def running_server(
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    stripes: int = DEFAULT_STRIPES,
) -> Iterator[ThreadingHTTPServer]:
    """A served store on a daemon thread, torn down (store included) on exit.

    The lifecycle tests and benchmarks need — bind an ephemeral port, serve
    in the background, then ``shutdown``/``server_close``/``store.close`` —
    in one place instead of copy-pasted around every fixture.
    """
    server = make_server(store, host=host, port=port, verbose=verbose, stripes=stripes)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        store.close()
        thread.join(timeout=5)


def serve_store(
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = False,
) -> int:
    """Blocking entry point of ``mas-attention serve``; returns an exit code."""
    server = make_server(store, host=host, port=port, verbose=verbose)
    url = server_url(server)
    print(
        f"serving {store.uri()} on {url} "
        f"(clients: --cache {url}; Ctrl-C stops)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        store.close()
    return 0
