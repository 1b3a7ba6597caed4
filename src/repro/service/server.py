"""The HTTP result-store server: one route per store operation, plus metrics.

Three layers, separable on purpose:

* :class:`StoreService` — a thread-safe facade over one
  :class:`~repro.store.base.ResultStore` that runs every store operation
  under one lock, so a capped put's write and eviction, and every snapshot,
  see a store no other request is changing.  Every operation feeds
  :class:`ServiceMetrics`;
* :class:`StoreRequestHandler` — the REST surface (see the table in
  ``docs/store_service.md``): ``/healthz``, the JSON ``/metrics`` document,
  and one route per store operation, ``/lookup``/``/put``/``/evict``/
  ``/clear``/``/stats``/``/entries`` under
  :data:`~repro.store.http.API_PREFIX`;
* :func:`make_server` / :func:`serve_store` — construction and the CLI's
  blocking entry point.

The server should be the only writer of its backing directory.  Scaling
rule of thumb: one service per store; many sweep hosts per service.
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
from urllib.parse import parse_qsl, urlsplit

from repro import __version__
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram
from repro.obs.trace import TraceContext
from repro.store.base import ResultStore
from repro.store.eviction import EvictionPolicy, parse_size
from repro.store.http import API_PREFIX

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


class ServiceMetrics:  # mas-lint: disable=fork-safety(lives in the server process only; never pickled to workers)
    """Store-level counters plus per-endpoint latency, served at ``/metrics``.

    Eight plain counters, and per endpoint an error count and a latency
    :class:`~repro.obs.metrics.Histogram` whose count is the endpoint's
    request count — so the JSON document reports p50/p95/p99 per endpoint,
    not just mean/max.  One lock guards them all, so the request threads of
    a :class:`~http.server.ThreadingHTTPServer` record concurrently.
    Everything is monotonic since server start.
    """

    #: Counter names, fixed so ``/metrics`` output is stable for dashboards.
    COUNTERS = (
        "hits",
        "misses",
        "stale",
        "puts",
        "deletes",
        "evictions",
        "bytes_stored",
        "bytes_served",
    )

    #: Lookup statuses as reported by ``ResultStore.lookup`` -> counter name.
    _LOOKUP_STATUSES = {
        "hit": "hits",
        "stale": "stale",
        "miss": "misses",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self.COUNTERS, 0)
        self._latency: dict[str, Histogram] = {}
        self._errors: dict[str, int] = {}
        self._started = time.time()

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self._started

    def count(self, **increments: int) -> None:
        with self._lock:
            for name, amount in increments.items():
                self._counts[name] += amount

    def record_lookup(self, status: str) -> None:
        """Tally one schema-aware lookup outcome (hit/stale/miss).

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
        with self._lock:
            if endpoint not in self._latency:
                self._latency[endpoint] = Histogram()
                self._errors[endpoint] = 0  # reported even at 0
            self._latency[endpoint].observe(elapsed_ms)
            self._errors[endpoint] += int(error)

    def snapshot(self) -> dict[str, Any]:
        """The JSON ``/metrics`` document: counters + per-endpoint latency.

        Each endpoint reports exact count/errors/total/mean/max plus the
        histogram's estimated p50/p95/p99.
        """
        with self._lock:
            document: dict[str, Any] = dict(self._counts)
            requests: dict[str, dict[str, Any]] = {}
            for endpoint, hist in sorted(self._latency.items()):
                stats = hist.snapshot()
                requests[endpoint] = {
                    "count": stats["count"],
                    "errors": self._errors[endpoint],
                    "total_ms": round(stats["sum"], 3),
                    "mean_ms": round(stats["mean"], 3),
                    "max_ms": round(stats["max"], 3),
                    "p50_ms": round(stats["p50"], 3),
                    "p95_ms": round(stats["p95"], 3),
                    "p99_ms": round(stats["p99"], 3),
                }
        document["uptime_s"] = round(self.uptime_seconds, 3)
        document["requests"] = requests
        return document


class StoreService:  # mas-lint: disable=fork-safety(lives in the server process only; never pickled to workers)
    """A facade over one result store that runs every operation under one lock.

    A sweep sends one lookup per pair and one put per search; striped
    per-key locks served that traffic no faster (measurements in
    ``docs/store_service.md``, "One lock").
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.metrics = ServiceMetrics()
        self._lock = threading.Lock()

    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        with self._lock:
            payload, status = self.store.lookup(key)
        self.metrics.record_lookup(status)
        return payload, status

    def put(
        self, key: str, payload: dict[str, Any], policy: EvictionPolicy | None
    ) -> list[str]:
        """Write + eviction, atomically; returns the evicted keys."""
        with self._lock:
            # The store's own put enforces the caps the service was launched
            # with; the request's caps compose with them.
            evicted = self.store.put(key, payload)
            if _bounded(policy):
                evicted += self.store.evict(policy)
        self.metrics.count(puts=1, evictions=len(evicted))
        return evicted

    def entries(self, filters: dict[str, str]) -> list[dict[str, Any]]:
        with self._lock:
            return [asdict(info) for info in self.store.entries(**filters)]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return self.store.stats().as_dict()

    def evict(self, policy: EvictionPolicy | None) -> list[str]:
        """One eviction pass: the request's caps, then the service's own.

        A client-shipped policy composes with — never replaces — the caps
        the service was launched with, so a client with looser caps cannot
        grow a capped store past its configured bound.
        """
        with self._lock:
            evicted = self.store.evict(policy) if _bounded(policy) else []
            if self.store.policy.bounded and policy != self.store.policy:
                evicted += self.store.evict()
        self.metrics.count(evictions=len(evicted))
        return evicted

    def clear(self) -> int:
        with self._lock:
            removed = self.store.clear()
        self.metrics.count(deletes=removed)
        return removed


def _bounded(policy: EvictionPolicy | None) -> bool:
    return policy is not None and policy.bounded


class StoreRequestHandler(BaseHTTPRequestHandler):
    """Routes the REST surface onto a :class:`StoreService`.

    HTTP/1.1 with explicit ``Content-Length`` on every response, so clients
    keep one connection alive across a whole sweep.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"mas-attention-store/{__version__}"

    #: The routes: ``(method, path) -> handler name``.  A request's metrics
    #: label is its method and path without :data:`API_PREFIX`.
    ROUTES = {
        ("GET", "/healthz"): "_handle_healthz",
        ("GET", "/metrics"): "_handle_metrics",
        ("GET", f"{API_PREFIX}/stats"): "_handle_stats",
        ("GET", f"{API_PREFIX}/entries"): "_handle_entries",
        ("POST", f"{API_PREFIX}/lookup"): "_handle_lookup",
        ("POST", f"{API_PREFIX}/put"): "_handle_put",
        ("POST", f"{API_PREFIX}/evict"): "_handle_evict",
        ("POST", f"{API_PREFIX}/clear"): "_handle_clear",
    }

    # Populated by make_server on the server object; typed here for clarity.
    @property
    def service(self) -> StoreService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    # No route takes PUT or DELETE; dispatching them anyway answers a JSON
    # 404 and drains the body, where the base class would send a bodiless
    # 501 and leave the body to desync the keep-alive stream.
    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

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
        label, status, payload = self._respond(method)
        body = json.dumps(payload).encode()
        # Record the request before its first response byte is written: a
        # client that reads /metrics once it has its response must find it.
        if label == "POST /lookup" and status == 200:
            # Lookups are the only responses that carry entry payloads.
            self.service.metrics.count(bytes_served=len(body))
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.service.metrics.observe(label, elapsed_ms, error=status >= 500)
        try:
            self._send(status, body)
        except OSError:  # pragma: no cover - client went away
            status = 499
            self.close_connection = True
        span.set(endpoint=label, status=status)

    def _respond(self, method: str) -> tuple[str, int, dict[str, Any]]:
        """Route one request: its metrics label, status and JSON document."""
        parts = urlsplit(self.path)
        # Unmatched paths share one fixed label: per-path labels would let a
        # port scanner (or a buggy client) grow the metrics table unboundedly.
        label = f"{method} <unmatched>"
        try:
            # Consume the request body exactly once, up front, whatever the
            # route: on a keep-alive connection any unread body bytes would
            # be parsed as the next request line, desyncing the stream for
            # every later request (no per-endpoint handler can forget this).
            length = self._body_length()
            if length is None:
                # Where this body ends is unknown, so whatever follows the
                # headers cannot be told from the next request: answer, then
                # close the connection instead of running those bytes.
                self.close_connection = True
                return label, 400, {
                    "error": "bad request: a body needs a non-negative "
                             "integer Content-Length and no Transfer-Encoding"
                }
            self._body_bytes = self.rfile.read(length) if length > 0 else b""
            handler = self.ROUTES.get((method, parts.path))
            if handler is None:
                return label, 404, {"error": f"no such endpoint: {method} {parts.path}"}
            label = f"{method} {parts.path.removeprefix(API_PREFIX)}"
            return label, 200, getattr(self, handler)(dict(parse_qsl(parts.query)))
        except (KeyError, TypeError, ValueError) as exc:
            return label, 400, {"error": f"bad request: {exc}"}
        except Exception as exc:  # noqa: BLE001 - the service must not die
            return label, 500, {"error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------ #
    # Route handlers: query parameters in, JSON document out
    # ------------------------------------------------------------------ #
    def _handle_healthz(self, query: dict) -> dict:
        store = self.service.store
        return {
            "ok": True,
            "version": __version__,
            "backend": store.backend,
            "store": store.uri(),
            "uptime_seconds": round(self.service.metrics.uptime_seconds, 3),
            "pid": os.getpid(),
        }

    def _handle_metrics(self, query: dict) -> dict:
        return self.service.metrics.snapshot()

    def _handle_stats(self, query: dict) -> dict:
        return self.service.stats()

    def _handle_entries(self, query: dict) -> dict:
        return {"entries": self.service.entries(query)}

    def _handle_lookup(self, query: dict) -> dict:
        body = self._json_body()
        key = body.get("key")
        if not isinstance(key, str):
            raise ValueError("lookup body must carry a string 'key'")
        payload, status = self.service.lookup(key)
        return {"status": status, "payload": payload}

    def _handle_put(self, query: dict) -> dict:
        body = self._json_body()
        key, payload = body.get("key"), body.get("payload")
        if not isinstance(key, str) or not isinstance(payload, dict):
            raise ValueError("put body must carry a string 'key' and object 'payload'")
        evicted = self.service.put(key, payload, self._body_policy(body))
        # Accounted from the compact entry payload, not the request body:
        # the JSON envelope (key, policy caps, indentation) is not stored.
        self.service.metrics.count(
            bytes_stored=len(json.dumps(payload, separators=(",", ":")).encode())
        )
        return {"stored": True, "evicted": evicted}

    def _handle_evict(self, query: dict) -> dict:
        return {"evicted": self.service.evict(self._body_policy(self._json_body()))}

    def _handle_clear(self, query: dict) -> dict:
        return {"removed": self.service.clear()}

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

    def _body_length(self) -> int | None:
        """The request body's length, or ``None`` when the headers do not say
        it: a ``Transfer-Encoding``, or a negative or non-integer
        ``Content-Length``.  No length header at all means an empty body."""
        if "Transfer-Encoding" in self.headers:
            return None
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None
        return length if length >= 0 else None

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

    def _send(self, status: int, body: bytes) -> None:
        """Send one JSON response."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Quiet by default; ``make_server(verbose=True)`` restores the log."""
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)


def make_server(
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-run server fronting ``store`` (``port=0`` picks a free one).

    The caller owns the lifecycle: run ``serve_forever()`` (typically in a
    thread for tests), then ``shutdown()`` + ``server_close()``.  The
    attached :class:`StoreService` is reachable as ``server.service``.
    """
    server = ThreadingHTTPServer((host, port), StoreRequestHandler)
    server.service = StoreService(store)  # type: ignore[attr-defined]
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
) -> Iterator[ThreadingHTTPServer]:
    """A served store on a daemon thread, torn down (store included) on exit.

    The lifecycle tests and benchmarks need — bind an ephemeral port, serve
    in the background, then ``shutdown``/``server_close``/``store.close`` —
    in one place instead of copy-pasted around every fixture.
    """
    server = make_server(store, host=host, port=port, verbose=verbose)
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
