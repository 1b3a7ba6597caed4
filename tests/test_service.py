"""Tests for the result-store service (:mod:`repro.service`) and its
client-side companions: the HTTP routes, capped puts under concurrent
clients, service metrics, the shared retry-with-backoff helper, and the
``serve`` and ``cache`` CLI wiring against a served store.

The backend *contract* of :class:`~repro.store.http.HttpStore` is covered by
the parametrized matrix in ``tests/test_store.py``; this file covers what is
specific to the service itself.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import build_parser
from repro.service import ServiceMetrics, running_server, server_url
from repro.service.server import DEFAULT_PORT
from repro.store import (
    EvictionPolicy,
    HttpStore,
    JsonDirStore,
    RetryPolicy,
    TransientServiceError,
    call_with_retry,
    make_payload,
)
from repro.store.http import API_PREFIX


def payload_for(key: str, value: int = 0) -> dict:
    return make_payload(
        key,
        {
            "scheduler": "mas",
            "workload": f"wl-{value}",
            "strategy": "mcts+ga",
            "budget": value,
        },
    )


@pytest.fixture
def server(tmp_path):
    """A live service over a fresh JSON directory; yields the server object."""
    with running_server(JsonDirStore(tmp_path / "served")) as srv:
        yield srv


@pytest.fixture
def client(server):
    store = HttpStore(server_url(server))
    yield store
    store.close()


# Backwards-friendly local alias (the shared helper does the work).
url_of = server_url


def fill(root, count: int) -> list[str]:
    """Write entries ``k0``..``k<count-1>`` into the directory ``root``, oldest
    first, through a local store; a service fronting ``root`` serves them."""
    keys = [f"k{i}" for i in range(count)]
    local = JsonDirStore(root)
    for i, key in enumerate(keys):
        local.put(key, payload_for(key, i))
        os.utime(root / f"{key}.json", (1000.0 + i, 1000.0 + i))
    return keys


@contextmanager
def flaky_server(handler_cls):
    """A bare ThreadingHTTPServer around a custom (failure-injecting) handler."""
    srv = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def raw_request(server, method: str, path: str, body: dict | None = None,
                headers: dict | None = None):
    """One plain-HTTP request (no HttpStore conveniences, no retries)."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None
    finally:
        conn.close()


def requests_by_route(store: HttpStore) -> dict[str, int]:
    """Requests the service has counted so far, by route label.

    Read over ``store``'s own keep-alive connection, which one server thread
    serves in order, so every earlier request on it is already counted.
    """
    return {
        route: stats["count"] for route, stats in store.metrics()["requests"].items()
    }


#: Each ``HttpStore`` operation -> the requests it sends, by route label.
ROUTES_OF_OPERATION = {
    "lookup": (lambda s: s.lookup("k"), {"POST /lookup": 1}),
    "put": (lambda s: s.put("n", payload_for("n")), {"POST /put": 1}),
    "entries": (lambda s: s.entries(scheduler="mas"), {"GET /entries": 1}),
    "stats": (lambda s: s.stats(), {"GET /stats": 1}),
    "len": (len, {"GET /stats": 1}),
    "evict": (lambda s: s.evict(), {"POST /evict": 1}),
    "evict-capped": (
        lambda s: s.evict(EvictionPolicy(max_entries=5)), {"POST /evict": 1}
    ),
    # explicitly unbounded: nothing to enforce, so no request at all
    "evict-unbounded": (lambda s: s.evict(EvictionPolicy()), {}),
    "clear": (lambda s: s.clear(), {"POST /clear": 1}),
}


# ---------------------------------------------------------------------- #
# Routes
# ---------------------------------------------------------------------- #
class TestEndpoints:
    def test_healthz_reports_backend_and_store(self, server):
        status, payload = raw_request(server, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["backend"] == "jsondir"
        assert payload["store"].startswith("dir:")
        # operational identity: version, age and pid of the serving process
        assert payload["version"]
        assert payload["uptime_seconds"] >= 0
        assert payload["pid"] > 0

    @pytest.mark.parametrize(
        "method, path",
        [
            ("GET", f"{API_PREFIX}/nonsense"),
            # one route per store operation: no raw-entry routes
            ("GET", f"{API_PREFIX}/entry/k"),
            ("PUT", f"{API_PREFIX}/entry/k"),
            ("DELETE", f"{API_PREFIX}/entry/k"),
            ("POST", f"{API_PREFIX}/entry/k/touch"),
            ("GET", f"{API_PREFIX}/keys"),
        ],
    )
    def test_unknown_endpoint_is_404_with_json_error(self, server, client, method, path):
        client.put("k", payload_for("k"))
        body = payload_for("k") if method == "PUT" else None
        status, payload = raw_request(server, method, path, body=body)
        assert status == 404 and "error" in payload
        assert client.lookup("k")[1] == "hit"  # the entry is untouched

    def test_unmatched_paths_share_one_metrics_label(self, server, client):
        """Junk traffic must not grow the per-endpoint table unboundedly."""
        for i in range(5):
            raw_request(server, "GET", f"/scanner/probe-{i}")
        requests = client.metrics()["requests"]
        assert requests["GET <unmatched>"]["count"] == 5
        assert not any("scanner" in label for label in requests)

    def test_bad_json_body_is_400(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/api/v1/lookup", body=b"definitely-not-json",
                headers={"Content-Length": "19"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "header",
        ["Transfer-Encoding: chunked", "Content-Length: -1", "Content-Length: ten"],
    )
    def test_unknown_body_length_is_400_and_closes_the_connection(
        self, server, client, header
    ):
        """Where such a body ends is unknown, so the bytes after the headers
        cannot be told from a next request: the service answers once and
        hangs up (regression: a pipelined POST /clear ran and emptied the
        store)."""
        client.put("kept", payload_for("kept"))
        pipelined = (
            f"POST {API_PREFIX}/lookup HTTP/1.1\r\nHost: x\r\n{header}\r\n\r\n"
            f"POST {API_PREFIX}/clear HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        )
        received = b""
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(pipelined.encode())
            while chunk := sock.recv(65536):  # b"" once the service closes
                received += chunk
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(b"HTTP/1.1 400 ")
        assert "error" in json.loads(received.partition(b"\r\n\r\n")[2])
        assert client.lookup("kept")[1] == "hit"
        assert "POST /clear" not in client.metrics()["requests"]

    def test_unknown_entry_filter_is_400(self, server, client):
        client.put("a", payload_for("a"))
        status, payload = raw_request(
            server, "GET", "/api/v1/entries?flavour=vanilla"
        )
        assert status == 400 and "flavour" in payload["error"]

    def test_lookup_endpoint_is_one_round_trip_with_status(self, server, client):
        client.put("k", payload_for("k", 4))
        status, payload = raw_request(
            server, "POST", "/api/v1/lookup", body={"key": "k"}
        )
        assert status == 200
        assert payload["status"] == "hit"  # schema-checked server-side...
        assert payload["payload"]["meta"]["budget"] == 4  # ... payload attached
        _, missing = raw_request(server, "POST", "/api/v1/lookup", body={"key": "nope"})
        assert missing == {"status": "miss", "payload": None}

    @pytest.mark.parametrize("operation", sorted(ROUTES_OF_OPERATION))
    def test_each_store_operation_is_one_request_to_its_route(
        self, client, operation
    ):
        call, expected = ROUTES_OF_OPERATION[operation]
        client.put("k", payload_for("k"))
        before = requests_by_route(client)
        call(client)
        sent = Counter(requests_by_route(client))
        sent.subtract(before)
        sent["GET /metrics"] -= 1  # the read of ``before`` itself
        assert {route: n for route, n in sent.items() if n} == expected

    def test_evict_without_policy_uses_the_services_caps(self, tmp_path):
        """HttpStore.evict(None) with an unbounded client policy delegates to
        the store policy the service was launched with."""
        root = tmp_path / "capped"
        fill(root, 4)  # written behind the service, past its cap
        backend = JsonDirStore(root, policy=EvictionPolicy(max_entries=2))
        with running_server(backend) as srv:
            store = HttpStore(server_url(srv))
            evicted = store.evict()  # no caps anywhere client-side
            assert evicted == ["k0", "k1"]
            assert store.evict(EvictionPolicy()) == []  # explicit unbounded: no-op
            store.close()

    def test_keep_alive_survives_every_post_on_one_connection(self, server):
        """Every route consumes its request body — including /clear, which
        takes none as input — so one keep-alive connection serves a whole
        session (regression: '{}' left in the stream desynced the next
        request into a 501)."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        session = [
            ("put", {"key": "a", "payload": payload_for("a")}),
            ("lookup", {"key": "a"}),
            ("evict", {"max_entries": 5}),
            ("clear", {}),
            ("lookup", {"key": "a"}),
        ]
        try:
            sockets = []
            for route, body in session:
                conn.request(
                    "POST", f"{API_PREFIX}/{route}", body=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200, route
                last = json.loads(response.read())
                sockets.append(conn.sock)
            assert last == {"status": "miss", "payload": None}  # cleared
            assert all(sock is sockets[0] for sock in sockets)  # never re-opened
        finally:
            conn.close()

    def test_wildcard_bind_prints_a_reachable_url(self, tmp_path):
        import socket

        from repro.service import make_server, server_url

        srv = make_server(JsonDirStore(tmp_path / "w"), host="0.0.0.0", port=0)
        try:
            url = server_url(srv)
            assert "0.0.0.0" not in url
            assert socket.gethostname() in url
        finally:
            srv.server_close()

    def test_keep_alive_survives_a_404_with_body(self, server):
        """An unmatched POST's body is drained, so the same keep-alive
        connection serves the next request instead of desyncing."""
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/api/v1/renamed-endpoint",
                body=json.dumps({"key": "x" * 256}).encode(),
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 404
            first.read()
            conn.request("GET", "/healthz")  # same socket, next request
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["ok"] is True
        finally:
            conn.close()

    def test_proxy_path_prefix_is_sent_on_every_request(self):
        """An http://host/prefix URI prepends the prefix to request paths."""
        seen: list[str] = []

        class Recorder(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                seen.append(self.path)
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                data = json.dumps({"ok": True, "backend": "x", "store": "x"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            do_POST = do_GET

            def log_message(self, *args):
                pass

        with flaky_server(Recorder) as url:
            store = HttpStore(f"{url}/mas")
            assert store.ping()["ok"] is True
            store.lookup("some-key")
            store.stats()
            store.close()
        assert seen == ["/mas/healthz", "/mas/api/v1/lookup", "/mas/api/v1/stats"]

    def test_client_caps_cannot_loosen_the_services_policy(self, tmp_path):
        """A client shipping looser caps must not grow a capped store past
        the policy the service was launched with."""
        backend = JsonDirStore(tmp_path / "capped", policy=EvictionPolicy(max_entries=2))
        with running_server(backend) as srv:
            loose = HttpStore(
                server_url(srv), policy=EvictionPolicy(max_entries=1000)
            )
            evicted = []
            for i in range(5):  # put() ships the loose caps with every write
                evicted += loose.put(f"k{i}", payload_for(f"k{i}", i))
            assert evicted == ["k0", "k1", "k2"]  # each put reports its evictions
            assert sorted(e.key for e in loose.entries()) == ["k3", "k4"]  # server cap held
            # a *tighter* client policy still tightens further
            loose.put("fresh", payload_for("fresh"))
            tight = HttpStore(server_url(srv), policy=EvictionPolicy(max_entries=1))
            tight.put("last", payload_for("last"))
            assert [e.key for e in tight.entries()] == ["last"]
            loose.close()
            tight.close()

    def test_server_side_eviction_under_put(self, server, client, tmp_path):
        """A put shipping caps evicts LRU entries atomically, server-side."""
        fill(tmp_path / "served", 5)
        status, payload = raw_request(
            server,
            "POST",
            "/api/v1/put",
            body={"key": "fresh", "payload": payload_for("fresh"), "max_entries": 3},
        )
        assert status == 200
        assert payload["evicted"] == ["k0", "k1", "k2"]  # 6 entries down to 3, LRU first
        assert sorted(e.key for e in client.entries()) == ["fresh", "k3", "k4"]

    def test_keys_that_leave_the_store_directory_are_400(self, tmp_path):
        """No key sent in a JSON body reaches a file outside the served
        directory."""
        requests = [
            (f"{API_PREFIX}/put", {"key": "../escape", "payload": payload_for("x")}),
            (f"{API_PREFIX}/put", {"key": "../../escape", "payload": payload_for("x")}),
            (f"{API_PREFIX}/lookup", {"key": "../escape"}),
        ]
        with running_server(JsonDirStore(tmp_path / "deep" / "served")) as srv:
            for path, body in requests:
                status, payload = raw_request(srv, "POST", path, body=body)
                assert status == 400, (path, body)
                assert "invalid store key" in payload["error"]
        assert list(tmp_path.rglob("escape.json")) == []


# ---------------------------------------------------------------------- #
# Concurrent clients
# ---------------------------------------------------------------------- #
class TestConcurrentClients:
    def test_concurrent_clients_never_lose_fresh_entries(self, server):
        """Four clients hammer puts under a shared cap: the cap holds and
        every client's most recent entry survives the crossfire."""
        cap = 8
        rounds = 6

        def hammer(worker: int) -> str:
            store = HttpStore(
                url_of(server), policy=EvictionPolicy(max_entries=cap)
            )
            last = ""
            for i in range(rounds):
                last = f"w{worker}-r{i}"
                store.put(last, payload_for(last, i))
            store.close()
            return last

        with ThreadPoolExecutor(max_workers=4) as pool:
            finals = list(pool.map(hammer, range(4)))

        survivor_check = HttpStore(url_of(server))
        keys = {info.key for info in survivor_check.entries()}
        assert len(keys) == cap  # the cap held exactly under concurrency
        for final in finals:  # the 4 freshest entries all survived
            assert final in keys
            payload, status = survivor_check.lookup(final)
            assert status == "hit" and payload is not None
        survivor_check.close()

    def test_store_runs_one_operation_at_a_time(self, tmp_path):
        """Every store operation runs under the service's one lock: however
        many clients send at once, the store never sees two operations
        overlap, and none is lost."""
        store = _OverlapProbeStore(tmp_path / "served")
        rounds = 5

        def mixed(url: str, worker: int) -> None:
            client = HttpStore(url)
            for i in range(rounds):
                key = f"w{worker}-r{i}"
                client.put(key, payload_for(key, i))
                assert client.lookup(key)[1] == "hit"
                client.stats()
            client.close()

        with running_server(store) as server:
            url = url_of(server)
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda worker: mixed(url, worker), range(4)))
        assert store.in_progress == [1] * (4 * rounds * 3)


class _OverlapProbeStore(JsonDirStore):
    """A directory store that records, for each of its lookups, puts and
    stats calls, how many were in progress once it began; each lingers
    briefly, so operations that are let overlap do."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self._inside: list[None] = []
        self.in_progress: list[int] = []

    @contextmanager
    def _operation(self):
        self._inside.append(None)
        self.in_progress.append(len(self._inside))
        try:
            time.sleep(0.002)
            yield
        finally:
            self._inside.pop()

    def lookup(self, key):
        with self._operation():
            return super().lookup(key)

    def put(self, key, payload):
        with self._operation():
            return super().put(key, payload)

    def stats(self):
        with self._operation():
            return super().stats()


class _FailingStatsStore(JsonDirStore):
    """A directory store whose first ``stats()`` call raises, so the service
    answers it 500."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.failed = False

    def stats(self):
        if not self.failed:
            self.failed = True
            raise RuntimeError("disk on fire")
        return super().stats()


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_metrics_track_hits_misses_evictions_and_latency(
        self, server, client, tmp_path
    ):
        client.lookup("missing")
        client.put("a", payload_for("a"))
        client.lookup("a")
        # planted behind the service: stale payloads never travel over the wire
        JsonDirStore(tmp_path / "served").put(
            "stale", {"schema": 99, "key": "stale", "tuning": {}}
        )
        client.lookup("stale")
        client.evict(EvictionPolicy(max_entries=1))

        metrics = client.metrics()
        assert metrics["hits"] == 1
        assert metrics["misses"] == 1
        assert metrics["stale"] == 1
        assert metrics["puts"] == 1
        assert metrics["evictions"] == 1
        assert metrics["bytes_stored"] > 0 and metrics["bytes_served"] > 0

        lookups = metrics["requests"]["POST /lookup"]
        assert lookups["count"] == 3
        assert lookups["errors"] == 0
        assert lookups["max_ms"] >= lookups["mean_ms"] > 0
        # latency quantiles from the fixed-bucket histogram, ordered
        assert 0 < lookups["p50_ms"] <= lookups["p95_ms"] <= lookups["p99_ms"]
        assert lookups["p99_ms"] <= lookups["max_ms"]
        assert metrics["uptime_s"] >= 0

    def test_metrics_document_is_json_whatever_the_client_asks_for(self, server):
        status, document = raw_request(
            server, "GET", "/metrics?format=prometheus", headers={"Accept": "text/plain"}
        )
        assert status == 200 and document["hits"] == 0
        assert set(document) == {*ServiceMetrics.COUNTERS, "uptime_s", "requests"}

    def test_metrics_values_keep_their_types(self, server, client):
        """The document's shape is a contract with `obs metrics` and with
        dashboards: integer counters, a float uptime, and per endpoint
        integer counts and float latencies."""
        client.put("a", payload_for("a"))
        client.lookup("a")
        document = client.metrics()
        for name in ServiceMetrics.COUNTERS:
            assert type(document[name]) is int, name
        assert type(document["uptime_s"]) is float
        assert set(document["requests"]) == {"POST /put", "POST /lookup"}
        for endpoint, stats in document["requests"].items():
            assert type(stats.pop("count")) is int and type(stats.pop("errors")) is int
            assert set(stats) == {
                "total_ms", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"
            }, endpoint
            assert all(type(value) is float for value in stats.values()), endpoint

    def test_server_errors_count_against_their_endpoint(self, tmp_path):
        """A 5xx counts as a request and an error of its endpoint; a 4xx
        counts as a request only."""
        with running_server(_FailingStatsStore(tmp_path / "served")) as srv:
            assert raw_request(srv, "GET", f"{API_PREFIX}/stats")[0] == 500
            assert raw_request(srv, "GET", f"{API_PREFIX}/stats")[0] == 200
            status, _ = raw_request(srv, "POST", f"{API_PREFIX}/lookup", body={})
            assert status == 400
            requests = srv.service.metrics.snapshot()["requests"]
        assert (requests["GET /stats"]["count"], requests["GET /stats"]["errors"]) == (2, 1)
        assert (requests["POST /lookup"]["count"], requests["POST /lookup"]["errors"]) == (1, 0)

    def test_requests_are_recorded_before_their_response(self, tmp_path, monkeypatch):
        """A client that reads the metrics as soon as it has its response
        finds that request counted, however slowly the server records it."""
        observe = ServiceMetrics.observe

        def slow_observe(self, *args, **kwargs):
            time.sleep(0.2)
            observe(self, *args, **kwargs)

        monkeypatch.setattr(ServiceMetrics, "observe", slow_observe)
        with running_server(_FailingStatsStore(tmp_path / "served")) as srv:
            put = {"key": "a", "payload": payload_for("a")}
            for method, path, body, status, label, errors in (
                ("GET", f"{API_PREFIX}/stats", None, 500, "GET /stats", 1),
                ("POST", f"{API_PREFIX}/put", put, 200, "POST /put", 0),
                ("POST", f"{API_PREFIX}/lookup", {"key": "a"}, 200, "POST /lookup", 0),
                ("GET", "/nowhere", None, 404, "GET <unmatched>", 0),
            ):
                assert raw_request(srv, method, path, body=body)[0] == status
                snapshot = srv.service.metrics.snapshot()
                assert label in snapshot["requests"], label
                counted = snapshot["requests"][label]
                assert (counted["count"], counted["errors"]) == (1, errors), label
            assert snapshot["bytes_served"] > 0

    def test_record_lookup_rejects_unknown_status(self):
        """A new lookup status must be wired into the metrics explicitly —
        silently folding it into `misses` once skewed every hit-rate chart."""
        metrics = ServiceMetrics()
        for status in ("hit", "stale", "miss"):
            metrics.record_lookup(status)
        snapshot = metrics.snapshot()
        assert snapshot["hits"] == snapshot["misses"] == snapshot["stale"] == 1
        for status in ("upgraded", "hot"):
            with pytest.raises(ValueError, match="unknown lookup status"):
                metrics.record_lookup(status)
        assert metrics.snapshot()["misses"] == 1  # nothing was miscounted

    def test_concurrent_recording_loses_no_update(self):
        """Request threads record into one ServiceMetrics at once.  Each
        round's endpoint is new, so the threads race to create its
        histogram; without the lock, one thread's histogram replaces
        another's and its observations are lost."""
        metrics = ServiceMetrics()
        threads, rounds = 8, 500
        start = threading.Barrier(threads)

        def record():
            start.wait(timeout=60)
            for i in range(rounds):
                metrics.count(puts=1)
                metrics.observe(f"POST /e{i}", 1.0)

        workers = [threading.Thread(target=record) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        snapshot = metrics.snapshot()
        assert snapshot["puts"] == threads * rounds
        assert len(snapshot["requests"]) == rounds
        assert {stats["count"] for stats in snapshot["requests"].values()} == {threads}

    def test_bytes_stored_counts_payload_not_request_envelope(self, server):
        """`POST /put` accounting must reflect what the store keeps (the
        compact payload), not however many bytes the request body happened
        to occupy on the wire."""
        payload = payload_for("padded")
        body = json.dumps({"key": "padded", "payload": payload}, indent=8)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", f"{API_PREFIX}/put", body=body.encode())
            assert conn.getresponse().status == 200
        finally:
            conn.close()
        stored = server.service.metrics.snapshot()["bytes_stored"]
        compact = len(json.dumps(payload, separators=(",", ":")).encode())
        assert stored == compact
        assert len(body) > compact  # the padded envelope would have lied


# ---------------------------------------------------------------------- #
# The shared retry helper
# ---------------------------------------------------------------------- #
class TestRetryHelper:
    def test_returns_first_success_without_sleeping(self):
        sleeps: list[float] = []
        assert call_with_retry(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_backoff_schedule_and_eventual_success(self):
        sleeps: list[float] = []
        attempts = iter([True, True, False])  # fail, fail, succeed

        def flaky():
            if next(attempts):
                raise TimeoutError("transient")
            return "done"

        policy = RetryPolicy(attempts=5, base_delay=0.1, backoff=2.0, max_delay=10.0)
        assert call_with_retry(flaky, policy=policy, sleep=sleeps.append) == "done"
        assert sleeps == [0.1, 0.2]  # exponential, one sleep per failure

    def test_gives_up_after_attempts_and_reraises_last(self):
        sleeps: list[float] = []

        def always_fails():
            raise TimeoutError("still down")

        with pytest.raises(TimeoutError, match="still down"):
            call_with_retry(
                always_fails, policy=RetryPolicy(attempts=3, base_delay=0.01),
                sleep=sleeps.append,
            )
        assert len(sleeps) == 2  # attempts-1 sleeps

    def test_non_transient_errors_escape_immediately(self):
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            call_with_retry(
                fails,
                should_retry=lambda exc: isinstance(exc, TimeoutError),
                sleep=lambda s: None,
            )
        assert len(calls) == 1

    def test_delay_caps_at_max(self):
        policy = RetryPolicy(attempts=10, base_delay=1.0, backoff=10.0, max_delay=3.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 3.0  # 10.0 capped
        assert policy.delay(5) == 3.0

    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class _FlakyHandler(BaseHTTPRequestHandler):
    """Responds 503 to the first N requests, then 200 with a fixed body."""

    protocol_version = "HTTP/1.1"
    remaining_failures = 0
    body = b"{}"

    def do_GET(self):
        cls = type(self)
        if cls.remaining_failures > 0:
            cls.remaining_failures -= 1
            data = b'{"error": "warming up"}'
            self.send_response(503)
        else:
            data = cls.body
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # noqa: D102
        pass


class TestHttpRetry:
    def test_transient_5xx_retries_until_success(self):
        class Handler(_FlakyHandler):
            remaining_failures = 2
            body = json.dumps({"ok": True, "backend": "x", "store": "x"}).encode()

        with flaky_server(Handler) as url:
            store = HttpStore(url, retry=RetryPolicy(attempts=5, base_delay=0.001))
            assert store.ping()["ok"] is True  # two 503s absorbed
            assert Handler.remaining_failures == 0
            store.close()

    def test_persistent_5xx_raises_transient_error(self):
        class Handler(_FlakyHandler):
            remaining_failures = 10**6

        with flaky_server(Handler) as url:
            store = HttpStore(url, retry=RetryPolicy(attempts=3, base_delay=0.001))
            with pytest.raises(TransientServiceError):
                store.ping()
            store.close()


# ---------------------------------------------------------------------- #
# CLI wiring
# ---------------------------------------------------------------------- #
class TestServeCli:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "dir:/tmp/x", "--host", "0.0.0.0", "--port", "9999"]
        )
        assert args.command == "serve"
        assert args.store == "dir:/tmp/x"
        assert args.host == "0.0.0.0" and args.port == 9999
        defaults = build_parser().parse_args(["serve"])
        assert defaults.store is None and defaults.port == DEFAULT_PORT

    def test_serve_refuses_to_front_an_http_store(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="refusing"):
            main(["serve", "http://127.0.0.1:8787"])

    def test_serve_requires_a_store(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("MAS_CACHE_URI", raising=False)
        with pytest.raises(SystemExit, match="no result store"):
            main(["serve"])

    def test_cache_cli_works_against_a_served_store(self, server, client, capsys):
        from repro.cli import main

        client.put("a", payload_for("a", 1))
        assert main(["cache", "stats", "--cache", url_of(server)]) == 0
        out = capsys.readouterr().out
        assert "entries : 1" in out and "backend : http" in out
        assert main(["cache", "ls", "--cache", url_of(server)]) == 0
        assert "mas" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache", url_of(server)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_cache_evict_enforces_a_served_stores_caps(self, tmp_path, capsys):
        """With no --max-* flag, `cache evict` on a served store enforces the
        caps the service was launched with (a local store with no caps still
        refuses: nothing to enforce)."""
        from repro.cli import main

        root = tmp_path / "capped"
        fill(root, 5)
        backend = JsonDirStore(root, policy=EvictionPolicy(max_entries=2))
        with running_server(backend) as srv:
            assert main(["cache", "evict", "--cache", url_of(srv)]) == 0
            assert "evicted 3 entries; 2 remain" in capsys.readouterr().out
        assert sorted(path.stem for path in root.glob("*.json")) == ["k3", "k4"]
