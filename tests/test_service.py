"""Tests for the result-store service (:mod:`repro.service`) and its
client-side companions: the HTTP endpoints, ETag-based optimistic
concurrency under concurrent clients, service metrics, the shared
retry-with-backoff helper, and the ``serve`` CLI wiring.

The backend *contract* of :class:`~repro.store.http.HttpStore` is covered by
the parametrized matrix in ``tests/test_store.py``; this file covers what is
specific to the service itself.
"""

from __future__ import annotations

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import build_parser
from repro.service import KeyedLocks, ServiceMetrics, running_server, server_url
from repro.service.server import API_PREFIX, DEFAULT_PORT, PROMETHEUS_CONTENT_TYPE
from repro.store import (
    EvictionPolicy,
    HttpStore,
    JsonDirStore,
    RetryPolicy,
    StoreConflictError,
    TransientServiceError,
    call_with_retry,
    make_payload,
)


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
        payload = json.loads(raw) if raw else None
        return response.status, payload, response.getheader("ETag")
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# Endpoints
# ---------------------------------------------------------------------- #
class TestEndpoints:
    def test_healthz_reports_backend_and_store(self, server):
        status, payload, _ = raw_request(server, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["backend"] == "jsondir"
        assert payload["store"].startswith("dir:")
        # operational identity: version, age and pid of the serving process
        assert payload["version"]
        assert payload["uptime_seconds"] >= 0
        assert payload["pid"] > 0

    def test_unknown_endpoint_is_404_with_json_error(self, server):
        status, payload, _ = raw_request(server, "GET", "/api/v1/nonsense")
        assert status == 404 and "error" in payload

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

    def test_unknown_entry_filter_is_400(self, server, client):
        client.put("a", payload_for("a"))
        status, payload, _ = raw_request(
            server, "GET", "/api/v1/entries?flavour=vanilla"
        )
        assert status == 400 and "flavour" in payload["error"]

    def test_lookup_endpoint_is_one_round_trip_with_status(self, server, client):
        client.write("old", {"schema": 2, "key": "old", "tuning": {"budget": 1}})
        status, payload, etag = raw_request(
            server, "POST", "/api/v1/lookup", body={"key": "old"}
        )
        assert status == 200
        assert payload["status"] == "upgraded"  # normalized server-side...
        assert payload["payload"]["schema"] >= 3
        assert etag  # ... and version-bumped in the same trip
        # the write-back persisted: second lookup is a plain hit
        _, second, _ = raw_request(server, "POST", "/api/v1/lookup", body={"key": "old"})
        assert second["status"] == "hit"

    def test_evict_without_policy_uses_the_services_caps(self, tmp_path):
        """HttpStore.evict(None) with an unbounded client policy delegates to
        the store policy the service was launched with."""
        backend = JsonDirStore(tmp_path / "capped", policy=EvictionPolicy(max_entries=2))
        with running_server(backend) as srv:
            store = HttpStore(server_url(srv))
            for i in range(4):  # raw writes bypass put()'s enforcement
                store.write(f"k{i}", payload_for(f"k{i}", i))
                store.touch(f"k{i}")
            evicted = store.evict()  # no caps anywhere client-side
            assert evicted == ["k0", "k1"]
            assert store.evict(EvictionPolicy()) == []  # explicit unbounded: no-op
            store.close()

    def test_keep_alive_survives_every_post_on_one_connection(self, server, client):
        """Every endpoint consumes its request body — including /clear, which
        takes none as input — so one keep-alive connection serves a whole
        session (regression: '{}' left in the stream desynced the next
        request into a 501)."""
        client.put("a", payload_for("a"))
        assert client.clear() == 1
        # same HttpStore connection, conditional write right after clear():
        # conditional requests never retry, so a desynced stream would fail
        etag = client.write("b", payload_for("b"))
        assert client.write("b", payload_for("b", 2), if_match=etag)
        assert client.get("b")["meta"]["budget"] == 2

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
                data = json.dumps({"ok": True, "backend": "x", "store": "x"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        with flaky_server(Recorder) as url:
            store = HttpStore(f"{url}/mas")
            assert store.ping()["ok"] is True
            store.read("some-key")
            store.close()
        assert seen[0] == "/mas/healthz"
        assert seen[1] == "/mas/api/v1/entry/some-key"

    def test_client_caps_cannot_loosen_the_services_policy(self, tmp_path):
        """A client shipping looser caps must not grow a capped store past
        the policy the service was launched with."""
        backend = JsonDirStore(tmp_path / "capped", policy=EvictionPolicy(max_entries=2))
        with running_server(backend) as srv:
            loose = HttpStore(
                server_url(srv), policy=EvictionPolicy(max_entries=1000)
            )
            for i in range(5):  # put() ships the loose caps with every write
                loose.put(f"k{i}", payload_for(f"k{i}", i))
                loose.touch(f"k{i}")
            assert sorted(loose.keys()) == ["k3", "k4"]  # server cap held
            # a *tighter* client policy still tightens further
            loose.put("fresh", payload_for("fresh"))
            tight = HttpStore(server_url(srv), policy=EvictionPolicy(max_entries=1))
            tight.put("last", payload_for("last"))
            assert tight.keys() == ["last"]
            loose.close()
            tight.close()

    def test_server_side_eviction_under_put(self, server, client):
        """A put shipping caps evicts LRU entries atomically, server-side."""
        for i in range(5):
            client.put(f"k{i}", payload_for(f"k{i}", i))
            client.touch(f"k{i}")
        status, payload, _ = raw_request(
            server,
            "POST",
            "/api/v1/put",
            body={"key": "fresh", "payload": payload_for("fresh"), "max_entries": 3},
        )
        assert status == 200
        assert len(payload["evicted"]) == 3  # 6 entries down to 3, LRU first
        assert set(payload["evicted"]) == {"k0", "k1", "k2"}
        assert sorted(client.keys()) == ["fresh", "k3", "k4"]

    def test_keys_that_leave_the_store_directory_are_400(self, tmp_path):
        """No key — percent-encoded in the entry path or sent in a JSON body —
        reaches a file outside the served directory."""
        entry = f"{API_PREFIX}/entry/..%2Fescape"
        requests = [
            ("PUT", entry, payload_for("escape")),
            ("GET", entry, None),
            ("DELETE", entry, None),
            ("POST", f"{API_PREFIX}/put", {"key": "../escape", "payload": payload_for("x")}),
            ("POST", f"{API_PREFIX}/put", {"key": "../../escape", "payload": payload_for("x")}),
            ("POST", f"{API_PREFIX}/lookup", {"key": "../escape"}),
        ]
        with running_server(JsonDirStore(tmp_path / "deep" / "served")) as srv:
            for method, path, body in requests:
                status, payload, _ = raw_request(srv, method, path, body=body)
                assert status == 400, (method, path, body)
                assert "invalid store key" in payload["error"]
        assert list(tmp_path.rglob("escape.json")) == []


# ---------------------------------------------------------------------- #
# ETags and optimistic concurrency
# ---------------------------------------------------------------------- #
class TestEtagConcurrency:
    def test_conditional_delete_loses_to_a_touch(self, server, client):
        """Cross-host eviction must not delete an entry a client refreshed."""
        client.put("hot", payload_for("hot"))
        evictor = HttpStore(url_of(server))  # a second, independent client
        _, planned_etag = evictor.read_with_etag("hot")
        assert planned_etag is not None

        client.touch("hot")  # another host refreshes the entry meanwhile

        with pytest.raises(StoreConflictError):
            evictor.delete("hot", if_match=planned_etag)
        assert "hot" in client.keys()  # the entry survived its stale eviction
        # with the *current* etag the delete goes through
        _, fresh = evictor.read_with_etag("hot")
        assert evictor.delete("hot", if_match=fresh)
        evictor.close()

    def test_conditional_write_conflicts(self, server, client):
        etag = client.write("k", payload_for("k", 1))
        client.write("k", payload_for("k", 2))  # unconditional overwrite
        with pytest.raises(StoreConflictError):
            client.write("k", payload_for("k", 3), if_match=etag)
        assert client.get("k")["meta"]["budget"] == 2

    def test_lookup_hit_moves_the_etag(self, server, client):
        """A served hit refreshes LRU state, so its version must move too."""
        client.put("k", payload_for("k"))
        _, before = client.read_with_etag("k")
        assert client.lookup("k")[1] == "hit"
        _, after = client.read_with_etag("k")
        assert before != after

    def test_412_response_carries_current_etag(self, server, client):
        """The conflict response names the winning version both as an ETag
        header and in the body, so losers can retry without a refetch."""
        stale = client.write("k", payload_for("k", 1))
        client.write("k", payload_for("k", 2))
        _, current = client.read_with_etag("k")
        status, body, etag = raw_request(
            server,
            "PUT",
            f"{API_PREFIX}/entry/k",
            body=payload_for("k", 3),
            headers={"If-Match": stale},
        )
        assert status == 412
        assert etag == current
        assert body["etag"] == current

    def test_conflict_recovery_uses_surfaced_etag_without_refetch(
        self, server, client
    ):
        stale = client.write("k", payload_for("k", 1))
        client.write("k", payload_for("k", 2))

        def get_requests() -> int:
            requests = server.service.metrics.snapshot()["requests"]
            return sum(
                stats["count"]
                for label, stats in requests.items()
                if label.startswith("GET ")
            )

        gets_before = get_requests()
        with pytest.raises(StoreConflictError) as excinfo:
            client.write("k", payload_for("k", 3), if_match=stale)
        current = excinfo.value.current_etag
        assert current is not None
        # one retry with the surfaced etag wins — no GET round trip needed
        fresh = client.write("k", payload_for("k", 3), if_match=current)
        assert fresh != current
        assert get_requests() == gets_before
        assert client.get("k")["meta"]["budget"] == 3

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
        keys = set(survivor_check.keys())
        assert len(keys) == cap  # the cap held exactly under concurrency
        for final in finals:  # the 4 freshest entries all survived
            assert final in keys
            payload, status = survivor_check.lookup(final)
            assert status == "hit" and payload is not None
        survivor_check.close()


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_metrics_track_hits_misses_evictions_and_latency(self, server, client):
        client.lookup("missing")
        client.put("a", payload_for("a"))
        client.lookup("a")
        client.write("stale", {"schema": 99, "key": "stale", "tuning": {}})
        client.lookup("stale")
        client.evict(EvictionPolicy(max_entries=1))

        metrics = client.metrics()
        assert metrics["hits"] == 1
        assert metrics["misses"] == 1
        assert metrics["stale"] == 1
        assert metrics["puts"] >= 2
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

    def test_conflicts_are_counted(self, server, client):
        etag = client.write("k", payload_for("k"))
        client.touch("k")
        with pytest.raises(StoreConflictError):
            client.delete("k", if_match=etag)
        assert client.metrics()["conflicts"] == 1

    def test_record_lookup_rejects_unknown_status(self):
        """A new lookup status must be wired into the metrics explicitly —
        silently folding it into `misses` once skewed every hit-rate chart."""
        metrics = ServiceMetrics()
        for status in ("hit", "upgraded", "stale", "miss"):
            metrics.record_lookup(status)
        snapshot = metrics.snapshot()
        assert snapshot["hits"] == snapshot["misses"] == 1
        with pytest.raises(ValueError, match="unknown lookup status"):
            metrics.record_lookup("hot")
        assert metrics.snapshot()["misses"] == 1  # nothing was miscounted

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

    def test_prometheus_exposition_is_content_negotiated(self, server, client):
        client.put("k", payload_for("k"))
        client.lookup("k")
        client.lookup("nope")

        status, body, _ = raw_request(server, "GET", "/metrics")
        assert status == 200 and isinstance(body, dict)  # default stays JSON

        host, port = server.server_address[:2]
        for path, headers in (
            ("/metrics", {"Accept": "text/plain"}),
            ("/metrics?format=prometheus", {}),
        ):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", path, headers=headers)
                response = conn.getresponse()
                text = response.read().decode()
                assert response.status == 200
                assert response.getheader("Content-Type") == PROMETHEUS_CONTENT_TYPE
            finally:
                conn.close()
            assert "# TYPE mas_store_hits_total counter" in text
            assert "mas_store_hits_total 1" in text
            assert "mas_store_misses_total 1" in text
            assert "mas_store_uptime_seconds" in text
            assert 'mas_store_requests_total{endpoint="POST /lookup"} 2' in text
            # latency histogram, ms observations rendered in seconds
            assert "# TYPE mas_store_request_seconds histogram" in text
            assert (
                'mas_store_request_seconds_bucket{endpoint="POST /lookup",le="+Inf"} 2'
                in text
            )
            assert 'mas_store_request_seconds_count{endpoint="POST /lookup"} 2' in text


# ---------------------------------------------------------------------- #
# Striped per-key locking
# ---------------------------------------------------------------------- #
def _locked_in_thread(acquire, timeout: float = 2.0) -> bool:
    """True when ``acquire`` (a contextmanager factory) succeeds in a fresh
    thread within ``timeout`` — i.e. the lock is currently obtainable."""
    acquired = threading.Event()
    release = threading.Event()

    def worker():
        with acquire():
            acquired.set()
            release.wait(timeout)

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    ok = acquired.wait(timeout)
    release.set()
    thread.join(timeout)
    return ok


class TestKeyedLocks:
    def test_width_validation_and_pickle(self):
        import pickle

        assert KeyedLocks(8).stripe_count == 8
        with pytest.raises(ValueError):
            KeyedLocks(0)
        # locks cannot cross process boundaries; a clone arrives fresh
        assert pickle.loads(pickle.dumps(KeyedLocks(8))).stripe_count == 8

    def test_distinct_stripes_do_not_block_each_other(self):
        import zlib

        locks = KeyedLocks(64)
        stripe_of = lambda k: zlib.crc32(k.encode()) % 64
        other = next(str(i) for i in range(100) if stripe_of(str(i)) != stripe_of("a"))
        entered, release = threading.Event(), threading.Event()

        def holder():
            with locks.key("a"):
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert entered.wait(2)
        try:
            # a different stripe is immediately obtainable...
            assert _locked_in_thread(lambda: locks.key(other))
            # ...while the held key's stripe and the store gate are not
            assert not _locked_in_thread(lambda: locks.key("a"), timeout=0.3)
            assert not _locked_in_thread(locks.store, timeout=0.3)
        finally:
            release.set()
            thread.join(5)
        assert _locked_in_thread(lambda: locks.key("a"))
        assert _locked_in_thread(locks.store)

    def test_store_gate_excludes_every_key(self):
        locks = KeyedLocks(64)
        entered, release = threading.Event(), threading.Event()

        def holder():
            with locks.store():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert entered.wait(2)
        try:
            assert not _locked_in_thread(lambda: locks.key("a"), timeout=0.3)
            assert not _locked_in_thread(lambda: locks.key("b"), timeout=0.3)
        finally:
            release.set()
            thread.join(5)
        assert _locked_in_thread(lambda: locks.key("a"))

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: once an exclusive caller waits, fresh shared
        entries queue behind it — a steady read stream cannot starve evict."""
        locks = KeyedLocks(64)
        entered, release = threading.Event(), threading.Event()

        def reader():
            with locks.key("a"):
                entered.set()
                release.wait(5)

        holder = threading.Thread(target=reader, daemon=True)
        holder.start()
        assert entered.wait(2)

        writer_done = threading.Event()

        def writer():
            with locks.store():
                writer_done.set()

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        deadline = 2.0
        while locks._exclusive_waiting == 0 and deadline > 0:
            time_step = 0.01
            deadline -= time_step
            threading.Event().wait(time_step)
        assert locks._exclusive_waiting == 1

        # a brand-new reader on a *different* key must now queue too
        assert not _locked_in_thread(lambda: locks.key("b"), timeout=0.3)
        release.set()
        holder.join(5)
        assert writer_done.wait(2)
        writer_thread.join(5)
        assert _locked_in_thread(lambda: locks.key("b"))

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

    def test_conditional_requests_are_never_replayed(self):
        """A request carrying If-Match is sent exactly once: its outcome is
        unknowable after a transport failure, so a replay could turn a
        committed conditional write into a spurious conflict."""

        class Handler(_FlakyHandler):
            remaining_failures = 1

            def do_PUT(self):
                self.do_GET()

        with flaky_server(Handler) as url:
            store = HttpStore(url, retry=RetryPolicy(attempts=5, base_delay=0.001))
            with pytest.raises(TransientServiceError):  # one 503, no retry
                store.write("k", payload_for("k"), if_match='"1"')
            assert Handler.remaining_failures == 0  # a retry would have hit 200
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
        monkeypatch.delenv("MAS_CACHE_DIR", raising=False)
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
