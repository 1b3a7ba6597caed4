"""Tests for the fleet observability plane (:mod:`repro.obs.collect`,
:mod:`repro.obs.dash`, :mod:`repro.obs.bench`, :mod:`repro.obs.profile`):
histogram/family merge semantics, Prometheus text parsing, the collector's
degradation under endpoint failure, SSE framing and streaming, the perf
trajectory gate, span profiling, and the end-to-end acceptance run — a
live dashboard scraping two store services while a traced ``--jobs 4``
sweep streams spans through it, with bit-identical results.
"""

from __future__ import annotations

import http.client
import json
import queue
import socket
import threading
import time
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.cli import main as cli_main
from repro.exec.runner import ExperimentRunner
from repro.obs import trace as obs_trace
from repro.obs.bench import (
    DEFAULT_RULES,
    Rule,
    compare,
    flatten_metrics,
    history_payload,
    load_history,
    load_rules,
    record_runs,
)
from repro.obs.collect import (
    FleetCollector,
    TraceTail,
    counter_totals,
    endpoints_for,
    merge_registries,
)
from repro.obs import dash as dash_module
from repro.obs.dash import ObsState, running_dashboard, sse_format
from repro.obs.export import read_trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.prom import parse_text, registry_from_text, render_registry
from repro.obs.summary import summarize_trace
from repro.service import running_server, server_url
from repro.store import HttpStore, SqliteStore


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts and ends with tracing/profiling disabled."""
    obs_trace.reset()
    yield
    obs_trace.reset()


def _get_json(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


# --------------------------------------------------------------------------- #
# Histogram / MetricFamily merge
# --------------------------------------------------------------------------- #
class TestHistogramMerge:
    def test_merge_adds_bucket_counts_sum_and_extremes(self):
        a = Histogram(buckets=(1.0, 10.0))
        b = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 5.0):
            a.observe(v)
        for v in (5.0, 50.0):
            b.observe(v)
        a.merge(b)
        assert [c for _, c in a.bucket_counts()] == [1, 2, 1]
        assert a.count == 4
        assert a.sum == pytest.approx(60.5)
        assert a.max == pytest.approx(50.0)

    def test_merge_mismatched_buckets_raises(self):
        a = Histogram(buckets=(1.0, 10.0))
        b = Histogram(buckets=(1.0, 2.0, 10.0))
        with pytest.raises(ValueError, match="different buckets"):
            a.merge(b)

    def test_empty_merge_is_identity(self):
        a = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 3.0, 20.0):
            a.observe(v)
        before = (list(a.bucket_counts()), a.snapshot())
        a.merge(Histogram(buckets=(1.0, 10.0)))
        assert (list(a.bucket_counts()), a.snapshot()) == before

    def test_quantiles_after_merge_reflect_combined_population(self):
        buckets = tuple(float(b) for b in range(1, 101))
        a = Histogram(buckets=buckets)
        b = Histogram(buckets=buckets)
        for v in range(1, 51):
            a.observe(float(v))
        for v in range(51, 101):
            b.observe(float(v))
        a.merge(b)
        assert a.count == 100
        assert a.quantile(0.5) == pytest.approx(50.0, abs=1.5)
        assert a.quantile(0.95) == pytest.approx(95.0, abs=1.5)

    def test_from_buckets_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="counts"):
            Histogram.from_buckets((1.0, 10.0), [1, 2])  # needs len(buckets)+1
        with pytest.raises(ValueError, match="negative"):
            Histogram.from_buckets((1.0, 10.0), [1, -2, 0])

    def test_family_merge_counters_and_kind_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        fam_a = a.counter("hits", "h", labels=("ep",))
        fam_b = b.counter("hits", "h", labels=("ep",))
        fam_a.labels(ep="x").inc(2)
        fam_b.labels(ep="x").inc(3)
        fam_b.labels(ep="y").inc(1)
        fam_a.merge(fam_b)
        assert fam_a.labels(ep="x").value == 5
        assert fam_a.labels(ep="y").value == 1

        gauge = b.gauge("hits2", "g")
        with pytest.raises(ValueError, match="cannot merge gauge"):
            fam_a.merge(gauge)
        other_labels = b.counter("hits3", "h", labels=("other",))
        with pytest.raises(ValueError, match="labels"):
            fam_a.merge(other_labels)

    def test_family_merge_refuses_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ga = a.gauge("uptime", "u")
        gb = b.gauge("uptime", "u")
        with pytest.raises(ValueError, match="label gauges per source"):
            ga.merge(gb)

    def test_family_merge_of_empty_family_is_identity(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        fam_a = a.histogram("lat", "l", buckets=(1.0, 10.0))
        fam_b = b.histogram("lat", "l", buckets=(1.0, 10.0))
        fam_a.observe(0.5)
        fam_a.merge(fam_b)
        assert fam_a._sole_child().count == 1


# --------------------------------------------------------------------------- #
# Prometheus text parsing
# --------------------------------------------------------------------------- #
class TestPromParsing:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("hits", "Hits.").inc(5)
        requests = registry.counter("requests", "Reqs.", labels=("endpoint",))
        requests.labels(endpoint='POST /lookup "quoted"\nline').inc(7)
        registry.gauge("uptime_seconds", "Up.").set(12.5)
        lat = registry.histogram(
            "request_ms", "Latency.", labels=("endpoint",),
            prom_name="request_seconds", prom_scale=1e-3,
        )
        for v in (0.2, 0.7, 3.0, 40.0, 40.0):
            lat.labels(endpoint="POST /lookup").observe(v)
        return registry

    def test_round_trip_preserves_counters_gauges_and_buckets(self):
        registry = self._populated()
        text = render_registry(registry, "mas_store")
        parsed = registry_from_text(text)
        snap = parsed.snapshot()
        assert snap["mas_store_hits"] == 5.0
        assert snap["mas_store_requests"] == {'POST /lookup "quoted"\nline': 7.0}
        assert snap["mas_store_uptime_seconds"] == 12.5
        hist = snap["mas_store_request_seconds"]["POST /lookup"]
        assert hist["count"] == 5
        assert hist["sum"] == pytest.approx(0.0839)
        assert hist["max"] == pytest.approx(0.04)
        # per-bucket counts survive exactly, not just aggregates
        family = next(
            f for f in parsed.families() if f.name == "mas_store_request_seconds"
        )
        child = family.labels(endpoint="POST /lookup")
        nonzero = [(le, c) for le, c in child.bucket_counts() if c]
        assert nonzero == [(0.00025, 1), (0.001, 1), (0.005, 1), (0.05, 2)]

    def test_parse_rejects_decreasing_cumulative_buckets(self):
        text = (
            "# TYPE x histogram\n"
            'x_bucket{le="1"} 5\n'
            'x_bucket{le="+Inf"} 3\n'
            "x_sum 1\n"
            "x_count 3\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_text(text)

    def test_parse_requires_inf_bucket(self):
        text = "# TYPE x histogram\n" 'x_bucket{le=\"1\"} 5\n' "x_sum 1\nx_count 5\n"
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_text(text)

    def test_typeless_samples_degrade_to_gauges(self):
        families = parse_text("mystery_value 42\n")
        assert families["mystery_value"].kind == "gauge"
        assert families["mystery_value"].samples[()] == 42.0


# --------------------------------------------------------------------------- #
# Fleet merge + endpoints
# --------------------------------------------------------------------------- #
class TestFleetMerge:
    def test_endpoints_for_accepts_shard_http_and_lists(self):
        assert endpoints_for("shard:http://a:1,http://b:2?replicas=2") == (
            "http://a:1",
            "http://b:2",
        )
        assert endpoints_for("http://a:1") == ("http://a:1",)
        assert endpoints_for("http://a:1/, http://a:1") == ("http://a:1",)
        with pytest.raises(ValueError, match="no endpoints"):
            endpoints_for("shard:?replicas=2")
        with pytest.raises(ValueError, match="http"):
            endpoints_for("sqlite:///x.db")

    def test_merge_registries_sums_counters_and_labels_gauges_per_source(self):
        def source(hits: int, up: float) -> MetricsRegistry:
            registry = MetricsRegistry()
            registry.counter("mas_store_hits", "h").inc(hits)
            registry.gauge("mas_store_uptime_seconds", "u").set(up)
            return registry

        fleet = merge_registries(
            {"http://a:1": source(2, 10.0), "http://b:2": source(3, 20.0)}
        )
        snap = fleet.snapshot()
        assert snap["mas_store_hits"] == 5.0
        assert snap["mas_store_uptime_seconds"] == {
            "http://a:1": 10.0,
            "http://b:2": 20.0,
        }
        assert counter_totals(fleet) == {"mas_store_hits": 5.0}

    def test_merge_registries_merges_histograms_bucket_by_bucket(self):
        def source(values) -> MetricsRegistry:
            registry = MetricsRegistry()
            family = registry.histogram("lat", "l", buckets=(1.0, 10.0))
            for v in values:
                family.observe(v)
            return registry

        fleet = merge_registries(
            {"a": source([0.5, 5.0]), "b": source([5.0, 50.0])}
        )
        child = next(f for f in fleet.families() if f.name == "lat")._sole_child()
        assert [c for _, c in child.bucket_counts()] == [1, 2, 1]


# --------------------------------------------------------------------------- #
# TraceTail
# --------------------------------------------------------------------------- #
class TestTraceTail:
    def test_tail_is_incremental_and_tolerates_missing_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tail = TraceTail(path)
        assert tail.poll() == []
        path.write_text('{"name": "a"}\n')
        assert [e["name"] for e in tail.poll()] == ["a"]
        assert tail.poll() == []
        with path.open("a") as fh:
            fh.write('{"name": "b"}\n{"name": "c"}\n')
        assert [e["name"] for e in tail.poll()] == ["b", "c"]

    def test_tail_holds_back_partial_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tail = TraceTail(path)
        path.write_text('{"name": "a"}\n{"na')  # torn mid-write
        assert [e["name"] for e in tail.poll()] == ["a"]
        with path.open("a") as fh:
            fh.write('me": "b"}\n')
        assert [e["name"] for e in tail.poll()] == ["b"]

    def test_tail_resets_on_truncation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tail = TraceTail(path)
        path.write_text('{"name": "a"}\n{"name": "b"}\n')
        assert len(tail.poll()) == 2
        path.write_text('{"name": "fresh"}\n')  # shorter: a new trace
        assert [e["name"] for e in tail.poll()] == ["fresh"]


# --------------------------------------------------------------------------- #
# Collector against live services
# --------------------------------------------------------------------------- #
class TestFleetCollector:
    def test_scrape_merges_two_live_endpoints(self, tmp_path):
        with running_server(SqliteStore(tmp_path / "a.db")) as a, running_server(
            SqliteStore(tmp_path / "b.db")
        ) as b:
            for srv in (a, b):
                client = HttpStore(server_url(srv))
                try:
                    client.lookup("missing")
                finally:
                    client.close()
            target = f"shard:{server_url(a)},{server_url(b)}"
            collector = FleetCollector(endpoints_for(target), interval=0.2, ring=8)
            snapshot = collector.scrape_once()
            assert snapshot.healthy_count == 2
            snap = snapshot.registry.snapshot()
            assert snap["mas_store_misses"] >= 2.0  # summed across endpoints
            assert len(snap["mas_store_uptime_seconds"]) == 2  # one per source

    def test_one_dead_endpoint_degrades_not_kills(self, tmp_path):
        # Reserve a port that is guaranteed closed while the test runs.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with running_server(SqliteStore(tmp_path / "a.db")) as a:
            collector = FleetCollector(
                (server_url(a), f"http://127.0.0.1:{dead_port}"), interval=0.2
            )
            snapshot = collector.scrape_once()
        assert snapshot.healthy_count == 1
        states = {e.url: e for e in snapshot.endpoints}
        dead = states[f"http://127.0.0.1:{dead_port}"]
        assert not dead.healthy and dead.error
        # the live endpoint's metrics still made it into the fleet view
        assert snapshot.registry.snapshot().get("mas_store_uptime_seconds")

    def test_snapshot_ring_is_bounded(self, tmp_path):
        with running_server(SqliteStore(tmp_path / "a.db")) as a:
            collector = FleetCollector((server_url(a),), interval=0.2, ring=3)
            for _ in range(5):
                collector.scrape_once()
            snapshots = collector.snapshots()
        assert len(snapshots) == 3
        assert [s.seq for s in snapshots] == [3, 4, 5]

    def test_subscribers_receive_metric_deltas_and_spans(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with running_server(SqliteStore(tmp_path / "a.db")) as a:
            collector = FleetCollector(
                (server_url(a),), interval=0.2, trace_path=trace
            )
            subscriber = collector.subscribe()
            collector.scrape_once()
            trace.write_text('{"name": "pair", "layer": "runner"}\n')
            collector.poll_spans()
            events = [subscriber.get_nowait() for _ in range(2)]
        assert [e["event"] for e in events] == ["metrics", "span"]
        assert events[1]["data"]["name"] == "pair"
        collector.unsubscribe(subscriber)
        collector._publish("span", {})  # no subscriber: must not raise


# --------------------------------------------------------------------------- #
# SSE framing
# --------------------------------------------------------------------------- #
class TestSseFraming:
    def test_frame_shape(self):
        frame = sse_format("span", {"a": 1}).decode()
        assert frame == 'event: span\ndata: {"a":1}\n\n'

    def test_multiline_payload_stays_one_frame(self):
        frame = sse_format("metrics", "line1\nline2").decode()
        # json.dumps escapes the newline, so exactly one data line results —
        # but the framing contract (split on \n) must hold regardless.
        body, _, trailer = frame.partition("\n\n")
        assert trailer == ""
        lines = body.split("\n")
        assert lines[0] == "event: metrics"
        assert all(line.startswith("data: ") for line in lines[1:])

    def test_rejects_invalid_event_names(self):
        with pytest.raises(ValueError, match="event name"):
            sse_format("bad\nname", {})
        with pytest.raises(ValueError, match="event name"):
            sse_format("", {})


# --------------------------------------------------------------------------- #
# Perf trajectory (bench)
# --------------------------------------------------------------------------- #
class TestPerfTrajectory:
    BENCH = {
        "search_throughput": {
            "sweep": {"prune": {"candidates_per_s": 200.0}},
            "networks": ["x"],
        },
        "tracing_overhead": {"overhead_ratio": 1.05, "passed": True},
    }

    def _record(self, tmp_path, doc, run_id) -> Path:
        bench = tmp_path / f"{run_id}.json"
        bench.write_text(json.dumps(doc))
        record_runs(bench, tmp_path / "hist.jsonl", run_id=run_id, ts=1.0)
        return tmp_path / "hist.jsonl"

    def test_flatten_metrics_keeps_numbers_and_bools_only(self):
        flat = flatten_metrics(self.BENCH["search_throughput"])
        assert flat == {"sweep.prune.candidates_per_s": 200.0}
        assert flatten_metrics({"ok": True}) == {"ok": 1.0}

    def test_compare_passes_on_flat_trajectory(self, tmp_path):
        self._record(tmp_path, self.BENCH, "r1")
        hist = self._record(tmp_path, self.BENCH, "r2")
        report = compare(load_history(hist))
        assert report.ok
        assert not report.fresh
        metrics = {f"{d.benchmark}.{d.metric}" for d in report.deltas}
        assert "search_throughput.sweep.prune.candidates_per_s" in metrics

    def test_compare_flags_injected_regression(self, tmp_path):
        self._record(tmp_path, self.BENCH, "r1")
        self._record(tmp_path, self.BENCH, "r2")
        bad = json.loads(json.dumps(self.BENCH))
        bad["search_throughput"]["sweep"]["prune"]["candidates_per_s"] = 100.0
        hist = self._record(tmp_path, bad, "r3")
        report = compare(load_history(hist))
        assert not report.ok
        (regression,) = report.regressions
        assert regression.metric == "sweep.prune.candidates_per_s"
        assert regression.delta_pct == pytest.approx(-50.0)
        assert "REGRESSION" in report.format()

    def test_direction_lower_is_better(self, tmp_path):
        self._record(tmp_path, self.BENCH, "r1")
        worse = json.loads(json.dumps(self.BENCH))
        worse["tracing_overhead"]["overhead_ratio"] = 1.3
        hist = self._record(tmp_path, worse, "r2")
        report = compare(load_history(hist))
        assert [d.metric for d in report.regressions] == ["overhead_ratio"]

    def test_first_run_is_fresh_not_failed(self, tmp_path):
        hist = self._record(tmp_path, self.BENCH, "r1")
        report = compare(load_history(hist))
        assert report.ok
        assert set(report.fresh) == {"search_throughput", "tracing_overhead"}

    def test_rules_file_and_validation(self, tmp_path):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(
            json.dumps([{"pattern": "*.candidates_per_s", "tolerance": 0.01}])
        )
        rules = load_rules(rules_path)
        assert rules[0].direction == "higher"
        with pytest.raises(ValueError, match="direction"):
            Rule("*", "sideways", 0.1)
        rules_path.write_text("{}")
        with pytest.raises(ValueError, match="JSON list"):
            load_rules(rules_path)

    def test_cli_record_check_pass_and_fail(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bench = tmp_path / "BENCH_search.json"
        hist = tmp_path / "BENCH_history.jsonl"
        bench.write_text(json.dumps(self.BENCH))
        for run in ("r1", "r2"):
            assert cli_main(
                ["obs", "bench", "record", "--bench", str(bench),
                 "--history", str(hist), "--run-id", run]
            ) == 0
        assert cli_main(["obs", "bench", "check", "--history", str(hist)]) == 0
        assert "PASS" in capsys.readouterr().out

        bad = json.loads(json.dumps(self.BENCH))
        bad["search_throughput"]["sweep"]["prune"]["candidates_per_s"] = 1.0
        bench.write_text(json.dumps(bad))
        assert cli_main(
            ["obs", "bench", "record", "--bench", str(bench),
             "--history", str(hist), "--run-id", "r3"]
        ) == 0
        assert cli_main(["obs", "bench", "check", "--history", str(hist)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # compare reports but never gates
        assert cli_main(["obs", "bench", "compare", "--history", str(hist)]) == 0

    def test_cli_check_without_history_exits_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="no benchmark history"):
            cli_main(
                ["obs", "bench", "check", "--history", str(tmp_path / "nope.jsonl")]
            )

    def test_repo_history_passes_the_real_gate(self):
        """The committed trajectory must be green (acceptance criterion)."""
        repo_history = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
        entries = load_history(repo_history)
        runs = {entry["run"] for entry in entries}
        assert len(runs) >= 2
        assert compare(entries, rules=DEFAULT_RULES).ok

    def test_history_payload_shape(self, tmp_path):
        hist = self._record(tmp_path, self.BENCH, "r1")
        payload = history_payload(hist)
        assert payload["entries"] == 2
        assert payload["runs"][0]["run"] == "r1"
        assert payload["report"]["ok"] is True


# --------------------------------------------------------------------------- #
# Critical path scoping (regression test for the multi-trace splice bug)
# --------------------------------------------------------------------------- #
class TestCriticalPathScoping:
    def test_path_never_crosses_trace_boundaries(self):
        spans = [
            # trace A: heaviest root, child chain rooted at span id "s1"
            {"name": "sweep", "layer": "runner", "trace_id": "A",
             "span_id": "s1", "parent_id": None, "ts_us": 0, "dur_us": 1000},
            {"name": "pair", "layer": "runner", "trace_id": "A",
             "span_id": "s2", "parent_id": "s1", "ts_us": 0, "dur_us": 500},
            # trace B reuses the same span ids with a *much* heavier child:
            # keying children by bare span_id would splice it under trace A.
            {"name": "other-root", "layer": "runner", "trace_id": "B",
             "span_id": "s1", "parent_id": None, "ts_us": 0, "dur_us": 10},
            {"name": "intruder", "layer": "store", "trace_id": "B",
             "span_id": "s3", "parent_id": "s1", "ts_us": 0, "dur_us": 900},
        ]
        path = summarize_trace(spans).critical_path
        assert [name for name, _, _ in path] == ["sweep", "pair"]

    def test_format_top_caps_layers_and_spans(self):
        spans = [
            {"name": f"n{i}", "layer": f"layer{i}", "trace_id": "T",
             "span_id": f"s{i}", "parent_id": None, "ts_us": 0, "dur_us": 100 + i}
            for i in range(8)
        ]
        text = summarize_trace(spans).format(top=3)
        assert "... 5 more layer(s)" in text
        assert text.count(" ms  in ") == 3


# --------------------------------------------------------------------------- #
# Span profiling (MAS_PROFILE)
# --------------------------------------------------------------------------- #
class TestSpanProfiling:
    def _traced_burn(self, tmp_path, monkeypatch, profile: str, min_ms: str):
        trace_path = tmp_path / "t.jsonl"
        monkeypatch.setenv("MAS_TRACE", str(trace_path))
        monkeypatch.setenv("MAS_PROFILE", profile)
        monkeypatch.setenv("MAS_PROFILE_MIN_MS", min_ms)
        monkeypatch.setenv("MAS_PROFILE_DIR", str(tmp_path / "prof"))
        obs_trace.reset()
        with obs_trace.span("outer", layer="runner"):
            with obs_trace.span("gen", layer="search"):
                sum(i * i for i in range(50000))
        obs_trace.reset()
        return trace_path

    def test_matching_layer_persists_pstats_and_attr(self, tmp_path, monkeypatch):
        trace_path = self._traced_burn(tmp_path, monkeypatch, "search", "0")
        spans = {s["name"]: s for s in read_trace(trace_path)}
        profile = spans["gen"]["attrs"].get("profile")
        assert profile and Path(profile).exists()
        assert "search-gen-" in Path(profile).name
        assert "profile" not in spans["outer"]["attrs"]  # layer filter held

    def test_fast_spans_discard_their_stats(self, tmp_path, monkeypatch):
        trace_path = self._traced_burn(tmp_path, monkeypatch, "search", "60000")
        spans = {s["name"]: s for s in read_trace(trace_path)}
        assert "profile" not in spans["gen"]["attrs"]
        assert not list((tmp_path / "prof").glob("*.pstats"))

    def test_profile_all_covers_only_outermost_span_per_thread(
        self, tmp_path, monkeypatch
    ):
        trace_path = self._traced_burn(tmp_path, monkeypatch, "all", "0")
        spans = {s["name"]: s for s in read_trace(trace_path)}
        assert "profile" in spans["outer"]["attrs"]
        assert "profile" not in spans["gen"]["attrs"]  # cProfile cannot nest

    def test_obs_profile_cli_reports_hotspots(self, tmp_path, monkeypatch, capsys):
        trace_path = self._traced_burn(tmp_path, monkeypatch, "search", "0")
        assert cli_main(["obs", "profile", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profiled spans: 1" in out
        assert "aggregate hotspots" in out

    def test_obs_profile_cli_without_profiles(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text(
            json.dumps({"name": "a", "layer": "runner", "trace_id": "T",
                        "span_id": "s", "parent_id": None,
                        "ts_us": 0, "dur_us": 1}) + "\n"
        )
        assert cli_main(["obs", "profile", str(trace_path)]) == 0
        assert "no profiled spans" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# obs metrics --watch
# --------------------------------------------------------------------------- #
class TestMetricsWatch:
    def test_watch_loops_until_interrupted(self, tmp_path, monkeypatch, capsys):
        with running_server(SqliteStore(tmp_path / "a.db")) as srv:
            url = server_url(srv)
            calls = {"n": 0}

            def fake_sleep(seconds):
                calls["n"] += 1
                if calls["n"] >= 2:
                    raise KeyboardInterrupt
                return None

            monkeypatch.setattr("repro.cli.time.sleep", fake_sleep)
            assert cli_main(["obs", "metrics", url, "--watch", "0.5"]) == 0
        out = capsys.readouterr().out
        assert calls["n"] == 2
        assert out.count("uptime") >= 2  # rendered more than once


# --------------------------------------------------------------------------- #
# Dashboard HTTP surface
# --------------------------------------------------------------------------- #
class TestDashboardEndpoints:
    @pytest.fixture()
    def dash(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        history = tmp_path / "hist.jsonl"
        with running_server(SqliteStore(tmp_path / "a.db")) as a, running_server(
            SqliteStore(tmp_path / "b.db")
        ) as b:
            target = f"shard:{server_url(a)},{server_url(b)}"
            collector = FleetCollector(
                endpoints_for(target), interval=0.1, trace_path=trace
            )
            state = ObsState(
                collector=collector, target=target,
                trace_path=trace, history_path=history,
            )
            with running_dashboard(state) as server:
                yield server_url(server), trace, history

    def test_healthz_fleet_metrics_and_404(self, dash):
        url, _, _ = dash
        health = _get_json(url + "/healthz")
        assert health["ok"] and len(health["endpoints"]) == 2

        fleet = _get_json(url + "/api/obs/fleet")
        assert fleet["latest"]["healthy"] == 2
        assert "mas_store_uptime_seconds" in fleet["latest"]["metrics"]
        assert fleet["history"]

        metrics = _get_json(url + "/api/obs/metrics")
        assert "mas_store_puts" in metrics["metrics"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(url + "/nope")
        assert excinfo.value.code == 404

    def test_index_page_is_self_contained(self, dash):
        url, _, _ = dash
        with urllib.request.urlopen(url + "/", timeout=5) as response:
            html = response.read().decode()
        assert html.startswith("<!doctype html>")
        assert "EventSource" in html
        assert "src=" not in html.split("<script>")[0]  # no external assets

    def test_spans_and_summary_follow_the_trace_file(self, dash):
        url, trace, _ = dash
        assert _get_json(url + "/api/obs/summary")["available"] is False
        trace.write_text(
            json.dumps({"name": "sweep", "layer": "runner", "trace_id": "T",
                        "span_id": "s1", "parent_id": None,
                        "ts_us": 0, "dur_us": 1000}) + "\n"
        )
        spans = _get_json(url + "/api/obs/spans?limit=10")
        assert [s["name"] for s in spans["spans"]] == ["sweep"]
        summary = _get_json(url + "/api/obs/summary?top=3")
        assert summary["available"] is True
        assert summary["summary"]["span_count"] == 1

    def test_bench_endpoint_serves_history(self, dash):
        url, _, history = dash
        assert _get_json(url + "/api/obs/bench")["entries"] == 0
        history.write_text(
            json.dumps({"ts": 1.0, "run": "r1", "name": "b",
                        "metrics": {"candidates_per_s": 5.0}}) + "\n"
        )
        doc = _get_json(url + "/api/obs/bench")
        assert doc["entries"] == 1 and doc["available"] is True

    def test_sse_stream_delivers_appended_spans(self, dash):
        url, trace, _ = dash
        parts = urlsplit(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            conn.request("GET", "/api/obs/stream")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"] == "text/event-stream"
            trace.write_text(
                json.dumps({"name": "pair", "layer": "runner", "trace_id": "T",
                            "span_id": "s1", "parent_id": None,
                            "ts_us": 0, "dur_us": 5}) + "\n"
            )
            event_name, payload = None, None
            deadline = time.time() + 10  # mas-lint: disable=determinism(test timeout budget, not a result)
            while time.time() < deadline:  # mas-lint: disable=determinism(test timeout budget, not a result)
                line = response.fp.readline().decode().rstrip("\n")
                if line.startswith("event: span"):
                    event_name = "span"
                elif event_name == "span" and line.startswith("data: "):
                    payload = json.loads(line[len("data: "):])
                    break
            assert payload is not None and payload["name"] == "pair"
        finally:
            conn.close()


class TestDashboardUrl:
    def test_wildcard_bind_prints_a_reachable_url(self, monkeypatch, capsys):
        """``obs serve --host 0.0.0.0`` advertises this host, not 0.0.0.0."""
        servers = []
        real_make = dash_module.make_dashboard

        def recording_make(*args, **kwargs):
            servers.append(real_make(*args, **kwargs))
            return servers[-1]

        def offline(url):
            raise OSError("no fleet in this test")

        monkeypatch.setattr(dash_module, "make_dashboard", recording_make)
        collector = FleetCollector(("http://127.0.0.1:1",), interval=0.1, fetch=offline)
        state = ObsState(collector=collector, target="http://127.0.0.1:1")
        thread = threading.Thread(
            target=dash_module.serve_dashboard,
            args=(state,),
            kwargs={"host": "0.0.0.0", "port": 0},
            daemon=True,
        )
        thread.start()
        for _ in range(200):
            if servers:
                break
            time.sleep(0.025)
        assert servers, "serve_dashboard never created its server"
        servers[0].shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()

        port = servers[0].server_address[1]
        out = capsys.readouterr().out
        assert f"dashboard on http://{socket.gethostname()}:{port} " in out
        assert "0.0.0.0" not in out


# --------------------------------------------------------------------------- #
# Acceptance: live dashboard over a traced --jobs 4 sweep
# --------------------------------------------------------------------------- #
class TestObsPlaneAcceptance:
    NETWORKS = ["BERT-Base"]
    METHODS = ["layerwise", "flat", "tileflow", "mas"]

    @staticmethod
    def _fingerprint(matrix) -> list[tuple]:
        rows = []
        for network, methods in sorted(matrix.items()):
            for method, run in sorted(methods.items()):
                tiling = run.tuning.best_tiling.as_dict() if run.tuning else None
                rows.append(
                    (network, method, run.cycles, run.energy_pj,
                     tuple(sorted((tiling or {}).items())))
                )
        return rows

    def test_dashboard_observes_traced_sweep_without_perturbing_it(
        self, tmp_path, monkeypatch
    ):
        trace_path = tmp_path / "sweep.jsonl"

        # Baseline: no tracing, no dashboard, no cache.
        baseline = ExperimentRunner(search_budget=4, jobs=1, use_cache=False)
        expected = self._fingerprint(
            baseline.run_matrix(networks=self.NETWORKS, methods=self.METHODS)
        )

        with running_server(SqliteStore(tmp_path / "a.db")) as a, running_server(
            SqliteStore(tmp_path / "b.db")
        ) as b:
            target = f"shard:{server_url(a)},{server_url(b)}?replicas=2"
            collector = FleetCollector(
                endpoints_for(target), interval=0.1, trace_path=trace_path
            )
            state = ObsState(
                collector=collector, target=target, trace_path=trace_path
            )
            with running_dashboard(state) as dash_server:
                url = server_url(dash_server)
                subscriber = collector.subscribe()
                monkeypatch.setenv("MAS_TRACE", str(trace_path))
                obs_trace.reset()  # re-read env; forked workers inherit it
                try:
                    traced = ExperimentRunner(
                        search_budget=4, jobs=4, cache_uri=target
                    )
                    actual = self._fingerprint(
                        traced.run_matrix(
                            networks=self.NETWORKS, methods=self.METHODS
                        )
                    )
                finally:
                    obs_trace.reset()
                    monkeypatch.delenv("MAS_TRACE")

                # 1. bit identity with the dashboard attached end to end
                assert actual == expected

                # 2. the collector tailed the sweep's spans live: the --jobs 4
                # pair spans (and their pool workers' children) reached the
                # SSE fan-out, not just the file.
                deadline = time.time() + 10  # mas-lint: disable=determinism(test timeout budget, not a result)
                while collector.span_count < 4 and time.time() < deadline:  # mas-lint: disable=determinism(test timeout budget, not a result)
                    collector.poll_spans()
                    time.sleep(0.05)
                streamed = []
                while True:
                    try:
                        item = subscriber.get_nowait()
                    except queue.Empty:
                        break
                    if item["event"] == "span":
                        streamed.append(item["data"])
                names = {span.get("name") for span in streamed}
                assert "pair" in names
                assert {s.get("pid") for s in streamed if s.get("name") == "pair"}

                # 3. fleet view over both endpoints, merged bucket-by-bucket:
                # the fleet histogram's per-bucket counts equal the element-
                # wise sum of the two endpoints' scraped buckets.
                snapshot = collector.scrape_once()
                assert snapshot.healthy_count == 2
                per_endpoint = []
                for endpoint in collector.endpoints:
                    with urllib.request.urlopen(
                        endpoint + "/metrics?format=prometheus", timeout=5
                    ) as response:
                        text = response.read().decode()
                    registry = registry_from_text(text)
                    family = next(
                        f for f in registry.families()
                        if f.name == "mas_store_request_seconds"
                    )
                    per_endpoint.append(dict(family.samples()))
                fleet_family = next(
                    f for f in snapshot.registry.families()
                    if f.name == "mas_store_request_seconds"
                )
                fleet_samples = {
                    values: child
                    for values, child in fleet_family.samples()
                    # The collector's own scrape loop keeps hitting GET
                    # /metrics between the fleet snapshot and the manual
                    # re-scrape below; only sweep-driven labels are stable.
                    if "/metrics" not in values[0]
                }
                assert fleet_samples  # the sweep generated HTTP traffic
                for values, fleet_child in fleet_samples.items():
                    fleet_counts = [c for _, c in fleet_child.bucket_counts()]
                    summed = [0] * len(fleet_counts)
                    for endpoint_samples in per_endpoint:
                        child = endpoint_samples.get(values)
                        if child is None:
                            continue
                        for index, (_, count) in enumerate(child.bucket_counts()):
                            summed[index] += count
                    assert fleet_counts == summed

                # 4. the dashboard serves the merged state over HTTP
                fleet_doc = _get_json(url + "/api/obs/fleet")
                assert fleet_doc["latest"]["healthy"] == 2
                summary_doc = _get_json(url + "/api/obs/summary")
                assert summary_doc["available"] is True
                assert "runner" in summary_doc["summary"]["layers"]

                collector.unsubscribe(subscriber)
