"""Tests for the unified telemetry layer (:mod:`repro.obs`): span tracing
across threads, process pools and the HTTP wire; the metrics registry with
latency histograms; Prometheus text exposition edge cases; and the
``mas-attention obs`` CLI toolchain.

The acceptance test at the bottom runs a real multi-process sweep against a
live store service with ``MAS_TRACE`` enabled and asserts the two hard
properties: results stay bit-identical to the untraced sweep, and the trace
covers every layer with parent IDs that stitch across both the process and
the HTTP boundary.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.cli import main as cli_main
from repro.exec.runner import ExperimentRunner
from repro.obs import trace as obs_trace
from repro.obs.export import chrome_trace, read_trace, write_chrome
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    global_registry,
)
from repro.obs.prom import escape_label_value, render_registry
from repro.obs.schema import validate_trace_file
from repro.obs.summary import summarize_trace
from repro.obs.trace import TraceContext
from repro.service import running_server, server_url
from repro.service.server import ServiceMetrics
from repro.store import RetryPolicy, SqliteStore, TransientServiceError, call_with_retry
from repro.store.retry import retry_totals


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts and ends with tracing disabled and no ambient context."""
    obs_trace.reset()
    yield
    obs_trace.reset()


# --------------------------------------------------------------------------- #
# TraceContext: the wire format
# --------------------------------------------------------------------------- #
class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext(trace_id="0123456789abcdef", span_id="0a1b2c3d")
        assert ctx.to_header() == "0123456789abcdef-0a1b2c3d"
        assert TraceContext.from_header(ctx.to_header()) == ctx

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "nohyphen",
            "0123456789abcdef",  # trace id only
            "0123456789abcdef-0a1b2c",  # span id too short
            "0123456789abcde-0a1b2c3d",  # trace id too short
            "0123456789abcdeg-0a1b2c3d",  # non-hex trace id
            "0123456789abcdef-0a1b2c3z",  # non-hex span id
        ],
    )
    def test_malformed_headers_parse_to_none(self, value):
        assert TraceContext.from_header(value) is None


# --------------------------------------------------------------------------- #
# Tracer: spans, nesting, buffering, enablement
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_by_default(self, tmp_path):
        with obs_trace.span("anything", layer="test") as sp:
            assert sp.context is None  # the shared null span
        assert obs_trace.current_context() is None
        assert obs_trace.get_tracer() is None

    def test_nested_spans_share_a_trace_and_parent_correctly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(path)
        with obs_trace.span("outer", layer="test") as outer:
            with obs_trace.span("inner", layer="test") as inner:
                assert inner.context.trace_id == outer.context.trace_id
                assert obs_trace.current_context() == inner.context
        obs_trace.reset()  # flush + close

        spans = {s["name"]: s for s in read_trace(path)}
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["inner"]["trace_id"] == spans["outer"]["trace_id"]
        # inner completes first: JSONL order is completion order
        assert [s["name"] for s in read_trace(path)] == ["inner", "outer"]

    def test_explicit_parent_and_ambient_context(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(path)
        remote = TraceContext(trace_id="feedfacefeedface", span_id="deadbeef")
        with obs_trace.span("child", parent=remote):
            pass
        obs_trace.attach_context(remote)
        with obs_trace.span("adopted"):
            pass
        obs_trace.reset()

        spans = {s["name"]: s for s in read_trace(path)}
        for name in ("child", "adopted"):
            assert spans[name]["trace_id"] == "feedfacefeedface"
            assert spans[name]["parent_id"] == "deadbeef"

    def test_span_attrs_and_late_set(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(path)
        with obs_trace.span("op", layer="store", backend="sqlite") as sp:
            sp.set(status="hit")
        obs_trace.reset()
        (record,) = read_trace(path)
        assert record["attrs"] == {"backend": "sqlite", "status": "hit"}
        assert record["layer"] == "store"
        assert record["dur_us"] >= 0 and record["pid"] == os.getpid()

    def test_buffering_batches_writes_until_flush(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(path, buffer_spans=100)
        with obs_trace.span("buffered"):
            pass
        assert path.read_text() == ""  # still pending
        obs_trace.flush()
        assert len(read_trace(path)) == 1

    def test_env_enables_tracing_after_reset(self, tmp_path, monkeypatch):
        path = tmp_path / "env_trace.jsonl"
        monkeypatch.setenv("MAS_TRACE", str(path))
        obs_trace.reset()  # forget the (disabled) tracer; re-read the env
        with obs_trace.span("from_env") as sp:
            assert sp.context is not None
        obs_trace.reset()
        assert [s["name"] for s in read_trace(path)] == ["from_env"]

    def test_threads_keep_independent_span_stacks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(path)
        seen = {}

        def worker():
            # no inherited stack: this span is a root of its own trace
            with obs_trace.span("thread_root") as sp:
                seen["context"] = sp.context

        with obs_trace.span("main_root") as main_sp:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert seen["context"].trace_id != main_sp.context.trace_id
        obs_trace.reset()
        spans = {s["name"]: s for s in read_trace(path)}
        assert spans["thread_root"]["parent_id"] is None


# --------------------------------------------------------------------------- #
# Metrics registry: counters, histograms, quantiles
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        family = registry.counter("things", "Things counted.")
        family.inc(2)
        with pytest.raises(ValueError, match="only go up"):
            family.inc(-1)
        assert family.value == 2

    def test_registration_is_idempotent_but_rejects_mismatch(self):
        registry = MetricsRegistry()
        a = registry.counter("ops", "Ops.", labels=("kind",))
        assert registry.counter("ops", "Ops again.", labels=("kind",)) is a
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("ops", "Now a gauge?")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("ops", "Different labels.", labels=("other",))

    def test_labels_must_match_declared_names(self):
        registry = MetricsRegistry()
        family = registry.counter("ops", "Ops.", labels=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(flavor="x")
        family.labels(kind="read").inc()
        assert family.snapshot() == {"read": 1}

    def test_histogram_quantiles_are_ordered_and_clamped(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_ms", "Latency.")
        for value in range(1, 101):  # 1..100 ms, uniform
            hist.observe(float(value))
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(5050.0)
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        # interpolated quantiles stay ordered and inside the observed range
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        assert 25.0 <= snap["p50"] <= 75.0  # coarse buckets, generous bands

    def test_histogram_single_observation_clamps_to_exact_value(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_ms", "Latency.")
        hist.observe(3.7)
        snap = hist.snapshot()
        # one sample: every quantile must equal the observation, not a
        # bucket-boundary interpolation
        assert snap["p50"] == snap["p95"] == snap["p99"] == 3.7

    def test_empty_histogram_snapshot_is_all_zeros(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_ms", "Latency.")
        assert hist.snapshot() == {
            "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_overflow_bucket_catches_values_above_the_last_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_ms", "Latency.", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(99.0)
        counts = dict(hist._sole_child().bucket_counts())
        assert counts[1.0] == 1 and counts[None] == 1
        assert hist._sole_child().quantile(1.0) == 99.0

    def test_global_registry_is_per_process_singleton(self):
        assert global_registry() is global_registry()
        counter = global_registry().counter("obs_test_counter", "Test.")
        counter.inc()
        assert global_registry().snapshot()["obs_test_counter"] == 1


# --------------------------------------------------------------------------- #
# Prometheus exposition edge cases
# --------------------------------------------------------------------------- #
class TestPrometheus:
    def test_label_values_are_escaped(self):
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("back\\slash") == "back\\\\slash"
        assert escape_label_value("two\nlines") == "two\\nlines"

        registry = MetricsRegistry()
        family = registry.counter("odd", "Odd labels.", labels=("name",))
        family.labels(name='q"uote\\b\nnl').inc()
        text = render_registry(registry, "t")
        assert 't_odd_total{name="q\\"uote\\\\b\\nnl"} 1' in text
        assert "\nnl" not in text.split("t_odd_total")[1].splitlines()[0]

    def test_zero_valued_unlabelled_counter_still_renders(self):
        registry = MetricsRegistry()
        registry.counter("untouched", "Never incremented.")
        text = render_registry(registry, "t")
        assert "# TYPE t_untouched_total counter" in text
        assert "t_untouched_total 0" in text

    def test_empty_histogram_renders_zero_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat_ms", "Latency.", buckets=(1.0, 10.0))
        text = render_registry(registry, "t")
        assert 't_lat_ms_bucket{le="1"} 0' in text
        assert 't_lat_ms_bucket{le="+Inf"} 0' in text
        assert "t_lat_ms_sum 0" in text
        assert "t_lat_ms_count 0" in text
        assert "nan" not in text.lower() and "None" not in text

    def test_labelled_family_with_no_children_is_skipped(self):
        registry = MetricsRegistry()
        registry.counter("latent", "Declared but never used.", labels=("k",))
        assert "latent" not in render_registry(registry, "t")

    def test_histogram_prom_scale_converts_units(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "req_ms", "Latency.", buckets=(100.0,),
            prom_name="req_seconds", prom_scale=1e-3,
        )
        hist.observe(50.0)  # 50 ms
        text = render_registry(registry, "t")
        assert 't_req_seconds_bucket{le="0.1"} 1' in text
        assert "t_req_seconds_sum 0.05" in text
        assert "t_req_seconds_max 0.05" in text

    def test_json_and_prometheus_views_agree(self):
        """The two `/metrics` representations come from one registry: every
        JSON counter and request count must match its text-exposition twin."""
        metrics = ServiceMetrics()
        metrics.count(hits=3, misses=1, puts=2)
        for latency_ms in (0.5, 2.0, 8.0):
            metrics.observe("POST /lookup", latency_ms)
        metrics.observe("GET /stats", 1.0, error=True)

        snapshot = metrics.snapshot()
        text = metrics.render_prometheus()

        assert f"mas_store_hits_total {snapshot['hits']}" in text
        assert f"mas_store_misses_total {snapshot['misses']}" in text
        assert f"mas_store_puts_total {snapshot['puts']}" in text
        lookups = snapshot["requests"]["POST /lookup"]
        assert (
            f'mas_store_requests_total{{endpoint="POST /lookup"}} {lookups["count"]}'
            in text
        )
        assert (
            f'mas_store_request_seconds_count{{endpoint="POST /lookup"}} '
            f'{lookups["count"]}' in text
        )
        stats = snapshot["requests"]["GET /stats"]
        assert stats["errors"] == 1
        assert (
            'mas_store_request_errors_total{endpoint="GET /stats"} 1' in text
        )


# --------------------------------------------------------------------------- #
# Retry counters (satellite): backoffs counted per error class
# --------------------------------------------------------------------------- #
class TestRetryCounters:
    def test_retries_and_giveups_are_counted_per_error_class(self):
        before = retry_totals()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientServiceError("busy")
            return "ok"

        assert (
            call_with_retry(flaky, RetryPolicy(attempts=5, base_delay=0), sleep=lambda _: None)
            == "ok"
        )
        after = retry_totals()
        assert after["retry_attempts"] - before["retry_attempts"] == 2
        assert after["retry_giveups"] == before["retry_giveups"]

        def always_down():
            raise TransientServiceError("down")

        with pytest.raises(TransientServiceError):
            call_with_retry(
                always_down, RetryPolicy(attempts=2, base_delay=0), sleep=lambda _: None
            )
        final = retry_totals()
        assert final["retry_attempts"] - after["retry_attempts"] == 1
        assert final["retry_giveups"] - after["retry_giveups"] == 1

    def test_retry_counters_surface_in_service_metrics_process_section(self):
        def always_down():
            raise TransientServiceError("down")

        with pytest.raises(TransientServiceError):
            call_with_retry(
                always_down, RetryPolicy(attempts=1), sleep=lambda _: None
            )
        process = ServiceMetrics().snapshot()["process"]
        assert process["retry_giveups"]["TransientServiceError"] >= 1


# --------------------------------------------------------------------------- #
# The obs CLI toolchain
# --------------------------------------------------------------------------- #
def _write_sample_trace(path) -> None:
    obs_trace.configure(path)
    with obs_trace.span("sweep", layer="runner", suite="table1"):
        with obs_trace.span("pair", layer="runner", method="mas"):
            with obs_trace.span("store.lookup", layer="store", backend="sqlite"):
                pass
    obs_trace.reset()


class TestObsCli:
    def test_summarize_reports_layers_and_critical_path(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_sample_trace(path)
        assert cli_main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans: 3" in out
        assert "runner" in out and "store" in out
        assert "critical path" in out
        assert "sweep [runner]" in out

    def test_summarize_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit, match="no spans"):
            cli_main(["obs", "summarize", str(path)])

    def test_convert_writes_loadable_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_sample_trace(path)
        assert cli_main(["obs", "convert", str(path)]) == 0
        output = tmp_path / "t.chrome.json"
        assert output.exists()
        document = json.loads(output.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X"}
        durations = [e for e in events if e["ph"] == "X"]
        assert len(durations) == 3
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in durations)
        by_name = {e["name"]: e for e in durations}
        assert by_name["pair"]["args"]["parent_id"] == by_name["sweep"]["args"]["span_id"]

    def test_validate_accepts_good_and_rejects_corrupt(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_sample_trace(path)
        assert cli_main(["obs", "validate", str(path)]) == 0
        assert "all valid" in capsys.readouterr().out

        with path.open("a") as fh:
            fh.write('{"type": "span", "name": "broken"}\n')
        assert cli_main(["obs", "validate", str(path)]) == 1
        assert "problem" in capsys.readouterr().err

    def test_validate_catches_dangling_parent(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_sample_trace(path)
        records = read_trace(path)
        records[0]["parent_id"] = "aaaaaaaa"  # no such span
        with path.open("w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        assert cli_main(["obs", "validate", str(path)]) == 1
        assert "never flushed" in capsys.readouterr().err

    def test_metrics_renders_service_latency_table(self, tmp_path, capsys):
        from repro.store import HttpStore

        with running_server(SqliteStore(tmp_path / "served.db")) as srv:
            url = server_url(srv)
            client = HttpStore(url)
            try:
                client.lookup("missing")
            finally:
                client.close()
            assert cli_main(["obs", "metrics", url]) == 0
            out = capsys.readouterr().out
            assert "request latency by endpoint" in out
            assert "POST /lookup" in out
            assert "uptime" in out

            assert cli_main(["obs", "metrics", url, "--raw"]) == 0
            raw = json.loads(capsys.readouterr().out)
            assert raw["requests"]["POST /lookup"]["count"] >= 1
            assert "p95_ms" in raw["requests"]["POST /lookup"]

    def test_metrics_rejects_local_store_uris(self, tmp_path):
        with pytest.raises(SystemExit, match="served store"):
            cli_main(["obs", "metrics", f"sqlite:///{tmp_path}/x.db"])


# --------------------------------------------------------------------------- #
# Acceptance: traced parallel sweep over a live service
# --------------------------------------------------------------------------- #
class TestTracedSweepAcceptance:
    NETWORKS = ["BERT-Base"]
    METHODS = ["layerwise", "flat", "tileflow", "mas"]

    @staticmethod
    def _fingerprint(matrix) -> list[tuple]:
        rows = []
        for network, methods in sorted(matrix.items()):
            for method, run in sorted(methods.items()):
                tiling = run.tuning.best_tiling.as_dict() if run.tuning else None
                rows.append(
                    (network, method, run.cycles, run.energy_pj, tuple(sorted((tiling or {}).items())))
                )
        return rows

    def test_traced_jobs4_sweep_is_bit_identical_and_covers_every_layer(
        self, tmp_path, monkeypatch
    ):
        trace_path = tmp_path / "sweep_trace.jsonl"

        # Baseline: tracing off, no cache — pure search results.
        baseline = ExperimentRunner(search_budget=4, jobs=1, use_cache=False)
        expected = self._fingerprint(
            baseline.run_matrix(networks=self.NETWORKS, methods=self.METHODS)
        )

        with running_server(SqliteStore(tmp_path / "served.db")) as srv:
            monkeypatch.setenv("MAS_TRACE", str(trace_path))
            obs_trace.reset()  # re-read the env; forked workers inherit it
            try:
                traced = ExperimentRunner(
                    search_budget=4,
                    jobs=4,
                    cache_uri=server_url(srv),
                )
                actual = self._fingerprint(
                    traced.run_matrix(networks=self.NETWORKS, methods=self.METHODS)
                )
            finally:
                obs_trace.reset()
                monkeypatch.delenv("MAS_TRACE")

        # 1. bit identity: tracing and the HTTP store change nothing
        assert actual == expected

        # 2. every instrumented layer appears in the sweep's own trace (the
        # eager health ping legitimately records a second, tiny trace)
        spans = read_trace(trace_path)
        summary = summarize_trace(spans)
        assert {"runner", "search", "store", "http", "service"} <= set(summary.layers)
        assert summary.process_count > 1  # sweep process + pool workers
        sweep_trace = next(s for s in spans if s["name"] == "sweep")["trace_id"]
        sweep_layers = {s["layer"] for s in spans if s["trace_id"] == sweep_trace}
        assert {"runner", "search", "store", "http", "service"} <= sweep_layers

        # 3. parent IDs are consistent across process and HTTP boundaries
        assert validate_trace_file(trace_path) == []
        by_id = {s["span_id"]: s for s in spans}
        sweep = next(s for s in spans if s["name"] == "sweep")
        pairs = [s for s in spans if s["name"] == "pair"]
        assert len(pairs) == len(self.NETWORKS) * len(self.METHODS)
        for pair in pairs:
            assert pair["parent_id"] == sweep["span_id"]
            assert pair["pid"] != sweep["pid"]  # executed by a pool worker
        for service_span in (s for s in spans if s["name"] == "service.request"):
            parent = by_id[service_span["parent_id"]]
            assert parent["name"] == "http.request"
            assert parent["pid"] != service_span["pid"] or parent["tid"] != service_span["tid"]

        # 4. the trace converts to a Chrome/Perfetto-loadable document
        chrome = chrome_trace(spans)["traceEvents"]
        assert len([e for e in chrome if e["ph"] == "X"]) == len(spans)
        out = tmp_path / "sweep_trace.chrome.json"
        write_chrome(spans, out)
        assert json.loads(out.read_text())["traceEvents"]

    def test_traced_serial_sweep_matches_untraced(self, tmp_path):
        """Same property without processes: configure()-based, dir store."""
        baseline = ExperimentRunner(search_budget=3, jobs=1, use_cache=False)
        expected = self._fingerprint(
            baseline.run_matrix(networks=["BERT-Base"], methods=["mas"])
        )
        obs_trace.configure(tmp_path / "serial.jsonl")
        traced = ExperimentRunner(
            search_budget=3, jobs=1, cache_uri=f"dir:{tmp_path / 'cache'}"
        )
        actual = self._fingerprint(
            traced.run_matrix(networks=["BERT-Base"], methods=["mas"])
        )
        obs_trace.reset()
        assert actual == expected
        layers = {s["layer"] for s in read_trace(tmp_path / "serial.jsonl")}
        assert {"runner", "search", "store"} <= layers
