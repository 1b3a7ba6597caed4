"""Tests for the unified telemetry layer (:mod:`repro.obs`): span tracing
across threads, process pools and the HTTP wire; latency histograms; the
HTTP store's retry counters; and the ``mas-attention obs`` CLI toolchain.

The acceptance test at the bottom runs a real multi-process sweep against a
live store service with ``MAS_TRACE`` enabled and asserts the two hard
properties: results stay bit-identical to the untraced sweep, and the trace
covers every layer with parent IDs that stitch across both the process and
the HTTP boundary.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading

import pytest

from repro.cli import main as cli_main
from repro.exec.runner import ExperimentRunner
from repro.obs import trace as obs_trace
from repro.obs.export import chrome_trace, read_trace, write_chrome
from repro.obs.metrics import Histogram
from repro.obs.schema import validate_trace_file
from repro.obs.summary import summarize_trace
from repro.obs.trace import TraceContext
from repro.schedulers import make_scheduler
from repro.search import (
    GeneticSearch,
    GridSearch,
    MCTSSearch,
    RandomSearch,
    SchedulerObjective,
    TilingSearchSpace,
)
from repro.search.objective import PRUNE_WAVE
from repro.service import running_server, server_url
from repro.store import HttpStore, JsonDirStore, RetryPolicy
from repro.workloads.attention import AttentionWorkload


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts and ends with tracing disabled."""
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

    def test_explicit_parent_context(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.configure(path)
        remote = TraceContext(trace_id="feedfacefeedface", span_id="deadbeef")
        with obs_trace.span("child", parent=remote):
            pass
        obs_trace.reset()

        (child,) = read_trace(path)
        assert child["trace_id"] == "feedfacefeedface"
        assert child["parent_id"] == "deadbeef"

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

    def test_env_tracer_writes_each_span_as_it_closes(self, tmp_path, monkeypatch):
        """A tracer enabled by ``MAS_TRACE`` alone buffers one span: each
        closed span is on disk without a flush."""
        path = tmp_path / "env_trace.jsonl"
        monkeypatch.setenv("MAS_TRACE", str(path))
        obs_trace.reset()
        with obs_trace.span("first"):
            pass
        assert obs_trace.get_tracer().buffer_spans == 1
        assert [s["name"] for s in read_trace(path)] == ["first"]
        with obs_trace.span("second"):
            pass
        assert [s["name"] for s in read_trace(path)] == ["first", "second"]

    def test_env_enables_tracing_after_reset(self, tmp_path, monkeypatch):
        path = tmp_path / "env_trace.jsonl"
        monkeypatch.setenv("MAS_TRACE", str(path))
        obs_trace.reset()  # forget the (disabled) tracer; re-read the env
        with obs_trace.span("from_env") as sp:
            assert sp.context is not None
        obs_trace.reset()
        assert [s["name"] for s in read_trace(path)] == ["from_env"]

    def test_forked_process_reopens_the_configured_tracer(self, tmp_path, monkeypatch):
        """A new PID opens its own tracer on the configured path and buffer,
        which win over ``MAS_TRACE``; after ``reset()`` it reads the env again."""
        monkeypatch.setenv("MAS_TRACE", str(tmp_path / "env.jsonl"))
        path = tmp_path / "configured.jsonl"
        parent = obs_trace.configure(path, buffer_spans=64)
        monkeypatch.setattr(obs_trace, "_tracer_pid", -1)  # as seen from a forked child
        child = obs_trace.get_tracer()
        assert child is not parent
        assert (child.path, child.buffer_spans) == (str(path), 64)
        obs_trace.reset()
        monkeypatch.delenv("MAS_TRACE")
        monkeypatch.setattr(obs_trace, "_tracer_pid", -1)
        assert obs_trace.get_tracer() is None

    def test_configured_tracing_covers_pool_workers(self, tmp_path):
        """``configure`` around a ``jobs=2`` sweep records the pairs its pool
        workers run, each under the sweep span."""
        path = tmp_path / "sweep.jsonl"
        obs_trace.configure(path, buffer_spans=64)
        try:
            ExperimentRunner(search_budget=4, jobs=2, use_cache=False).run_matrix(
                ["ViT-B/14"], ["flat", "mas"]
            )
        finally:
            obs_trace.reset()
        spans = read_trace(path)
        sweep = next(s for s in spans if s["name"] == "sweep")
        pairs = [s for s in spans if s["name"] == "pair"]
        assert len(pairs) == 2
        for pair in pairs:
            assert pair["parent_id"] == sweep["span_id"]
            assert pair["pid"] != sweep["pid"]
        assert len({s["pid"] for s in spans}) >= 2
        assert validate_trace_file(path) == []

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
# The search layer's span: one per pruning wave
# --------------------------------------------------------------------------- #
def test_search_generation_span_per_pruning_wave(tmp_path, edge_hw):
    """With no incumbent yet, a batch of fitting candidates opens one
    "search.generation" span per pruning wave, waves whose candidates were
    all pruned included, and the spans' batches add up to the candidates
    simulated."""
    workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="waves")
    scheduler = make_scheduler("flat", edge_hw)
    fitting = [
        tiling
        for tiling in TilingSearchSpace(workload, edge_hw).enumerate()
        if scheduler.fits(workload, tiling)
    ]
    assert len(fitting) > PRUNE_WAVE
    objective = SchedulerObjective(scheduler, workload)
    obs_trace.configure(tmp_path / "trace.jsonl")
    objective.evaluate_batch(fitting)
    obs_trace.reset()

    spans = [s for s in read_trace(tmp_path / "trace.jsonl") if s["name"] == "search.generation"]
    assert len(spans) == math.ceil(len(fitting) / PRUNE_WAVE)
    assert {s["layer"] for s in spans} == {"search"}
    assert sum(s["attrs"]["batch"] for s in spans) == objective.analytic_stats["num_simulated"]
    assert objective.analytic_stats["num_pruned"] > 0
    assert not any("workers" in s["attrs"] for s in spans)


def _generation_spans(path) -> list[dict]:
    return [s for s in read_trace(path) if s["name"] == "search.generation"]


def test_unpruned_batch_is_one_span_of_its_fresh_candidates(tmp_path, edge_hw):
    """Without pruning a batch is one span, and its ``batch`` counts the
    distinct candidates not memoized yet."""
    workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="waves")
    objective = SchedulerObjective(
        make_scheduler("flat", edge_hw), workload, analytic_prune=False
    )
    tilings = list(TilingSearchSpace(workload, edge_hw).enumerate())[:5]
    objective.evaluate(tilings[0])
    obs_trace.configure(tmp_path / "trace.jsonl")
    objective.evaluate_batch(tilings + tilings[:2])
    obs_trace.reset()

    (span,) = _generation_spans(tmp_path / "trace.jsonl")
    assert span["layer"] == "search"
    assert span["attrs"]["batch"] == 4
    assert objective.num_evaluations == 5


def _rejected_and_fitting(scheduler, workload, hardware):
    space = list(TilingSearchSpace(workload, hardware).enumerate())
    rejected = [t for t in space if not scheduler.fits(workload, t)]
    fitting = [t for t in space if scheduler.fits(workload, t)]
    assert rejected and fitting
    return rejected, fitting


def test_memoized_batch_opens_no_span(tmp_path, tiny_hw, small_workload):
    scheduler = make_scheduler("flat", tiny_hw)
    _, fitting = _rejected_and_fitting(scheduler, small_workload, tiny_hw)
    objective = SchedulerObjective(scheduler, small_workload)
    objective.evaluate_batch(fitting[:4])
    obs_trace.configure(tmp_path / "trace.jsonl")
    with obs_trace.span("probe"):
        objective.evaluate_batch(fitting[:4] + fitting[:1])
    obs_trace.reset()

    assert [s["name"] for s in read_trace(tmp_path / "trace.jsonl")] == ["probe"]


def test_rejected_batch_opens_no_span(tmp_path, tiny_hw, small_workload):
    """Candidates the scheduler cannot run are rejected before any wave
    forms, so a batch of only those opens no span."""
    scheduler = make_scheduler("flat", tiny_hw)
    rejected, _ = _rejected_and_fitting(scheduler, small_workload, tiny_hw)
    objective = SchedulerObjective(scheduler, small_workload)
    obs_trace.configure(tmp_path / "trace.jsonl")
    with obs_trace.span("probe"):
        objective.evaluate_batch(rejected)
    obs_trace.reset()

    assert [s["name"] for s in read_trace(tmp_path / "trace.jsonl")] == ["probe"]
    assert objective.analytic_stats["num_infeasible"] == len(rejected)


@pytest.mark.parametrize("algorithm_cls", [GridSearch, RandomSearch, MCTSSearch, GeneticSearch])
def test_every_simulation_of_a_search_is_inside_a_span(tmp_path, edge_hw, algorithm_cls):
    """Whatever the searcher, the spans' batches add up to the simulations
    it paid for, so a trace summary charges each of them to the search
    layer."""
    workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="waves")
    objective = SchedulerObjective(make_scheduler("mas", edge_hw), workload)
    obs_trace.configure(tmp_path / "trace.jsonl")
    algorithm_cls(seed=0).run(objective, TilingSearchSpace(workload, edge_hw), budget=30)
    obs_trace.reset()

    spans = _generation_spans(tmp_path / "trace.jsonl")
    assert spans
    assert sum(s["attrs"]["batch"] for s in spans) == objective.analytic_stats["num_simulated"]


def test_mcts_opens_one_span_per_fresh_fitting_leaf(tmp_path, edge_hw):
    """MCTS evaluates one leaf per iteration: each new leaf the scheduler
    can run opens a span of one candidate, or of none when its bound was
    pruned."""
    workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="waves")
    objective = SchedulerObjective(make_scheduler("mas", edge_hw), workload)
    obs_trace.configure(tmp_path / "trace.jsonl")
    MCTSSearch(seed=0).run(objective, TilingSearchSpace(workload, edge_hw), budget=40)
    obs_trace.reset()

    spans = _generation_spans(tmp_path / "trace.jsonl")
    stats = objective.analytic_stats
    assert len(spans) == stats["num_simulated"] + stats["num_pruned"]
    assert sorted({s["attrs"]["batch"] for s in spans}) == [0, 1]


# --------------------------------------------------------------------------- #
# Latency histograms: quantiles
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_histogram_quantiles_are_ordered_and_clamped(self):
        hist = Histogram()
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
        hist = Histogram()
        hist.observe(3.7)
        snap = hist.snapshot()
        # one sample: every quantile must equal the observation, not a
        # bucket-boundary interpolation
        assert snap["p50"] == snap["p95"] == snap["p99"] == 3.7

    def test_empty_histogram_snapshot_is_all_zeros(self):
        hist = Histogram()
        assert hist.snapshot() == {
            "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_overflow_bucket_catches_values_above_the_last_bound(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(99.0)
        assert hist.quantile(0.5) <= 1.0  # the first bucket holds one sample
        assert hist.quantile(1.0) == 99.0  # the overflow bucket holds the other


# --------------------------------------------------------------------------- #
# Retry counters: each HttpStore counts its backoffs and give-ups
# --------------------------------------------------------------------------- #
class _FlakyStatsStore(JsonDirStore):
    """A directory store whose first ``failures`` ``stats()`` calls raise,
    so the service answers them 500."""

    def __init__(self, root, failures: int) -> None:
        super().__init__(root)
        self.failures = failures

    def stats(self):
        if self.failures:
            self.failures -= 1
            raise RuntimeError("busy")
        return super().stats()


class TestRetryCounters:
    def test_http_store_counts_its_retries_and_giveups(self, tmp_path):
        with running_server(_FlakyStatsStore(tmp_path / "served", failures=2)) as srv:
            url = server_url(srv)
            store = HttpStore(url, retry=RetryPolicy(attempts=5, base_delay=0))
            assert store.stats().entries == 0  # two 500s ridden out
            store.close()
        assert store.retry_attempts == 2
        assert store.retry_giveups == 0

        down = HttpStore(url, retry=RetryPolicy(attempts=2, base_delay=0))
        with pytest.raises(OSError):  # the service is gone: refused, twice
            down.stats()
        assert down.retry_attempts == 1
        assert down.retry_giveups == 1

    def test_client_errors_are_neither_retried_nor_given_up(self, tmp_path):
        """A 4xx is the caller's mistake, not a transient failure: it raises
        at once and counts neither as a retry nor as a give-up."""
        with running_server(JsonDirStore(tmp_path / "served")) as srv:
            store = HttpStore(server_url(srv), retry=RetryPolicy(attempts=5, base_delay=0))
            with pytest.raises(ValueError, match="invalid store key"):
                store.lookup("../escape")
            assert store.lookup("fine") == (None, "miss")
            store.close()
        assert store.retry_attempts == 0
        assert store.retry_giveups == 0


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
        with running_server(JsonDirStore(tmp_path / "served")) as srv:
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

    def test_metrics_on_a_closed_port_reports_unreachable(self, capsys):
        probe = socket.socket()  # reserve a port that stays closed during the test
        probe.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        assert cli_main(["obs", "metrics", dead]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{dead}: unreachable (")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_metrics_rejects_local_store_uris(self, tmp_path):
        with pytest.raises(SystemExit, match="served store"):
            cli_main(["obs", "metrics", f"dir:{tmp_path}/x"])


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

        with running_server(JsonDirStore(tmp_path / "served")) as srv:
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
        served = JsonDirStore(tmp_path / "served")
        assert served.stats().entries == len(self.NETWORKS) * len(self.METHODS)

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
