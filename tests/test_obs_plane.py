"""Tests for ``obs bench``, ``obs summarize``, ``obs profile`` and ``obs
metrics --watch``: the perf-trajectory gate (:mod:`repro.obs.bench`),
critical-path scoping and ``--top`` capping (:mod:`repro.obs.summary`),
span profiling behind ``MAS_PROFILE`` (:mod:`repro.obs.profile`), and live
polling of a served store's metrics.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs import trace as obs_trace
from repro.obs.bench import (
    DEFAULT_RULES,
    Rule,
    compare,
    flatten_metrics,
    load_history,
    load_rules,
    record_runs,
)
from repro.obs.export import read_trace
from repro.obs.summary import summarize_trace
from repro.service import running_server, server_url
from repro.store import JsonDirStore


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts and ends with tracing/profiling disabled."""
    obs_trace.reset()
    yield
    obs_trace.reset()


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

    def test_record_without_numeric_leaf_leaves_history_untouched(self, tmp_path):
        bench = tmp_path / "BENCH_search.json"
        hist = tmp_path / "BENCH_history.jsonl"
        bench.write_text(json.dumps({"x": {"networks": ["a"]}}))
        with pytest.raises(ValueError, match="BENCH_search.json"):
            record_runs(bench, hist)
        assert not hist.exists()
        with pytest.raises(SystemExit, match="no numeric metrics"):
            cli_main(
                ["obs", "bench", "record", "--bench", str(bench), "--history", str(hist)]
            )
        assert not hist.exists()

    def test_repo_history_passes_the_real_gate(self):
        """The committed trajectory must be green (acceptance criterion)."""
        repo_history = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
        entries = load_history(repo_history)
        runs = {entry["run"] for entry in entries}
        assert len(runs) >= 2
        assert compare(entries, rules=DEFAULT_RULES).ok


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
        with running_server(JsonDirStore(tmp_path / "a")) as srv:
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
