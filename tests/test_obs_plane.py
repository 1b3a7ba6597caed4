"""Tests for ``obs bench``, ``obs summarize``, ``obs profile`` and ``obs
metrics --watch``: the perf gate's verdict (:mod:`repro.obs.bench`),
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
from repro.obs.bench import PAIRS, Run, judge, parse_run
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
# Perf gate (bench)
# --------------------------------------------------------------------------- #
REPO = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {
    "setup_s": 0.5,
    "cold_sweep_s": 3.0,
    "candidates_per_s": 32.0,
    "warm_sweep_s": 0.3,
    "peak_rss_mb": 120.0,
    "sim_cycles_geomean": 1.0e6,
    "sim_energy_geomean": 5.0e8,
}


def _final_line(scale=None, correct=True, failed=0, attempted=12) -> str:
    metrics = {name: value * (scale or {}).get(name, 1.0) for name, value in BASE.items()}
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    })


def _runs(workloads=("table1-mini", "decode-step"), **line) -> dict[str, list[Run]]:
    stdout = "result_digest: abc123\n" + _final_line(**line) + "\n"
    return {name: [parse_run(stdout) for _ in range(PAIRS)] for name in workloads}


class TestPerfGate:
    def test_identical_sides_pass(self):
        report = judge(END_TO_END, _runs(), _runs())
        assert report.ok, report.format()
        text = report.format()
        assert "perf gate: PASS" in text
        assert text.count("pair 2 result_digest: parent abc123  change abc123") == 2

    def test_improvements_pass(self):
        faster = {"cold_sweep_s": 0.5, "candidates_per_s": 2.0, "peak_rss_mb": 0.7}
        assert judge(END_TO_END, _runs(), _runs(scale=faster)).ok

    def test_lower_is_better_metric_30pc_worse_fails(self):
        report = judge(END_TO_END, _runs(), _runs(scale={"cold_sweep_s": 1.3}))
        assert len(report.failures) == 2  # one per workload
        failure = report.failures[0]
        assert "table1-mini cold_sweep_s: 3.9 s vs parent 3 s" in failure
        assert "+30.0%" in failure and "lower is better" in failure
        assert "WORSE" in report.format()

    def test_higher_is_better_metric_30pc_lower_fails(self):
        report = judge(END_TO_END, _runs(), _runs(scale={"candidates_per_s": 0.7}))
        assert [f.split(":")[0] for f in report.failures] == [
            "table1-mini candidates_per_s", "decode-step candidates_per_s",
        ]

    def test_sim_cycles_bound_is_two_percent(self):
        assert judge(END_TO_END, _runs(), _runs(scale={"sim_cycles_geomean": 1.01})).ok
        report = judge(END_TO_END, _runs(), _runs(scale={"sim_cycles_geomean": 1.03}))
        assert not report.ok
        assert all("sim_cycles_geomean" in f for f in report.failures)

    def test_incorrect_change_run_fails(self):
        report = judge(END_TO_END, _runs(), _runs(correct=False))
        assert not report.ok
        assert "table1-mini change run 0: reports correct: false" in report.failures

    def test_higher_failed_share_fails(self):
        assert judge(END_TO_END, _runs(failed=1), _runs(failed=1)).ok
        report = judge(END_TO_END, _runs(failed=1), _runs(failed=2))
        assert any("failed share" in f for f in report.failures)

    def test_workload_missing_on_one_side_fails(self):
        report = judge(END_TO_END, _runs(), _runs(workloads=("table1-mini",)))
        assert report.failures == ("decode-step: no runs on the this checkout side",)
        report = judge(END_TO_END, _runs(workloads=("table1-mini",)), _runs())
        assert report.failures == ("decode-step: no runs on the parent side",)

    def test_crashed_or_silent_run_fails(self):
        crashed = parse_run("fingerprint: {}\n", 1, "Traceback ...\nImportError: boom")
        assert crashed.error == "exit status 1: ImportError: boom"
        assert parse_run("no json here\n").error == "printed no final JSON line"
        change = _runs()
        change["decode-step"][1] = crashed
        report = judge(END_TO_END, _runs(), change)
        assert "decode-step change run 1: exit status 1: ImportError: boom" in report.failures

    def test_parent_without_src_repro_exits_naming_it(self, tmp_path):
        with pytest.raises(SystemExit, match=str(tmp_path)):
            cli_main(["obs", "bench", str(tmp_path)])

    def test_gate_runs_this_checkouts_perfbench_on_each_sides_src(
        self, tmp_path, monkeypatch, capsys
    ):
        """Plumbing end to end, with a stub perfbench that reads a speed from src."""
        stub = (
            "import json, pathlib, sys\n"
            "root = pathlib.Path(__file__).resolve().parent.parent\n"
            "speed = float((root / 'src' / 'repro' / 'speed').read_text())\n"
            "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
            "print(f'result_digest: seed{seed}')\n"
            "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
            "    'metrics': {'cold_sweep_s': {'value': 3.0 / speed, 'unit': 's'}}}))\n"
        )
        spec = {
            "run_seconds": 1,
            "workloads": [{"name": "w"}],
            "end_to_end": [END_TO_END[1]],
        }
        for name, speed in (("parent", "1"), ("same", "1"), ("slow", "0.5")):
            (tmp_path / name / "src" / "repro").mkdir(parents=True)
            (tmp_path / name / "src" / "repro" / "speed").write_text(speed)
            (tmp_path / name / "perfbench").mkdir()
            (tmp_path / name / "perfbench" / "run.py").write_text(
                stub if name != "parent" else "raise SystemExit('the parent is not run')"
            )
            (tmp_path / name / "BENCHMARK.json").write_text(json.dumps(spec))
        monkeypatch.chdir(tmp_path / "same")
        assert cli_main(["obs", "bench", str(tmp_path / "parent")]) == 0
        out = capsys.readouterr().out
        assert "pair 2 result_digest: parent seed2  change seed2" in out
        assert out.count("w seed ") == 2 * PAIRS
        monkeypatch.chdir(tmp_path / "slow")
        assert cli_main(["obs", "bench", str(tmp_path / "parent")]) == 1
        assert "w cold_sweep_s: 6 s vs parent 3 s (+100.0%" in capsys.readouterr().out


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
