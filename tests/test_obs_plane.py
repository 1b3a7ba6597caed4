"""Tests for ``obs bench``, ``obs summarize`` and ``obs metrics --watch``:
the perf gate's verdict (:mod:`repro.obs.bench`), critical-path scoping and
``--top`` capping (:mod:`repro.obs.summary`), the documented cProfile recipe
for function hotspots, and live polling of a served store's metrics.
"""

from __future__ import annotations

import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.obs import trace as obs_trace
from repro.obs.bench import PAIRS, Run, judge, parse_run
from repro.obs.summary import summarize_trace
from repro.service import running_server, server_url
from repro.store import JsonDirStore


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts and ends with tracing disabled."""
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
# Function hotspots: the standard profiler over a --jobs 1 sweep
# --------------------------------------------------------------------------- #
class TestCProfileRecipe:
    def test_documented_command_writes_pstats(self, tmp_path):
        """``docs/observability.md``'s recipe, at a tiny budget: the sweep
        runs in one process and the profile holds the simulator's frames."""
        out = tmp_path / "sweep.pstats"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(out), "-m", "repro.cli",
             "table2", "--jobs", "1", "--budget", "4", "--networks", "ViT-B/14",
             "--no-cache"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ViT-B/14" in proc.stdout
        files = {Path(filename).as_posix() for filename, _, _ in pstats.Stats(str(out)).stats}
        assert any("/repro/sim/" in f for f in files)
        assert any("/repro/search/" in f for f in files)


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
