"""End-to-end integration tests: tune, simulate, analyse, and cross-check layers.

These tests tie the layers together the same way the benchmark harness does,
on reduced shapes: the search produces a tiling, the scheduler builds a graph,
the simulator runs it, the analysis reshapes the results — and the graph
replay confirms the scheduled task graph computes exact attention for the very
tiling the search selected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import quick_compare
from repro.analysis import ExperimentRunner, run_table2, run_table3
from repro.hardware.presets import davinci_like_npu, simulated_edge_device
from repro.numerics.golden import golden_check, make_qkv
from repro.numerics.reference import reference_attention
from repro.numerics.replay import replay
from repro.schedulers import ALL_SCHEDULERS, list_schedulers, make_scheduler
from repro.search import AutoTuner
from repro.workloads.attention import AttentionWorkload


@pytest.fixture(scope="module")
def workload():
    return AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="e2e")


class TestQuickstartPath:
    def test_quick_compare_returns_all_methods(self):
        rows = quick_compare("ViT-B/14")
        assert [r["scheduler"] for r in rows] == [
            "layerwise", "softpipe", "flat", "tileflow", "fusemax", "mas",
        ]
        fastest = min(rows, key=lambda r: r["cycles"])
        assert fastest["scheduler"] == "mas"

    def test_quick_compare_on_davinci_preset(self):
        rows = quick_compare("ViT-B/14", hardware=davinci_like_npu(), schedulers=["flat", "mas"])
        assert len(rows) == 2 and rows[0]["hardware"] == "davinci-like"


class TestTuneSimulateValidate:
    def test_searched_tiling_is_exact_and_faster(self, workload):
        """The tiling the search picks is numerically exact and no slower than default."""
        hw = simulated_edge_device()
        scheduler = make_scheduler("mas", hw)
        tuning = AutoTuner(hw, budget=25, seed=1).tune(scheduler, workload)
        tuned_cycles = scheduler.simulate(workload, tuning.best_tiling).cycles
        default_cycles = scheduler.simulate(workload).cycles
        assert tuned_cycles <= default_cycles

        q, k, v = make_qkv(workload, seed=3, dtype=np.float64)
        out = replay(scheduler, workload, tuning.best_tiling, q, k, v)
        np.testing.assert_allclose(out, reference_attention(q, k, v), rtol=1e-6, atol=1e-8)

    def test_golden_check_for_searched_tilings_of_all_methods(self, workload):
        hw = simulated_edge_device()
        tuner = AutoTuner(hw, budget=10, seed=0)
        small = AttentionWorkload.self_attention(heads=2, seq=96, emb=16, name="golden-e2e")
        searchable = [name for name, cls in ALL_SCHEDULERS.items() if cls.searchable]
        for name in searchable:
            tiling = tuner.tune(name, small).best_tiling
            result = golden_check(small, tiling=tiling)
            assert result.passed, f"{name}: {result.summary()}"
            assert set(result.max_errors) == set(list_schedulers())


class TestAnalysisConsistency:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(use_search=False)

    def test_table2_and_table3_share_runs(self, runner):
        networks = ["ViT-B/14"]
        t2 = run_table2(runner, networks=networks)
        t3 = run_table3(runner, networks=networks)
        run = runner.run("mas", "ViT-B/14")
        assert t2.row("ViT-B/14").cycles["mas"] == run.cycles
        assert t3.row("ViT-B/14").energy_pj["mas"] == pytest.approx(run.energy_pj)

    def test_speedup_consistent_with_raw_results(self, runner):
        t2 = run_table2(runner, networks=["ViT-B/16"])
        row = t2.row("ViT-B/16")
        flat = runner.run("flat", "ViT-B/16").cycles
        mas = runner.run("mas", "ViT-B/16").cycles
        assert row.speedups["flat"] == pytest.approx(flat / mas)

    def test_cross_device_consistency(self):
        """The same workload is slower (in wall-clock) on the lower-clocked NPU preset."""
        edge = ExperimentRunner(use_search=False)
        npu = ExperimentRunner(hardware=davinci_like_npu(), use_search=False)
        edge_run = edge.run("mas", "ViT-B/14").result
        npu_run = npu.run("mas", "ViT-B/14").result
        assert npu_run.latency_seconds > edge_run.latency_seconds
