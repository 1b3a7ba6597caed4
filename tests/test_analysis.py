"""Tests for the experiment harnesses (tables, figures, DRAM, limits, SD-UNet, ablations).

The harnesses are exercised on a reduced network subset with search disabled
(or with tiny budgets) so the suite stays fast; the paper-shape checks over
all of Table 1 at a fixed budget live in ``tests/test_paper_shape.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    ExperimentRunner,
    format_table,
    run_dram_analysis,
    run_figure5,
    run_figure6,
    run_figure7,
    run_limits,
    run_overwrite_ablation,
    run_sd_unet,
    run_search_ablation,
    run_table2,
    run_table3,
    run_tiling_ablation,
)
from repro.analysis.metrics import energy_savings_pct, geometric_mean, normalize_to, speedup
from repro.analysis.report import suite_title_suffix
from repro.exec import DEFAULT_METHOD_ORDER
from repro.hardware.presets import davinci_like_npu, simulated_edge_device
from repro.utils.units import KB, MB
from repro.workloads.stable_diffusion import AttentionUnit, StableDiffusionUNetWorkload

FAST_NETWORKS = ["ViT-B/14", "ViT-B/16"]


@pytest.fixture(scope="module")
def fast_runner():
    """Shared runner with search disabled — heuristic tilings, small networks."""
    return ExperimentRunner(use_search=False)


@pytest.fixture(scope="module")
def tuned_runner():
    """Shared runner with a tiny search budget (exercises the Figure-7 path)."""
    return ExperimentRunner(search_budget=8, seed=0)


class TestMetrics:
    def test_speedup_and_savings(self):
        assert speedup(200, 100) == 2.0
        assert energy_savings_pct(100, 80) == pytest.approx(20.0)
        assert energy_savings_pct(100, 120) == pytest.approx(-20.0)
        with pytest.raises(ValueError):
            speedup(0, 1)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalize_to(self):
        assert normalize_to([10, 20, 5], 10) == [1.0, 2.0, 0.5]
        with pytest.raises(ValueError):
            normalize_to([1], 0)


class TestReport:
    def test_format_table_alignment_and_values(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bbbb", 7]], precision=2)
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in text and "7" in text
        assert set(lines[1]) <= {"-", "+"}

    def test_format_table_title_and_bool(self):
        text = format_table(["x"], [[True], [False]], title="T")
        assert text.startswith("T\n") and "yes" in text and "no" in text

    def test_suite_title_suffix(self):
        """The paper's suite adds nothing to a title; any other is named."""
        assert suite_title_suffix("table1") == ""
        assert suite_title_suffix("table1@batch=4") == " — suite table1@batch=4"
        assert suite_title_suffix("my-shapes") == " — suite my-shapes"


class TestRunner:
    def test_method_and_network_ordering(self, fast_runner):
        assert fast_runner.methods() == list(DEFAULT_METHOD_ORDER)
        assert fast_runner.methods(["mas", "flat"]) == ["flat", "mas"]
        with pytest.raises(KeyError):
            fast_runner.methods(["warp-attention"])
        assert fast_runner.networks(["vit-b/14"]) == ["ViT-B/14"]

    def test_run_caches(self, fast_runner):
        a = fast_runner.run("mas", "ViT-B/14")
        b = fast_runner.run("mas", "ViT-B/14")
        assert a is b
        assert a.cycles > 0 and not a.tuned

    def test_run_matrix_shape(self, fast_runner):
        matrix = fast_runner.run_matrix(FAST_NETWORKS, ["flat", "mas"])
        assert set(matrix) == {"ViT-B/14", "ViT-B/16"}
        assert set(matrix["ViT-B/14"]) == {"flat", "mas"}

    def test_tuned_runner_records_history(self, tuned_runner):
        run = tuned_runner.run("mas", "ViT-B/14")
        assert run.tuned and run.tuning.num_evaluations > 0


class TestTable2:
    def test_structure_and_speedups(self, fast_runner):
        result = run_table2(fast_runner, networks=FAST_NETWORKS)
        assert result.networks == ["ViT-B/14", "ViT-B/16"]
        row = result.row("ViT-B/14")
        assert set(row.cycles) == set(DEFAULT_METHOD_ORDER)
        for method, value in row.speedups.items():
            assert value == pytest.approx(row.cycles[method] / row.cycles["mas"])
        assert set(result.geomean_speedups) == set(DEFAULT_METHOD_ORDER) - {"mas"}
        assert "Table 2" in result.format()

    def test_mas_wins_on_fast_networks(self, fast_runner):
        result = run_table2(fast_runner, networks=FAST_NETWORKS)
        assert result.mas_wins()
        assert all(v >= 1.0 for v in result.geomean_speedups.values())

    def test_row_lookup_error(self, fast_runner):
        result = run_table2(fast_runner, networks=FAST_NETWORKS)
        with pytest.raises(KeyError):
            result.row("BERT-Base & T5-Base")


class TestTable3:
    def test_savings_definition(self, fast_runner):
        result = run_table3(fast_runner, networks=FAST_NETWORKS)
        row = result.row("ViT-B/14")
        for method, saving in row.savings_pct.items():
            expected = (1 - row.energy_pj["mas"] / row.energy_pj[method]) * 100
            assert saving == pytest.approx(expected)
        assert "Table 3" in result.format()

    def test_mas_saves_energy_vs_unfused(self, fast_runner):
        result = run_table3(fast_runner, networks=FAST_NETWORKS)
        assert result.geomean_savings_pct["layerwise"] > 20
        assert result.geomean_savings_pct["softpipe"] > 10


class TestFigures:
    def test_figure5_normalization(self):
        runner = ExperimentRunner(hardware=davinci_like_npu(), use_search=False)
        result = run_figure5(runner, networks=FAST_NETWORKS)
        assert result.methods == ["layerwise", "softpipe", "flat", "mas"]
        for row in result.rows:
            assert row.normalized["layerwise"] == pytest.approx(1.0)
            assert row.normalized["mas"] < 1.0
        assert all(v >= 1.0 for m, v in result.geomean_speedups.items() if m != "mas")
        assert len(result.series("mas")) == len(FAST_NETWORKS)

    def test_figure6_breakdown_sums_to_total(self, fast_runner):
        result = run_figure6(fast_runner, networks=FAST_NETWORKS)
        entry = result.entry("ViT-B/14", "mas")
        component_sum = sum(entry.component_pj(c) for c in ("DRAM", "L1", "L0", "MAC_PE", "VEC_PE"))
        assert component_sum <= entry.total_pj  # leakage accounts for the rest
        assert component_sum > 0.5 * entry.total_pj
        assert result.pe_energy_constant_across_methods()
        with pytest.raises(KeyError):
            entry.component_pj("HBM")

    def test_figure7_requires_search(self, fast_runner):
        with pytest.raises(ValueError):
            run_figure7(fast_runner, networks=FAST_NETWORKS)

    def test_figure7_convergence(self, tuned_runner):
        result = run_figure7(tuned_runner, networks=["ViT-B/14"])
        assert "fusemax" not in result.methods  # manual tiling, excluded as in the paper
        series = result.get("ViT-B/14", "mas")
        assert series.is_monotone_nonincreasing()
        assert series.improvement_factor >= 1.0
        assert "Figure 7" in result.format()


class TestDramAnalysis:
    def test_writes_equal_and_reads_ratio(self, fast_runner):
        result = run_dram_analysis(fast_runner, networks=FAST_NETWORKS, include_constrained=False)
        for row in result.standard:
            assert row.writes_equal           # Section 5.4.1
            assert row.read_ratio >= 1.0 - 1e-9
        assert result.max_read_ratio() < 1.6  # paper reports at most ~1.5x

    def test_constrained_device_triggers_reloads(self):
        runner = ExperimentRunner(use_search=False)
        result = run_dram_analysis(
            runner, networks=["BERT-Base"], constrained_l1_bytes=192 * KB
        )
        constrained = result.row("BERT-Base & T5-Base", constrained=True)
        assert constrained.mas_overwrites > 0
        assert constrained.mas_reads > constrained.flat_reads
        assert constrained.writes_equal
        assert "DRAM" in result.format()


class TestLimits:
    def test_paper_figures(self):
        """Section 5.6: ~1M tokens for MAS-Attention, ~2M for FLAT at 5 MB L1."""
        result = run_limits()
        paper = result.row_for_l1(5 * MB)
        assert 0.9e6 < paper.mas_max_seq < 1.4e6
        assert 1.8e6 < paper.flat_max_seq < 2.7e6
        assert 1.9 < paper.flat_over_mas < 2.1
        assert "maximum sequence length" in result.format()

    @pytest.mark.parametrize("l1_mb", [[1, 2, 4], [1, 2, 5, 8]], ids=["1-2-4MB", "1-2-5-8MB"])
    def test_monotone_in_l1(self, l1_mb):
        result = run_limits(l1_sweep_bytes=[size * MB for size in l1_mb])
        seqs = [row.mas_max_seq for row in result.rows]
        assert seqs == sorted(seqs)


class TestSDUNet:
    @pytest.fixture(scope="class")
    def small_unet(self):
        units = tuple(
            AttentionUnit(f"u{i}", heads=2, seq=seq, emb=32)
            for i, seq in enumerate([256, 128, 64, 128, 256])
        )
        return StableDiffusionUNetWorkload(units=units, non_attention_fraction=0.78)

    def test_reductions_positive_and_bounded(self, small_unet):
        result = run_sd_unet(workload=small_unet, use_search=False)
        assert 0 < result.largest_unit_reduction_pct < 100
        assert 0 < result.end_to_end_reduction_pct < result.attention_reduction_pct
        assert result.largest_unit.seq == 256
        assert "Stable Diffusion" in result.format()

    def test_end_to_end_scaling_by_attention_share(self, small_unet):
        result = run_sd_unet(workload=small_unet, use_search=False)
        expected = result.attention_reduction_pct * (1 - small_unet.non_attention_fraction)
        assert result.end_to_end_reduction_pct == pytest.approx(expected)


class TestAblations:
    def test_overwrite_ablation(self):
        result = run_overwrite_ablation(networks=["T5-Mini"])
        assert result.summary["mean_speedup"] > 1.0
        assert "overwrite" in result.format()

    def test_tiling_ablation(self):
        result = run_tiling_ablation(networks=["ViT-B/14"], search_budget=8)
        assert result.rows and result.summary["mean_speedup"] > 0.0

    def test_search_ablation(self):
        result = run_search_ablation(
            network="ViT-B/14", budget=10, strategies=["random", "mcts"], method="mas"
        )
        assert len(result.rows) == 2
        assert all(v >= 1.0 for v in result.summary.values())


class TestSuiteParametrizedHarnesses:
    """Tables/figures sweep any workload suite (see the ``sweep_suite`` fixture)."""

    def test_table2_over_suite(self, sweep_suite):
        from repro.workloads.suites import get_suite

        suite = get_suite(sweep_suite)
        subset = suite.entry_names()[:2]
        runner = ExperimentRunner(suite=sweep_suite, use_search=False)
        result = run_table2(runner, networks=subset)
        assert result.networks == subset
        assert result.suite == suite.name
        # deterministic: a fresh runner reproduces every cycle count
        again = run_table2(
            ExperimentRunner(suite=sweep_suite, use_search=False), networks=subset
        )
        for entry in subset:
            assert result.row(entry).cycles == again.row(entry).cycles
        if suite.name == "table1":
            assert "suite" not in result.format()  # bit-identical to the paper artefact
        else:
            assert suite.name in result.format()

    def test_table3_and_figures_over_non_default_suite(self):
        runner = ExperimentRunner(suite="cross-attention@seq<=512", use_search=False)
        table3 = run_table3(runner)
        assert table3.suite == "cross-attention@seq<=512"
        assert "cross-attention" in table3.format()
        fig6 = run_figure6(runner)
        assert fig6.networks == runner.networks()
        assert "cross-attention" in fig6.format()

    def test_dram_analysis_uses_suite_workloads(self):
        runner = ExperimentRunner(suite="table1@batch=4", use_search=False)
        batched = run_dram_analysis(runner, networks=["ViT-B/14 @b4"], include_constrained=True)
        plain = run_dram_analysis(
            ExperimentRunner(use_search=False), networks=["ViT-B/14"], include_constrained=True
        )
        row_b = batched.row("ViT-B/14 @b4")
        row_1 = plain.row("ViT-B/14")
        assert row_b.flat_reads > row_1.flat_reads  # batch-4 traffic, not Table-1 defaults
        assert batched.row("ViT-B/14 @b4", constrained=True).flat_reads > 0

    def test_figure7_over_suite(self):
        runner = ExperimentRunner(suite="cross-attention@seq<=128", search_budget=6, seed=0)
        result = run_figure7(runner)
        assert result.suite == "cross-attention@seq<=128"
        series = result.get("sd.mid.xattn", "mas")
        assert series.is_monotone_nonincreasing()

    def test_python_built_suite_through_harness(self):
        """A suite built in Python sweeps like a built-in: the table is
        titled by its name."""
        from repro.workloads.attention import AttentionWorkload
        from repro.workloads.suites import SuiteEntry, WorkloadSuite

        suite = WorkloadSuite(
            name="my-shapes",
            description="a GQA shape and a small dense shape",
            entries=(
                SuiteEntry(
                    "chat.gqa", AttentionWorkload.gqa(32, 8, seq=256, emb=128, batch=2)
                ),
                SuiteEntry("embed", AttentionWorkload(heads=4, seq_q=64, seq_kv=64, emb=64)),
            ),
        )
        runner = ExperimentRunner(suite=suite, use_search=False)
        result = run_table2(runner)
        assert result.networks == ["chat.gqa", "embed"]
        assert result.suite == "my-shapes"
        assert "suite my-shapes" in result.format()
