"""The paper's claims, regenerated and checked on every tier-1 run.

Each test regenerates one table, figure or ablation of the paper at a fixed
search budget and asserts its qualitative shape: MAS-Attention is the fastest
method on every Table-1 network (Table 2, Figure 5), saves energy over the
unfused baselines (Table 3, Figure 6), its search converges (Figure 7), and
its DRAM writes equal FLAT's (Section 5.4).  The bounds pin who wins and
roughly by how much, not the exact numbers, which move with the budget.  Run
with ``-s`` to see every regenerated table and each geomean next to the
paper's.

Table 2, Table 3, Figures 6-7 and the DRAM analysis report the same tuned
runs, as in the paper's methodology, so they share one module-scoped runner
and pay for each search once.  The sequence-length limits (Section 5.6) and
the golden-data check (Section 5.1) are inputs of ``tests/test_analysis.py``
and ``tests/test_numerics.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentRunner
from repro.analysis.ablations import run_overwrite_ablation, run_search_ablation, run_tiling_ablation
from repro.analysis.dram import run_dram_analysis
from repro.analysis.figure5 import PAPER_GEOMEAN_SPEEDUPS as PAPER_FIGURE5_SPEEDUPS
from repro.analysis.figure5 import run_figure5
from repro.analysis.figure6 import run_figure6
from repro.analysis.figure7 import run_figure7
from repro.analysis.metrics import geometric_mean
from repro.analysis.sd_unet import run_sd_unet
from repro.analysis.sensitivity import run_sensitivity
from repro.analysis.table2 import PAPER_GEOMEAN_SPEEDUPS, run_table2
from repro.analysis.table3 import PAPER_GEOMEAN_SAVINGS_PCT, run_table3
from repro.hardware.presets import davinci_like_npu
from repro.utils.units import MB
from repro.workloads.networks import list_networks

#: Tiling-search budget per (method, network) pair.  The paper runs ~10K
#: iterations offline; 40 keeps this module near 15 s on two cores while the
#: search still converges.
BUDGET = 40

#: All 12 networks of Table 1.
NETWORKS = list_networks()


@pytest.fixture(scope="module")
def edge_runner() -> ExperimentRunner:
    """Tuned runs on the paper's simulated edge device (Tables 2-3, Figures 6-7, DRAM)."""
    return ExperimentRunner(search_budget=BUDGET, seed=0)


def print_geomeans(title: str, reproduced: dict[str, float], paper: dict[str, float]) -> None:
    """Print each of ``paper``'s geomeans next to the reproduction's."""
    print(f"\n{title} (paper in brackets):")
    for method, reference in paper.items():
        print(f"  {method:10s} {reproduced[method]:8.3f}  ({reference})")


def test_table2_cycles_and_speedups(edge_runner):
    """Table 2: MAS-Attention is fastest everywhere, by roughly the paper's margins."""
    result = run_table2(edge_runner, networks=NETWORKS)
    print()
    print(result.format())
    print_geomeans("Table 2 geomean speedups", result.geomean_speedups, PAPER_GEOMEAN_SPEEDUPS)

    assert result.mas_wins()
    assert result.geomean_speedups["layerwise"] > result.geomean_speedups["softpipe"]
    assert result.geomean_speedups["softpipe"] > result.geomean_speedups["flat"] * 0.9
    assert 1.2 < result.geomean_speedups["flat"] < 2.75
    assert 1.0 <= result.geomean_speedups["tileflow"] < 1.8
    assert 1.0 <= result.geomean_speedups["fusemax"] < 2.0


def test_table3_energy_and_savings(edge_runner):
    """Table 3: large savings over the unfused baselines, moderate over FLAT."""
    result = run_table3(edge_runner, networks=NETWORKS)
    print()
    print(result.format())
    print_geomeans(
        "Table 3 geomean savings (%)", result.geomean_savings_pct, PAPER_GEOMEAN_SAVINGS_PCT
    )

    savings = result.geomean_savings_pct
    assert savings["layerwise"] > 35.0
    assert savings["softpipe"] > 25.0
    assert savings["layerwise"] > savings["flat"]
    assert -5.0 < savings["flat"] < 40.0
    # FuseMax is the closest competitor on energy in the paper (its savings are
    # negative there); here it should at least be far below the unfused baselines.
    assert savings["fusemax"] < savings["layerwise"]


def test_figure5_normalized_execution_time():
    """Figure 5: on the DaVinci-like NPU with grid-searched tilings, MAS is
    fastest and Layer-Wise slowest (the paper's on-device experiment)."""
    npu_runner = ExperimentRunner(
        hardware=davinci_like_npu(), search_strategy="grid", search_budget=BUDGET, seed=0
    )
    result = run_figure5(npu_runner, networks=NETWORKS)
    print()
    print(result.format())
    print_geomeans("Figure 5 geomean speedups", result.geomean_speedups, PAPER_FIGURE5_SPEEDUPS)

    for row in result.rows:
        assert row.normalized["layerwise"] == 1.0
        assert row.normalized["mas"] <= min(row.normalized.values())
    assert result.geomean_speedups["layerwise"] > result.geomean_speedups["softpipe"]
    assert result.geomean_speedups["softpipe"] > result.geomean_speedups["flat"] * 0.85
    assert 1.15 < result.geomean_speedups["flat"] < 2.3


def test_figure6_energy_breakdown(edge_runner):
    """Figure 6: the unfused baselines pay far more DRAM energy than the fused
    dataflows, and PE energy is the same for every method (Section 5.3.3)."""
    result = run_figure6(edge_runner, networks=NETWORKS)
    print()
    print(result.format())

    # Off-chip energy: Layer-Wise and Soft-Pipe pay for the C/P round-trips,
    # so they sit above the fused dataflows which only read Q/K/V and write O.
    for network in result.networks:
        dram_lw = result.entry(network, "layerwise").component_pj("DRAM")
        dram_sp = result.entry(network, "softpipe").component_pj("DRAM")
        dram_mas = result.entry(network, "mas").component_pj("DRAM")
        assert dram_lw > dram_sp > dram_mas * 0.99

    assert result.pe_energy_constant_across_methods()


def test_figure7_search_convergence(edge_runner):
    """Figure 7 / Section 5.5: every searched method's best-so-far curve only
    falls, and tuning gains over the first candidate are visible."""
    result = run_figure7(edge_runner, networks=NETWORKS)
    print()
    print(result.format())

    assert result.series, "no convergence series recorded"
    assert "fusemax" not in result.methods

    improvements = [s.improvement_factor for s in result.series]
    for series in result.series:
        assert series.is_monotone_nonincreasing()
        assert series.improvement_factor >= 1.0

    mas_improvements = [s.improvement_factor for s in result.series if s.method == "mas"]
    print(
        f"\ngeomean improvement: all methods {geometric_mean(improvements):.3f}x, "
        f"MAS {geometric_mean(mas_improvements):.3f}x (paper: 16x-66x after ~10K iterations)"
    )
    # The paper reports 16x-66x gains after ~10K iterations from a deliberately
    # poor starting point; with a small budget and a sane starting point the
    # gain is smaller but must be visible on at least some networks.
    assert max(improvements) > 1.1


def test_dram_reads_and_writes(edge_runner):
    """Section 5.4: MAS writes exactly what FLAT writes; it reads more only
    where the proactive overwrite strategy reloads K/V."""
    result = run_dram_analysis(edge_runner, networks=NETWORKS, include_constrained=True)
    print()
    print(result.format())

    # Standard device (5 MB L1): writes identical, and MAS never reads more
    # than ~1.5x FLAT (the paper's bound) because no overwrites fire.  Ratios
    # below 1 can occur when FLAT's independently searched tiling streams K/V
    # from DRAM per row-block instead of keeping them resident.
    for row in result.standard:
        assert row.writes_equal
        assert row.read_ratio < 1.6

    # Constrained device: the overwrite path fires, reads grow, writes stay equal.
    assert result.constrained, "constrained-L1 sweep missing"
    assert any(row.mas_overwrites > 0 for row in result.constrained)
    for row in result.constrained:
        assert row.writes_equal
        if row.mas_overwrites:
            assert row.read_ratio > 1.0


def test_overwrite_strategy_ablation():
    """Ablation A1: on an L1 slightly too small for the pipeline, the
    Section-4.3 overwrite strategy beats serializing the overflowing rounds."""
    result = run_overwrite_ablation(networks=["T5-Mini", "BERT-Small", "BERT-Base"])
    print()
    print(result.format())

    # The strategy must pay off on average in the slightly-overflowing regime,
    # and every row must actually have exercised the overwrite path.
    assert result.summary["mean_speedup"] > 1.0
    assert all(row[-1] > 0 for row in result.rows), "no overwrite events were planned"
    assert all(row[-2] > 0 for row in result.rows), "no reload traffic was generated"


def test_multitier_tiling_ablation():
    """Ablation A2: removing the fine-grained K/V tier never helps."""
    result = run_tiling_ablation(networks=["BERT-Base", "Llama3-8B", "T5-Mini"], search_budget=40)
    print()
    print(result.format())

    # Multi-tier tiling is never worse, and its footprint is never larger.
    assert result.summary["mean_speedup"] >= 1.0
    for row in result.rows:
        _, multi_cycles, single_cycles, speedup, multi_fp, single_fp = row
        assert multi_cycles <= single_cycles
        assert multi_fp <= single_fp


def test_search_algorithm_ablation():
    """Ablation A3: under an equal budget the paper's MCTS+GA stays close to
    the best strategy when tuning MAS-Attention on BERT-Base."""
    result = run_search_ablation(network="BERT-Base", budget=60, method="mas")
    print()
    print(result.format())

    # Every strategy finds a feasible tiling, and the guided strategies are
    # within a small factor of the best one found under this budget.
    best_cycles = {row[0]: row[1] for row in result.rows}
    assert all(v != float("inf") for v in best_cycles.values())
    assert result.summary["mcts+ga_vs_best"] < 1.3
    assert result.summary["grid_vs_best"] < 2.0


def test_sd_unet_end_to_end():
    """Section 5.2.2: the Stable Diffusion 1.5 reduced UNet on the NPU preset —
    a large cut on its largest attention unit, single digits end to end."""
    result = run_sd_unet(use_search=False)
    print()
    print(result.format())  # with the paper's two reductions

    # Largest unit: 2 heads x 4096 tokens x 64 dims, as described in the paper.
    largest = result.largest_unit
    assert (largest.heads, largest.seq, largest.emb) == (2, 4096, 64)

    # Shape: a substantial per-unit reduction that shrinks to single digits
    # end-to-end because attention is only part of the UNet latency.
    assert 15.0 < result.largest_unit_reduction_pct < 70.0
    assert 2.0 < result.end_to_end_reduction_pct < 20.0
    assert result.end_to_end_reduction_pct < result.attention_reduction_pct


def test_hardware_sensitivity():
    """How MAS's advantage over FLAT moves with the device (the Section 5.6
    discussion): it peaks near MAC/VEC balance and survives smaller buffers."""
    vec = run_sensitivity(
        "vec_throughput", "BERT-Base", values=[8, 16, 32, 64, 128], search_budget=25
    )
    l1 = run_sensitivity(
        "l1_bytes", "BERT-Base", values=[0.5 * MB, 1 * MB, 2 * MB, 5 * MB], search_budget=25
    )
    print()
    print(vec.format())
    print()
    print(l1.format())

    # VEC sweep: advantage exists everywhere, peaks in the balanced middle,
    # shrinks when the VEC unit is far oversized (MAC-bound regime).
    speedups = vec.speedups()
    assert all(s >= 1.0 for s in speedups)
    assert max(speedups) == max(speedups[:4])
    assert speedups[-1] <= max(speedups)

    # L1 sweep: MAS never loses, and a larger buffer never hurts it.
    l1_speedups = l1.speedups()
    assert all(s >= 0.95 for s in l1_speedups)
