"""Unit and integration tests for the dataflow schedulers and their registry."""

from __future__ import annotations

import pytest

from repro.core.tiling import TilingConfig
from repro.schedulers import (
    ALL_SCHEDULERS,
    BASELINE_SCHEDULERS,
    FLATScheduler,
    FuseMaxScheduler,
    LayerWiseScheduler,
    MASAttentionScheduler,
    SoftPipeScheduler,
    TileFlowScheduler,
    get_scheduler,
    list_schedulers,
    make_scheduler,
)
from repro.sim.tasks import TaskKind, mac_resource, vec_resource
from repro.workloads.attention import AttentionWorkload

ALL_NAMES = ["layerwise", "softpipe", "flat", "tileflow", "fusemax", "mas"]


class TestRegistry:
    def test_all_schedulers_registered(self):
        assert list_schedulers() == ALL_NAMES
        assert set(BASELINE_SCHEDULERS) == set(ALL_NAMES) - {"mas"}

    def test_get_and_make(self, edge_hw):
        assert get_scheduler("flat") is FLATScheduler
        assert get_scheduler("MAS") is MASAttentionScheduler  # case-insensitive
        scheduler = make_scheduler("tileflow", edge_hw)
        assert isinstance(scheduler, TileFlowScheduler)
        assert scheduler.hardware is edge_hw
        with pytest.raises(KeyError):
            get_scheduler("flash-attention")

    def test_display_metadata(self):
        assert LayerWiseScheduler.analytic_serial_compute is True
        assert FLATScheduler.analytic_serial_compute is True
        assert SoftPipeScheduler.analytic_serial_compute is False
        assert MASAttentionScheduler.analytic_serial_compute is False
        assert FuseMaxScheduler.searchable is False
        assert MASAttentionScheduler.searchable is True


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEverySchedulerContract:
    """Contract tests every dataflow must satisfy."""

    def test_builds_and_simulates(self, name, edge_hw, small_workload):
        scheduler = make_scheduler(name, edge_hw)
        result = scheduler.simulate(small_workload)
        assert result.cycles > 0
        assert result.energy_pj > 0
        assert result.scheduler == name

    def test_respects_minimum_dram_traffic(self, name, edge_hw, small_workload):
        """No dataflow can read less than Q+K+V or write less than O."""
        scheduler = make_scheduler(name, edge_hw)
        result = scheduler.simulate(small_workload)
        assert result.dram_reads >= small_workload.input_bytes
        assert result.dram_writes >= small_workload.output_bytes

    @pytest.mark.parametrize("batched", [False, True], ids=["small", "batch2-heads3-hh2"])
    def test_identical_arithmetic_work(self, name, batched, edge_hw, small_workload):
        """Section 5.3.3: every dataflow performs the same MatMul work (scheduling only
        changes ordering), modulo FuseMax's online-softmax corrections on the VEC unit
        and redo tiles from the overwrite path (absent here).  The batched input's
        ``hh=2`` cuts each batch's three heads into head groups of 2 and 1."""
        workload, tiling = small_workload, None
        if batched:
            workload = AttentionWorkload(batch=2, heads=3, seq_q=64, seq_kv=64, emb=32)
            tiling = TilingConfig(hh=2, nq=32, nkv=32)
        result = make_scheduler(name, edge_hw).simulate(workload, tiling)
        assert result.counters.mac_ops == workload.total_macs
        assert result.counters.vec_ops >= workload.softmax_elements

    def test_footprint_fits_l1_with_default_tiling(self, name, edge_hw, small_workload):
        scheduler = make_scheduler(name, edge_hw)
        tiling = scheduler.default_tiling(small_workload)
        assert scheduler.footprint_bytes(small_workload, tiling) <= edge_hw.l1_bytes

    def test_makespan_at_least_busiest_resource(self, name, edge_hw, small_workload):
        scheduler = make_scheduler(name, edge_hw)
        tiling = scheduler.default_tiling(small_workload)
        build = scheduler.build(small_workload, tiling)
        assert scheduler.simulate(small_workload, tiling).cycles >= (
            build.graph.total_cycles_lower_bound()
        )

    def test_cross_attention_supported(self, name, edge_hw):
        cross = AttentionWorkload(batch=1, heads=2, seq_q=64, seq_kv=128, emb=32, name="cross")
        result = make_scheduler(name, edge_hw).simulate(cross)
        assert result.cycles > 0


class TestDataflowSpecifics:
    def test_layerwise_writes_intermediates_to_dram(self, edge_hw, small_workload):
        lw = LayerWiseScheduler(edge_hw).simulate(small_workload)
        # C and P both round-trip through DRAM on top of the mandatory O write.
        assert lw.dram_writes >= small_workload.output_bytes + 2 * small_workload.score_bytes

    def test_softpipe_writes_p_only(self, edge_hw, small_workload):
        sp = SoftPipeScheduler(edge_hw).simulate(small_workload)
        lw = LayerWiseScheduler(edge_hw).simulate(small_workload)
        assert sp.dram_writes >= small_workload.output_bytes + small_workload.score_bytes
        assert sp.dram_writes < lw.dram_writes

    def test_fused_dataflows_write_only_output(self, edge_hw, small_workload):
        """FLAT, TileFlow, FuseMax and MAS keep C/P on-chip (Section 5.4.1)."""
        for name in ("flat", "tileflow", "fusemax", "mas"):
            result = make_scheduler(name, edge_hw).simulate(small_workload)
            assert result.dram_writes == small_workload.output_bytes, name

    def test_flat_does_not_overlap_mac_and_vec(self, edge_hw, small_workload):
        flat = FLATScheduler(edge_hw)
        tiling = flat.default_tiling(small_workload)
        result = flat.simulate(small_workload, tiling)
        overlap = result.trace.overlap_cycles(mac_resource(0), vec_resource(0))
        vec_busy = result.trace.busy_cycles(vec_resource(0))
        assert overlap < 0.1 * max(vec_busy, 1)

    def test_mas_overlaps_mac_and_vec(self, edge_hw, small_workload):
        mas = MASAttentionScheduler(edge_hw)
        result = mas.simulate(small_workload, TilingConfig(nq=32, nkv=32, kv_resident=True))
        overlap = result.trace.overlap_cycles(mac_resource(0), vec_resource(0))
        bound = min(
            result.trace.busy_cycles(mac_resource(0)),
            result.trace.busy_cycles(vec_resource(0)),
        )
        assert overlap > 0.4 * bound

    def test_fusemax_has_extra_vec_work(self, edge_hw, small_workload):
        """Online softmax pays correction operations the two-pass softmax does not."""
        fusemax = FuseMaxScheduler(edge_hw).simulate(small_workload)
        mas = MASAttentionScheduler(edge_hw).simulate(small_workload)
        assert fusemax.counters.vec_ops > mas.counters.vec_ops

    def test_fusemax_footprint_smaller_than_mas(self, edge_hw, small_workload, small_tiling):
        assert FuseMaxScheduler(edge_hw).footprint_bytes(small_workload, small_tiling) < (
            MASAttentionScheduler(edge_hw).footprint_bytes(small_workload, small_tiling)
        )

    def test_layerwise_and_fusemax_share_the_score_tile_footprint(self, edge_hw, small_workload):
        """Both hold scores as ``nq x nkv`` tiles, never FLAT's full score
        block, so one footprint serves both and it shrinks with the K/V tile."""
        layerwise = LayerWiseScheduler(edge_hw)
        fusemax = FuseMaxScheduler(edge_hw)
        flat = FLATScheduler(edge_hw)
        footprints = []
        for nkv in (16, 32, 64):
            tiling = TilingConfig(nq=32, nkv=nkv)
            footprint = layerwise.footprint_bytes(small_workload, tiling)
            assert fusemax.footprint_bytes(small_workload, tiling) == footprint
            footprints.append(footprint)
        assert footprints == sorted(set(footprints))
        small_kv = TilingConfig(nq=32, nkv=16)
        assert footprints[0] < flat.footprint_bytes(small_workload, small_kv)

    def test_tileflow_emits_round_barriers(self, edge_hw, small_workload):
        tf = TileFlowScheduler(edge_hw)
        build = tf.build(small_workload, tf.default_tiling(small_workload))
        assert any(t.kind == TaskKind.BARRIER for t in build.graph)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_metadata_holds_only_what_programs_read(self, edge_hw, small_workload, name):
        """MAS reports its overwrite count, reload bytes and serialized blocks;
        every other fact about a build is a scheduler method, and a baseline
        reports nothing."""
        result = make_scheduler(name, edge_hw).simulate(small_workload)
        expected = {"num_overwrites", "extra_dram_bytes", "serialized_blocks"}
        assert set(result.metadata) == (expected if name == "mas" else set())


class TestRelativePerformance:
    """Integration: the paper's qualitative ordering holds on the edge device."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.hardware.presets import simulated_edge_device

        hw = simulated_edge_device()
        workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="itest")
        out = {}
        for name in ALL_NAMES:
            scheduler = make_scheduler(name, hw)
            out[name] = scheduler.simulate(workload)
        return out

    def test_mas_is_fastest(self, results):
        mas = results["mas"].cycles
        for name, result in results.items():
            assert result.cycles >= mas, f"{name} beat MAS-Attention"

    def test_layerwise_is_slowest(self, results):
        lw = results["layerwise"].cycles
        for name, result in results.items():
            assert result.cycles <= lw, f"{name} slower than Layer-Wise"

    def test_fused_beats_unfused(self, results):
        assert results["flat"].cycles < results["layerwise"].cycles
        assert results["flat"].cycles < results["softpipe"].cycles

    def test_mas_beats_flat_by_meaningful_margin(self, results):
        """The headline claim, loosely: pipelining MAC and VEC beats sequential fusion."""
        assert results["flat"].cycles / results["mas"].cycles > 1.2

    def test_energy_ordering(self, results):
        assert results["mas"].energy_pj < results["layerwise"].energy_pj
        assert results["mas"].energy_pj < results["softpipe"].energy_pj
