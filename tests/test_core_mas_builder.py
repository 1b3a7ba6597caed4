"""Unit and integration tests for the MAS-Attention scheduler's task graphs."""

from __future__ import annotations

import pytest

from repro.core.tiling import TilingConfig
from repro.schedulers.mas import MASAttentionScheduler, mas_max_seq_len
from repro.sim.engine import simulate_graph
from repro.sim.tasks import TaskKind, mac_resource, vec_resource
from repro.utils.units import KB, MB
from repro.workloads.attention import AttentionWorkload


def tags_of(graph, kind):
    return [t for t in graph if t.kind == kind]


class TestGraphStructure:
    def test_task_counts_match_tiling(self, edge_hw, small_workload):
        tiling = TilingConfig(nq=32, nkv=32)
        scheduler = MASAttentionScheduler(edge_hw)
        graph = scheduler.build(small_workload, tiling).graph
        num_blocks = tiling.num_blocks(small_workload)
        num_kv_tiles = tiling.num_kv_tiles(small_workload)
        matmuls = tags_of(graph, TaskKind.MATMUL)
        softmaxes = tags_of(graph, TaskKind.SOFTMAX)
        stores = tags_of(graph, TaskKind.STORE)
        # Two MatMul streams (QK and PV), each num_kv_tiles tiles per block.
        assert len(matmuls) == 2 * num_blocks * num_kv_tiles
        assert len(softmaxes) == num_blocks
        assert len(stores) == num_blocks        # only O is written back
        assert scheduler.footprint_bytes(small_workload, tiling) <= edge_hw.l1_bytes

    def test_only_output_written_to_dram(self, edge_hw, small_workload, small_tiling):
        """Section 5.4.1: MAS writes only O back to DRAM."""
        result = MASAttentionScheduler(edge_hw).simulate(small_workload, small_tiling)
        assert result.dram_writes == small_workload.output_bytes

    def test_dram_reads_cover_inputs_exactly_when_resident(self, edge_hw, small_workload):
        """With resident K/V and no overwrites, reads equal Q + K + V exactly."""
        tiling = TilingConfig(nq=32, nkv=32, kv_resident=True)
        result = MASAttentionScheduler(edge_hw).simulate(small_workload, tiling)
        assert result.metadata["num_overwrites"] == 0
        assert result.dram_reads == small_workload.input_bytes

    def test_softmax_on_vec_matmul_on_mac(self, edge_hw, small_workload, small_tiling):
        graph = MASAttentionScheduler(edge_hw).build(small_workload, small_tiling).graph
        assert all(".vec" in t.resource for t in tags_of(graph, TaskKind.SOFTMAX))
        assert all(".mac" in t.resource for t in tags_of(graph, TaskKind.MATMUL))

    def test_dependencies_qk_softmax_pv(self, edge_hw, tiny_workload):
        """Every softmax depends on its block's QK tiles; every PV on its softmax."""
        tiling = TilingConfig(nq=16, nkv=16)
        graph = MASAttentionScheduler(edge_hw).build(tiny_workload, tiling).graph
        by_tid = {t.tid: t for t in graph}
        for sm in tags_of(graph, TaskKind.SOFTMAX):
            dep_ops = {by_tid[d].tags.get("op") for d in sm.deps}
            assert "QK" in dep_ops
        for mm in tags_of(graph, TaskKind.MATMUL):
            if mm.tags.get("op") == "PV" and not mm.tags.get("redo"):
                dep_ops = {by_tid[d].tags.get("op") for d in mm.deps}
                assert "SM" in dep_ops

    def test_blocks_distributed_across_cores(self, edge_hw, small_workload, small_tiling):
        scheduler = MASAttentionScheduler(edge_hw)
        blocks_per_core = [len(blocks) for blocks in scheduler.blocks(small_workload, small_tiling)]
        assert len(blocks_per_core) == edge_hw.num_cores
        assert all(count > 0 for count in blocks_per_core)
        trace = scheduler.simulate(small_workload, small_tiling).trace
        for core in range(edge_hw.num_cores):
            assert trace.busy_cycles(mac_resource(core)) > 0
            assert trace.busy_cycles(vec_resource(core)) > 0

    def test_default_tiling_used_when_none_given(self, edge_hw, small_workload):
        scheduler = MASAttentionScheduler(edge_hw)
        tiling = scheduler.default_tiling(small_workload)
        result = scheduler.simulate(small_workload)
        assert result.cycles > 0
        assert result.cycles == scheduler.simulate(small_workload, tiling).cycles
        assert scheduler.footprint_bytes(small_workload, tiling) <= edge_hw.l1_bytes


class TestMacVecOverlap:
    def test_mac_and_vec_overlap_in_time(self, edge_hw, small_workload):
        """The defining property of MAS-Attention: MatMul and softmax overlap."""
        tiling = TilingConfig(nq=32, nkv=32, kv_resident=True)
        trace = MASAttentionScheduler(edge_hw).simulate(small_workload, tiling).trace
        overlap = trace.overlap_cycles(mac_resource(0), vec_resource(0))
        bound = min(trace.busy_cycles(mac_resource(0)), trace.busy_cycles(vec_resource(0)))
        assert overlap > 0.4 * bound

    def test_faster_than_sequential_lower_bound(self, edge_hw):
        """MAS beats the sum of MAC + VEC busy time (which FLAT cannot).

        Uses a compute-bound shape (the mandatory Q/K/V/O DRAM traffic is well
        below the compute time) so the comparison isolates the MAC/VEC overlap.
        """
        workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="cb")
        tiling = TilingConfig(nq=32, nkv=64, kv_resident=True)
        trace = MASAttentionScheduler(edge_hw).simulate(workload, tiling).trace
        serial = trace.busy_cycles(mac_resource(0)) + trace.busy_cycles(vec_resource(0))
        assert trace.total_cycles < serial


class TestOverwritePath:
    @pytest.fixture
    def overflowing(self, edge_hw):
        workload = AttentionWorkload.self_attention(heads=2, seq=1024, emb=64, name="long")
        hw = edge_hw.with_l1_bytes(384 * KB)
        tiling = TilingConfig(nq=32, nkv=128, kv_resident=True)
        return hw, workload, tiling

    def test_overwrite_adds_reload_traffic(self, overflowing):
        hw, workload, tiling = overflowing
        scheduler = MASAttentionScheduler(hw, enable_overwrite=True)
        assert scheduler.footprint_bytes(workload, tiling) > hw.l1_bytes
        result = scheduler.simulate(workload, tiling)
        assert result.metadata["num_overwrites"] > 0
        assert result.metadata["extra_dram_bytes"] > 0
        assert result.dram_reads > workload.input_bytes
        # Writes stay identical to the non-overflowing case: only O.
        assert result.dram_writes == workload.output_bytes

    def test_overwrite_beats_serialization(self, overflowing):
        """With the strategy on, the overflowing schedule is faster than degrading
        the pipeline to sequential execution (the no-overwrite fallback)."""
        hw, workload, tiling = overflowing
        on = MASAttentionScheduler(hw, enable_overwrite=True).simulate(workload, tiling)
        off = MASAttentionScheduler(hw, enable_overwrite=False).simulate(workload, tiling)
        assert on.metadata["num_overwrites"] > 0
        assert off.metadata["num_overwrites"] == 0 and off.metadata["serialized_blocks"] > 0
        assert on.cycles < off.cycles

    def test_redo_tasks_follow_trigger_softmax(self, overflowing):
        """A redone MatMul tile never starts before the softmax that triggered the overwrite."""
        hw, workload, tiling = overflowing
        graph = MASAttentionScheduler(hw, enable_overwrite=True).build(workload, tiling).graph
        trace = simulate_graph(graph)
        records = {r.task.tid: r for r in trace.records}
        by_tid = {t.tid: t for t in graph}
        redo_tasks = [t for t in graph if t.tags.get("redo")]
        assert redo_tasks
        for redo in redo_tasks:
            reload_deps = [d for d in redo.deps if by_tid[d].tags.get("overwrite")]
            assert reload_deps, "every redo tile must depend on its reload"
            assert records[redo.tid].start >= max(records[d].finish for d in reload_deps)

    def test_no_overwrite_when_memory_suffices(self, edge_hw, small_workload, small_tiling):
        scheduler = MASAttentionScheduler(edge_hw, enable_overwrite=True)
        metadata = scheduler.build(small_workload, small_tiling).metadata
        assert metadata["num_overwrites"] == 0 and metadata["extra_dram_bytes"] == 0


class TestSequenceLimits:
    def test_mas_limit_is_half_of_flat(self, edge_hw):
        """Section 5.6: two resident score rows for MAS versus one for FLAT."""
        from repro.schedulers.flat import flat_max_seq_len

        mas_limit = mas_max_seq_len(edge_hw, emb=64)
        flat_limit = flat_max_seq_len(edge_hw, emb=64)
        assert flat_limit == pytest.approx(2 * mas_limit, rel=0.01)

    def test_limits_on_paper_device_are_around_1m_and_2m(self, edge_hw):
        assert 0.9e6 < mas_max_seq_len(edge_hw) < 1.4e6
        from repro.schedulers.flat import flat_max_seq_len

        assert 1.8e6 < flat_max_seq_len(edge_hw) < 2.7e6

    def test_limit_scales_with_l1(self, edge_hw):
        bigger = edge_hw.with_l1_bytes(10 * MB)
        assert mas_max_seq_len(bigger) > mas_max_seq_len(edge_hw)

    def test_limit_zero_for_tiny_l1(self, edge_hw):
        assert mas_max_seq_len(edge_hw.with_l1_bytes(128), emb=64) == 0
