"""Unit tests for the proactive buffer-overwrite strategy (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.core.costs import TileCosts, partition_blocks
from repro.core.overwrite import InfeasibleTilingError, OverwriteEvent, plan_overwrites
from repro.core.tiling import (
    TilingConfig,
    mas_footprint_bytes,
    mas_non_evictable_bytes,
    operand_tile_bytes,
)
from repro.schedulers.mas import MASAttentionScheduler
from repro.utils.units import KB
from repro.workloads.attention import AttentionWorkload


@pytest.fixture
def long_workload() -> AttentionWorkload:
    """A sequence long enough that a small L1 overflows in steady state."""
    return AttentionWorkload.self_attention(heads=2, seq=1024, emb=64, name="long")


#: A tiling of ``long_workload`` whose resident K/V overflow a 256 KB L1.
OVERFLOWING = TilingConfig(nq=32, nkv=128, kv_resident=True)


def plan(hw, workload, tiling):
    """The overflow of a regular round and the events of one core's blocks."""
    overflow = mas_footprint_bytes(workload, tiling) - hw.l1_bytes
    costs = TileCosts(workload, hw, tiling)
    blocks = partition_blocks(workload, tiling, 1)[0]
    return overflow, plan_overwrites(blocks, costs, overflow)


class TestOverwriteEvent:
    def test_validation(self):
        OverwriteEvent(block_index=2, victim="K", reload_bytes=100)
        with pytest.raises(ValueError):
            OverwriteEvent(block_index=2, victim="P", reload_bytes=100)
        with pytest.raises(ValueError):
            OverwriteEvent(block_index=2, victim="K", reload_bytes=-1)


class TestPlanOverwrites:
    def test_no_overflow_no_events(self, edge_hw, small_workload, small_tiling):
        """On the 5 MB device the small workload never overflows."""
        overflow, events = plan(edge_hw, small_workload, small_tiling)
        assert overflow <= 0
        assert events == []

    def test_overflow_produces_events(self, edge_hw, long_workload):
        overflow, events = plan(edge_hw.with_l1_bytes(256 * KB), long_workload, OVERFLOWING)
        assert overflow > 0
        assert events
        assert sum(e.reload_bytes for e in events) > 0

    def test_warmup_blocks_never_overwritten(self, edge_hw, long_workload):
        _, events = plan(edge_hw.with_l1_bytes(256 * KB), long_workload, OVERFLOWING)
        assert all(e.block_index >= 2 for e in events)

    def test_victims_follow_the_paper_cases(self, edge_hw, long_workload):
        """Both Figure-2 (V overwritten, PV halted) and Figure-3 (K, QK) cases
        occur, and each redoes a tile of the MatMul its victim feeds."""
        hw = edge_hw.with_l1_bytes(256 * KB)
        _, events = plan(hw, long_workload, OVERFLOWING)
        assert {e.victim for e in events} == {"K", "V"}
        graph = MASAttentionScheduler(hw).build(long_workload, OVERFLOWING).graph
        pairs = {
            (graph[dep].tags["operand"], redo.tags["op"])
            for redo in graph
            if redo.tags.get("redo")
            for dep in redo.deps
            if graph[dep].tags.get("overwrite")
        }
        assert pairs == {("V", "PV"), ("K", "QK")}

    def test_metadata_totals_the_plan(self, edge_hw, long_workload):
        """A build's metadata counts every core's planned events and their
        reload bytes, and its graph holds one reload task and one redo tile
        per event."""
        hw = edge_hw.with_l1_bytes(256 * KB)
        scheduler = MASAttentionScheduler(hw)
        overflow = mas_footprint_bytes(long_workload, OVERFLOWING) - hw.l1_bytes
        costs = TileCosts(long_workload, hw, OVERFLOWING)
        events = [
            event
            for blocks in scheduler.blocks(long_workload, OVERFLOWING)
            for event in plan_overwrites(blocks, costs, overflow)
        ]
        build = scheduler.build(long_workload, OVERFLOWING)
        assert build.metadata["num_overwrites"] == len(events) > 0
        assert build.metadata["extra_dram_bytes"] == sum(e.reload_bytes for e in events)
        assert len([t for t in build.graph if t.tags.get("overwrite")]) == len(events)
        redo = [t for t in build.graph if t.tags.get("redo")]
        assert len(redo) == len(events)

    def test_disabled_overwrite_emits_no_reload_or_redo(self, edge_hw, long_workload):
        hw = edge_hw.with_l1_bytes(256 * KB)
        graph = MASAttentionScheduler(hw, enable_overwrite=False).build(
            long_workload, OVERFLOWING
        ).graph
        assert not [t for t in graph if t.tags.get("overwrite") or t.tags.get("redo")]

    def test_infeasible_when_non_evictable_data_exceeds_l1(self, edge_hw, long_workload):
        """P_i and the score blocks cannot be evicted; if they alone overflow, fail."""
        scheduler = MASAttentionScheduler(edge_hw.with_l1_bytes(64 * KB))
        tiling = TilingConfig(nq=128, nkv=128)
        assert not scheduler.fits(long_workload, tiling)
        with pytest.raises(InfeasibleTilingError, match="non-evictable residency"):
            scheduler.build(long_workload, tiling)

    def test_residency_accounting(self, small_workload):
        """The steady-state residency is the non-evictable part plus the K/V
        tiles, all of K and V when they stay resident."""
        resident = TilingConfig(nq=32, nkv=32, kv_resident=True)
        streamed = TilingConfig(nq=32, nkv=32)

        def kv_bytes(tiling):
            return mas_footprint_bytes(small_workload, tiling) - mas_non_evictable_bytes(
                small_workload, tiling
            )

        tiles = operand_tile_bytes(small_workload, resident)
        assert kv_bytes(resident) == tiles["k_full"] + tiles["v_full"]
        assert kv_bytes(streamed) == tiles["k"] + tiles["v"]
        assert kv_bytes(streamed) < kv_bytes(resident)
