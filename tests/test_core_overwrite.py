"""Unit tests for the proactive buffer-overwrite strategy (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.core.costs import TileCosts, partition_blocks
from repro.core.overwrite import InfeasibleTilingError, OverwriteEvent, OverwritePlan, OverwritePlanner
from repro.core.tiling import TilingConfig
from repro.utils.units import KB, MB
from repro.workloads.attention import AttentionWorkload


@pytest.fixture
def long_workload() -> AttentionWorkload:
    """A sequence long enough that a small L1 overflows in steady state."""
    return AttentionWorkload.self_attention(heads=2, seq=1024, emb=64, name="long")


def make_planner(hw, workload, tiling, enabled=True):
    return OverwritePlanner(workload, hw, tiling, enabled=enabled)


class TestOverwriteEvent:
    def test_validation(self):
        OverwriteEvent(block_index=2, victim="K", interrupted_op="QK",
                       tiles_overwritten=1, reload_bytes=100, redo_tiles=1)
        with pytest.raises(ValueError):
            OverwriteEvent(block_index=2, victim="P", interrupted_op="QK",
                           tiles_overwritten=1, reload_bytes=100, redo_tiles=1)
        with pytest.raises(ValueError):
            OverwriteEvent(block_index=2, victim="K", interrupted_op="SM",
                           tiles_overwritten=1, reload_bytes=100, redo_tiles=1)
        with pytest.raises(ValueError):
            OverwriteEvent(block_index=2, victim="K", interrupted_op="QK",
                           tiles_overwritten=0, reload_bytes=100, redo_tiles=1)


class TestOverwritePlan:
    def test_aggregates(self):
        plan = OverwritePlan(events=[
            OverwriteEvent(2, "V", "PV", 1, 1000, 1),
            OverwriteEvent(3, "K", "QK", 2, 2000, 1),
        ])
        assert plan.num_events == 2
        assert plan.total_reload_bytes == 3000
        assert plan.total_redo_tiles == 2
        by_block = {event.block_index: event for event in plan.events}
        assert by_block[3].victim == "K"
        assert 7 not in by_block


class TestOverwritePlanner:
    def test_no_overflow_no_events(self, edge_hw, small_workload, small_tiling):
        """On the 5 MB device the small workload never overflows."""
        planner = make_planner(edge_hw, small_workload, small_tiling)
        assert planner.overflow_bytes() == 0
        costs = TileCosts(small_workload, edge_hw, small_tiling)
        blocks = partition_blocks(small_workload, small_tiling, 1)[0]
        assert planner.plan(blocks, costs).num_events == 0

    def test_overflow_produces_events(self, edge_hw, long_workload):
        hw = edge_hw.with_l1_bytes(256 * KB)
        tiling = TilingConfig(nq=32, nkv=128, kv_resident=True)
        planner = make_planner(hw, long_workload, tiling)
        assert planner.overflow_bytes() > 0
        costs = TileCosts(long_workload, hw, tiling)
        blocks = partition_blocks(long_workload, tiling, 1)[0]
        plan = planner.plan(blocks, costs)
        assert plan.num_events > 0
        assert plan.total_reload_bytes > 0

    def test_warmup_blocks_never_overwritten(self, edge_hw, long_workload):
        hw = edge_hw.with_l1_bytes(256 * KB)
        tiling = TilingConfig(nq=32, nkv=128, kv_resident=True)
        planner = make_planner(hw, long_workload, tiling)
        costs = TileCosts(long_workload, hw, tiling)
        blocks = partition_blocks(long_workload, tiling, 1)[0]
        plan = planner.plan(blocks, costs)
        assert all(e.block_index >= 2 for e in plan.events)

    def test_victims_follow_the_paper_cases(self, edge_hw, long_workload):
        """Both Figure-2 (V overwritten, PV halted) and Figure-3 (K, QK) cases occur."""
        hw = edge_hw.with_l1_bytes(256 * KB)
        tiling = TilingConfig(nq=32, nkv=128, kv_resident=True)
        planner = make_planner(hw, long_workload, tiling)
        costs = TileCosts(long_workload, hw, tiling)
        blocks = partition_blocks(long_workload, tiling, 1)[0]
        plan = planner.plan(blocks, costs)
        pairs = {(e.victim, e.interrupted_op) for e in plan.events}
        assert pairs <= {("V", "PV"), ("K", "QK")}
        assert len(pairs) == 2

    def test_disabled_planner_emits_nothing(self, edge_hw, long_workload):
        hw = edge_hw.with_l1_bytes(256 * KB)
        tiling = TilingConfig(nq=32, nkv=128, kv_resident=True)
        planner = make_planner(hw, long_workload, tiling, enabled=False)
        costs = TileCosts(long_workload, hw, tiling)
        blocks = partition_blocks(long_workload, tiling, 1)[0]
        assert planner.plan(blocks, costs).num_events == 0

    def test_infeasible_when_non_evictable_data_exceeds_l1(self, edge_hw, long_workload):
        """P_i and the score blocks cannot be evicted; if they alone overflow, fail."""
        hw = edge_hw.with_l1_bytes(64 * KB)
        tiling = TilingConfig(nq=128, nkv=128)
        planner = make_planner(hw, long_workload, tiling)
        with pytest.raises(InfeasibleTilingError):
            planner.check_feasible()

    def test_residency_accounting(self, edge_hw, small_workload):
        tiling = TilingConfig(nq=32, nkv=32, kv_resident=True)
        planner = make_planner(edge_hw, small_workload, tiling)
        assert planner.steady_state_bytes() == (
            planner.non_evictable_bytes() + planner.kv_resident_bytes()
        )
        streamed = make_planner(edge_hw, small_workload, TilingConfig(nq=32, nkv=32))
        assert streamed.kv_resident_bytes() < planner.kv_resident_bytes()
