"""Unit tests for the tiling scheme (Section 4.2) and stream rounds (Section 4.1)."""

from __future__ import annotations

from itertools import zip_longest

import pytest

from repro.core.costs import partition_blocks
from repro.core.stream import OpKind, RoundKind, StreamOp, plan_rounds
from repro.core.tiling import (
    TilingConfig,
    default_tiling,
    flat_footprint_bytes,
    mas_footprint_bytes,
    operand_tile_bytes,
    score_block_bytes,
)
from repro.schedulers import make_scheduler
from repro.sim.tasks import mac_resource, vec_resource
from repro.workloads.attention import AttentionWorkload


class TestTilingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TilingConfig(nq=0)
        with pytest.raises(ValueError):
            TilingConfig(bb=-1)

    def test_validate_for_and_clamp(self, small_workload):
        TilingConfig(nq=64, nkv=64).validate_for(small_workload)
        with pytest.raises(ValueError):
            TilingConfig(nq=4096).validate_for(small_workload)
        clamped = TilingConfig(bb=8, hh=64, nq=4096, nkv=4096).clamp_to(small_workload)
        assert clamped.bb == small_workload.batch
        assert clamped.hh == small_workload.heads
        assert clamped.nq == small_workload.seq_q
        assert clamped.nkv == small_workload.seq_kv

    def test_iteration_counts(self, small_workload):
        tiling = TilingConfig(nq=32, nkv=64)
        assert tiling.num_row_blocks(small_workload) == 4      # 128 / 32
        assert tiling.num_kv_tiles(small_workload) == 2        # 128 / 64
        assert tiling.num_head_groups(small_workload) == 4     # 4 heads, hh=1
        assert tiling.num_blocks(small_workload) == 16
        assert tiling.group_size == 1

    def test_ceil_division_of_ragged_dims(self):
        wl = AttentionWorkload(heads=3, seq_q=100, seq_kv=100, emb=16)
        tiling = TilingConfig(hh=2, nq=64, nkv=48)
        assert tiling.num_head_groups(wl) == 2
        assert tiling.num_row_blocks(wl) == 2
        assert tiling.num_kv_tiles(wl) == 3

    def test_as_dict_roundtrip(self):
        tiling = TilingConfig(bb=1, hh=2, nq=32, nkv=64, kv_resident=True)
        assert tiling.as_dict() == {"bb": 1, "hh": 2, "nq": 32, "nkv": 64, "kv_resident": True}


class TestFootprints:
    def test_operand_tile_bytes(self, small_workload):
        tiles = operand_tile_bytes(small_workload, TilingConfig(nq=32, nkv=64))
        d = small_workload.dtype_bytes
        assert tiles["q"] == 32 * small_workload.emb * d
        assert tiles["k"] == 64 * small_workload.emb * d
        assert tiles["k_full"] == small_workload.seq_kv * small_workload.emb * d
        assert tiles["o"] == tiles["q"]

    def test_score_block_spans_full_kv(self, small_workload):
        tiling = TilingConfig(nq=32, nkv=16)
        assert score_block_bytes(small_workload, tiling) == 32 * small_workload.seq_kv * 2

    def test_mas_footprint_exceeds_flat(self, small_workload, small_tiling):
        """The pipeline keeps two score blocks resident, FLAT only one (Section 5.6)."""
        assert mas_footprint_bytes(small_workload, small_tiling) > flat_footprint_bytes(
            small_workload, small_tiling
        )

    def test_kv_resident_increases_footprint(self, small_workload):
        streamed = TilingConfig(nq=32, nkv=32, kv_resident=False)
        resident = TilingConfig(nq=32, nkv=32, kv_resident=True)
        assert mas_footprint_bytes(small_workload, resident) > mas_footprint_bytes(
            small_workload, streamed
        )

    def test_footprint_monotone_in_nq(self, small_workload):
        small = mas_footprint_bytes(small_workload, TilingConfig(nq=16, nkv=32))
        large = mas_footprint_bytes(small_workload, TilingConfig(nq=64, nkv=32))
        assert large > small

    def test_default_tiling_fits_l1(self, edge_hw):
        for seq in (128, 512, 4096):
            wl = AttentionWorkload.self_attention(heads=2, seq=seq, emb=64)
            tiling = default_tiling(wl, edge_hw)
            assert mas_footprint_bytes(wl, tiling) <= edge_hw.l1_bytes


class TestStreamRounds:
    @pytest.mark.parametrize("num_blocks", [1, 2, 3, 4, 7, 16])
    def test_each_operator_appears_once_per_block(self, num_blocks):
        ops = [op for rnd in plan_rounds(num_blocks) for op in rnd.mac_ops + rnd.vec_ops]
        for kind in OpKind:
            blocks = [op.block for op in ops if op.kind == kind]
            assert sorted(blocks) == list(range(1, num_blocks + 1))

    @pytest.mark.parametrize("num_blocks", [2, 3, 5, 9])
    def test_dependencies_between_rounds(self, num_blocks):
        """SM_i must come after QK_i's round; PV_i after SM_i's round (Algorithm 1)."""
        rounds = plan_rounds(num_blocks)
        round_of: dict[tuple[str, int], int] = {}
        for rnd in rounds:
            for op in rnd.mac_ops + rnd.vec_ops:
                round_of[(op.kind.value, op.block)] = rnd.index
        for block in range(1, num_blocks + 1):
            assert round_of[("QK", block)] < round_of[("SM", block)]
            assert round_of[("SM", block)] < round_of[("PV", block)]

    def test_round_kinds_structure(self):
        rounds = plan_rounds(5)
        kinds = [r.kind for r in rounds]
        assert kinds[0] == RoundKind.WARMUP and kinds[1] == RoundKind.WARMUP
        assert kinds[-1] == RoundKind.FINALIZE and kinds[-2] == RoundKind.FINALIZE
        assert all(k == RoundKind.REGULAR for k in kinds[2:-2])

    def test_regular_rounds_use_both_units(self):
        """In every regular round the MAC runs PV and QK while the VEC runs softmax."""
        for rnd in plan_rounds(6):
            if rnd.kind == RoundKind.REGULAR:
                assert {op.kind for op in rnd.mac_ops} == {OpKind.PV, OpKind.QK}
                assert {op.kind for op in rnd.vec_ops} == {OpKind.SOFTMAX}

    def test_single_block_degenerates_to_sequential(self):
        rounds = plan_rounds(1)
        assert [str(op) for r in rounds for op in r.mac_ops + r.vec_ops] == ["QK1", "SM1", "PV1"]

    def test_parallel_rounds_and_streams(self):
        rounds = plan_rounds(5)
        assert len([r for r in rounds if r.mac_ops and r.vec_ops]) >= 3
        mac_stream = [str(op) for r in rounds for op in r.mac_ops]
        vec_stream = [str(op) for r in rounds for op in r.vec_ops]
        assert mac_stream[:3] == ["QK1", "QK2", "PV1"]
        assert vec_stream[:2] == ["SM1", "SM2"]

    def test_invalid_block_count(self):
        with pytest.raises(ValueError):
            plan_rounds(0)

    def test_describe_mentions_units(self):
        text = plan_rounds(3)[2].describe()
        assert "MAC" in text and "VEC" in text
        assert str(StreamOp(OpKind.QK, 4)) == "QK4"


class TestGraphsFollowAlgorithm1:
    """The MAS and TileFlow graphs issue each core's ops in plan_rounds' order."""

    @pytest.mark.parametrize(
        "name, heads, nq, l1",
        [
            # Two heads on two cores: 1, 2, 3 and 5 blocks per core.
            *[(name, 2, nq, None) for name in ("mas", "tileflow") for nq in (40, 20, 14, 8)],
            # Three heads: four blocks on core 0, two on core 1.
            *[(name, 3, 20, None) for name in ("mas", "tileflow")],
            # An overflowing L1: the MAS graph gains redo tiles on the MAC.
            ("mas", 2, 8, 2816),
        ],
    )
    def test_unit_streams_follow_plan_rounds(self, edge_hw, name, heads, nq, l1):
        workload = AttentionWorkload.self_attention(heads=heads, seq=40, emb=16)
        tiling = TilingConfig(nq=nq, nkv=16)
        hardware = edge_hw if l1 is None else edge_hw.with_l1_bytes(l1)
        graph = make_scheduler(name, hardware).build(workload, tiling).graph
        if l1 is not None:
            assert any(task.tags.get("redo") for task in graph)
        num_kv_tiles = tiling.num_kv_tiles(workload)
        for core, blocks in enumerate(partition_blocks(workload, tiling, hardware.num_cores)):
            rounds = plan_rounds(len(blocks))
            expected = {
                "MAC": [
                    (op.kind.value, op.block - 1)
                    for rnd in rounds
                    for op in rnd.mac_ops
                    for _ in range(num_kv_tiles)
                ],
                "VEC": [(op.kind.value, op.block - 1) for rnd in rounds for op in rnd.vec_ops],
            }
            found = {
                unit: [
                    (task.tags["op"], task.tags["block"])
                    for task in graph.tasks_on(resource(core))
                    if not task.tags.get("redo")
                ]
                for unit, resource in (("MAC", mac_resource), ("VEC", vec_resource))
            }
            for unit in ("MAC", "VEC"):
                pairs = zip_longest(expected[unit], found[unit])
                for position, (want, got) in enumerate(pairs):
                    assert want == got, (
                        f"{name} core {core} {unit} position {position}: "
                        f"expected {want}, found {got}"
                    )
