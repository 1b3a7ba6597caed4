"""Unit tests for :mod:`repro.numerics` (reference attention, graph replay, golden check)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tiling import TilingConfig
from repro.numerics import golden
from repro.numerics.golden import golden_check, make_qkv
from repro.numerics.reference import (
    attention_scores,
    naive_softmax,
    online_softmax,
    reference_attention,
    stable_softmax,
)
from repro.numerics.replay import ReplayError, replay
from repro.schedulers import list_schedulers, make_scheduler
from repro.sim.engine import simulate_graph
from repro.workloads.attention import AttentionWorkload

#: (scheduler, producer, consumer, slot, early) of each dependency a race test
#: drops; producer and consumer are task-name stems without the tile index.
#: The consumer then starts while its producer runs or, when ``early``,
#: before its producer starts.
DROPS = [
    ("layerwise", "load_C", "SM", "C", False),
    ("softpipe", "QK", "SM", "C", False),
    ("flat", "QK", "SM", "C", False),
    ("tileflow", "load_V", "PV", "V", False),
    ("fusemax", "SMU", "PV", "P", False),
    ("mas", "QK", "SM", "C", False),
    ("flat", "QK", "SM", "C", True),
    # The stored P left L1, so PV must wait for its reload.
    ("layerwise", "load_P", "PV", "P", True),
    ("softpipe", "load_P", "PV", "P", True),
    # NORM reads the accumulator version holding every PV tile.
    ("fusemax", "PV", "NORM", "O", True),
]


def _stem(task) -> str:
    return task.name.split(".")[2].rstrip("0123456789")


def _drop_racing_dependency(graph, producer_stem: str, consumer_stem: str, early: bool):
    """Drop the first producer -> consumer edge that lets the consumer start while
    the producer runs (``early``: before it starts); return the two tasks."""
    for consumer in graph:
        for dep in consumer.deps:
            producer = graph[dep]
            if (_stem(producer), _stem(consumer)) != (producer_stem, consumer_stem):
                continue
            kept = consumer.deps
            consumer.deps = tuple(d for d in kept if d != dep)
            records = simulate_graph(graph).records
            made, used = records[producer.tid], records[consumer.tid]
            if used.start < made.start if early else made.start <= used.start < made.finish:
                return producer, consumer
            consumer.deps = kept
    return None


def random_qkv(b=1, h=2, n=96, e=16, seed=0, dtype=np.float64):
    wl = AttentionWorkload(batch=b, heads=h, seq_q=n, seq_kv=n, emb=e)
    return make_qkv(wl, seed=seed, dtype=dtype)


class TestSoftmax:
    def test_stable_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        p = stable_softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)
        assert np.all(p >= 0)

    def test_stable_matches_naive_for_small_logits(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        np.testing.assert_allclose(stable_softmax(x), naive_softmax(x), rtol=1e-12)

    def test_stable_softmax_handles_large_logits(self):
        x = np.array([[1000.0, 1000.0, 999.0]])
        p = stable_softmax(x)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0)

    def test_stable_softmax_invariant_to_shift(self):
        x = np.random.default_rng(2).standard_normal((2, 9))
        np.testing.assert_allclose(stable_softmax(x), stable_softmax(x + 123.0), rtol=1e-10)

    @pytest.mark.parametrize("tile", [1, 3, 8, 64])
    def test_online_softmax_matches_stable(self, tile):
        x = np.random.default_rng(3).standard_normal((2, 4, 64))
        probs, running_max, running_sum = online_softmax(x, tile=tile)
        np.testing.assert_allclose(probs, stable_softmax(x), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(running_max, np.max(x, axis=-1))
        assert np.all(running_sum > 0)

    def test_online_softmax_rejects_bad_tile(self):
        with pytest.raises(ValueError):
            online_softmax(np.zeros((2, 4)), tile=0)


class TestReferenceAttention:
    def test_matches_manual_computation(self):
        q, k, v = random_qkv(n=8, e=4)
        out = reference_attention(q, k, v)
        scale = 1.0 / np.sqrt(4)
        scores = scale * q @ np.swapaxes(k, -1, -2)
        expected = stable_softmax(scores) @ v
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_output_shape(self):
        q, k, v = random_qkv(b=2, h=3, n=16, e=8)
        assert reference_attention(q, k, v).shape == (2, 3, 16, 8)

    def test_custom_scale(self):
        q, k, v = random_qkv(n=8, e=4)
        default = reference_attention(q, k, v)
        unscaled = reference_attention(q, k, v, scale=1.0)
        assert not np.allclose(default, unscaled)

    def test_incompatible_shapes_rejected(self):
        q, k, v = random_qkv()
        with pytest.raises(ValueError):
            reference_attention(q, k[..., :8], v[..., :8])

    def test_attention_scores_scaling(self):
        q, k, _ = random_qkv(n=4, e=16)
        np.testing.assert_allclose(
            attention_scores(q, k, scale=2.0), 2.0 * np.einsum("...qe,...ke->...qk", q, k)
        )


class TestReplay:
    @pytest.mark.parametrize("name", list_schedulers())
    @pytest.mark.parametrize(
        "batch, n, emb, nkv, seed",
        # The second has eight K/V tiles per row: FuseMax rescales its
        # accumulator seven times, and MAS streams eight QK/PV tiles per row-block.
        [(2, 80, 16, 32, 11), (1, 128, 8, 16, 3)],
        ids=["n80", "n128-8tiles"],
    )
    def test_matches_reference(self, name, batch, n, emb, nkv, seed, edge_hw):
        workload = AttentionWorkload(batch=batch, heads=2, seq_q=n, seq_kv=n, emb=emb)
        q, k, v = make_qkv(workload, seed=seed, dtype=np.float64)
        tiling = TilingConfig(nq=32, nkv=nkv)
        out = replay(make_scheduler(name, edge_hw), workload, tiling, q, k, v)
        np.testing.assert_allclose(out, reference_attention(q, k, v), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("nq,nkv", [(16, 16), (32, 48), (80, 80), (7, 13)])
    def test_mas_exact_for_odd_tilings(self, nq, nkv, edge_hw):
        """Tilings that do not divide the sequence still give exact attention."""
        workload = AttentionWorkload(batch=1, heads=2, seq_q=80, seq_kv=80, emb=16)
        q, k, v = make_qkv(workload, seed=5, dtype=np.float64)
        out = replay(make_scheduler("mas", edge_hw), workload, TilingConfig(nq=nq, nkv=nkv), q, k, v)
        np.testing.assert_allclose(out, reference_attention(q, k, v), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize(
        "name, producer_stem, consumer_stem, slot, early",
        DROPS,
        ids=[f"{d[0]}-{d[1]}-{d[2]}{'-early' if d[4] else ''}" for d in DROPS],
    )
    def test_dropped_dependency_is_caught(
        self, name, producer_stem, consumer_stem, slot, early, edge_hw
    ):
        """A consumer that starts before its producer finishes makes the replay
        raise, naming the scheduler, both tasks and the slot."""
        workload = AttentionWorkload(batch=1, heads=2, seq_q=64, seq_kv=64, emb=64)
        tiling = TilingConfig(nq=16, nkv=16, kv_resident=True)
        scheduler = make_scheduler(name, edge_hw)
        graph = scheduler.build(workload, tiling).graph
        drop = _drop_racing_dependency(graph, producer_stem, consumer_stem, early)
        assert drop, f"no {producer_stem} -> {consumer_stem} drop races in the {name} graph"
        producer, consumer = drop
        q, k, v = make_qkv(workload, dtype=np.float64)
        with pytest.raises(ReplayError) as error:
            replay(scheduler, workload, tiling, q, k, v, graph=graph)
        message = str(error.value)
        assert message.startswith(f"{name}: {consumer.name} starts at cycle ")
        assert f" L1[c{producer.tags['core']}].{slot}[" in message
        if early:
            assert f" before {producer.name} writes it " in message
        else:
            assert f" whose latest write {producer.name} finishes " in message

    def test_duplicated_stream_is_caught(self, edge_hw, monkeypatch):
        """MAS's PV tile stream emitted twice (its resident V loads once) rewrites
        a live accumulator slot: the replay names both writers by task id, since
        they share a name."""
        from repro.schedulers.mas import _MASCoreEmitter

        emit_pv = _MASCoreEmitter._emit_pv

        def emit_pv_twice(self, *args):
            emit_pv(self, *args)
            return emit_pv(self, *args)

        monkeypatch.setattr(_MASCoreEmitter, "_emit_pv", emit_pv_twice)
        workload = AttentionWorkload(batch=1, heads=2, seq_q=64, seq_kv=64, emb=16)
        q, k, v = make_qkv(workload, dtype=np.float64)
        with pytest.raises(ReplayError) as error:
            tiling = TilingConfig(nq=16, nkv=16, kv_resident=True)
            replay(make_scheduler("mas", edge_hw), workload, tiling, q, k, v)
        message = str(error.value)
        assert message.startswith("mas: task ")
        assert " writes L1[c0].O[b0,PV0..0] at cycle " in message
        assert message.count("mas.c0.PV0.g0r0") == 2

    def test_shape_validation(self, edge_hw):
        workload = AttentionWorkload(batch=1, heads=2, seq_q=96, seq_kv=96, emb=16)
        q, k, v = make_qkv(workload)
        with pytest.raises(ValueError):
            replay(make_scheduler("flat", edge_hw), workload, TilingConfig(), q[0], k, v)


class TestGoldenCheck:
    @pytest.mark.parametrize(
        "heads,seq,emb,tolerance",
        [(2, 64, 16, 1e-4), (2, 512, 64, 1e-3)],
        # The second is the paper's Section-5.1 validation on a BERT-like shape
        # (head count reduced to keep the replay fast).
        ids=["tiny", "bert-like"],
    )
    def test_golden_check_passes_for_all_schedulers(self, heads, seq, emb, tolerance):
        workload = AttentionWorkload.self_attention(heads=heads, seq=seq, emb=emb)
        result = golden_check(workload, tolerance=tolerance)
        assert result.passed, result.summary()
        assert set(result.max_errors) == set(list_schedulers())
        assert result.failures() == {}

    def test_golden_check_reports_failures(self, tiny_workload, monkeypatch):
        """A replay that disagrees with the reference is caught by the check."""

        def broken(scheduler, *args):
            out = replay(scheduler, *args)
            return out + 1.0 if scheduler.name == "flat" else out

        monkeypatch.setattr(golden, "replay", broken)
        result = golden_check(tiny_workload)
        assert not result.passed
        assert set(result.failures()) == {"flat"}
        assert "FAIL" in result.summary()

    def test_golden_check_respects_tiling(self, tiny_workload):
        tiling = TilingConfig(nq=16, nkv=16)
        result = golden_check(tiny_workload, tiling=tiling)
        assert result.tiling.nq == 16 and result.passed

    def test_make_qkv_deterministic(self, tiny_workload):
        q1, k1, v1 = make_qkv(tiny_workload, seed=42)
        q2, k2, v2 = make_qkv(tiny_workload, seed=42)
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(k1, k2)
        np.testing.assert_array_equal(v1, v2)
        assert q1.shape == (1, tiny_workload.heads, tiny_workload.seq_q, tiny_workload.emb)
