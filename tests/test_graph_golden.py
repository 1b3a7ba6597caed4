"""Golden task graphs: every builder's output is pinned task for task.

Each case builds one scheduler's graph for a small shape, tiling and L1 size
and compares it with ``tests/graph_golden.json``:

* the task count;
* a SHA-256 over every task's (kind, resource, cycles, deps, counters) in
  emission order;
* a SHA-256 over every task's formatted name and sorted tags, in emission
  order;
* a SHA-256 over the simulated (start, finish) of every task.

The same schedule also passes :func:`repro.sim.check.check_schedule`, and
the object-based oracle engine (``sim_oracle.py``) gives every task the same
(start, finish), the graph the same makespan and counters, and every resource
the same figures.  Each case's graph also replays
(:func:`repro.numerics.replay.replay`) to the reference attention within 1e-9
in float64.

The grid covers every registered scheduler plus MAS with the overwrite
strategy disabled, partial row-blocks and K/V tiles, remainder head groups
(cut in heads, and in batch and heads), one block per core, uneven blocks
across cores, an idle core and both ``kv_resident`` settings.  Each case runs
at the device's L1 and at an L1 small enough for MAS to overflow, which
exercises its overwrite events (K and V victims) and, with overwriting
disabled, its serialized fallback, also at one row block per head group (a
decode shape with four blocks per core).

The JSON is the builders' contract.  A change meant to alter graphs
regenerates it and says why::

    PYTHONPATH=src python tests/test_graph_golden.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from heapq import heappush
from pathlib import Path

import numpy as np
import pytest

from repro.core.tiling import TilingConfig, mas_non_evictable_bytes, operand_tile_bytes
from repro.hardware.presets import simulated_edge_device
from repro.numerics.golden import make_qkv
from repro.numerics.reference import reference_attention
from repro.numerics.replay import replay
from repro.schedulers import AttentionScheduler, list_schedulers, make_scheduler
from repro.sim import engine
from repro.sim.check import check_schedule
from repro.sim.engine import simulate_graph
from repro.sim.tasks import TaskGraph
from repro.sim.trace import Trace
from repro.workloads.attention import AttentionWorkload
from sim_oracle import assert_matches_oracle

GOLDEN_PATH = Path(__file__).with_name("graph_golden.json")

COUNTERS = (
    "dram_bytes_read",
    "dram_bytes_written",
    "l1_bytes_read",
    "l1_bytes_written",
    "l0_bytes_read",
    "l0_bytes_written",
    "mac_ops",
    "vec_ops",
)

#: Scheduler variants: every registered dataflow plus the overwrite ablation.
VARIANTS: dict[str, tuple[str, dict[str, bool]]] = {
    **{name: (name, {}) for name in list_schedulers()},
    "mas-no-overwrite": ("mas", {"enable_overwrite": False}),
}

#: name -> (workload, two (bb, hh, nq, nkv) tilings); each tiling also runs
#: with ``kv_resident`` both ways.
SHAPES: dict[str, tuple[AttentionWorkload, tuple[tuple[int, int, int, int], ...]]] = {
    # 3 problems: hh=2 leaves a remainder group; nq/nkv leave partial tiles;
    # hh=1 puts two head groups on core 0 and one on core 1.
    "ragged": (
        AttentionWorkload(batch=1, heads=3, seq_q=80, seq_kv=80, emb=16),
        ((1, 2, 32, 24), (1, 1, 8, 32)),
    ),
    # Cross-attention: one block per core, then every block on core 0.
    "cross": (
        AttentionWorkload(batch=2, heads=1, seq_q=40, seq_kv=72, emb=32),
        ((1, 1, 40, 72), (2, 1, 16, 32)),
    ),
    # GQA folded to a dense shape: six blocks per core, then three on one core.
    "gqa": (
        AttentionWorkload.gqa(q_heads=4, kv_heads=2, seq=24, emb=16),
        ((1, 1, 8, 8), (1, 2, 20, 16)),
    ),
    # Decode step (seq_q = 1): two blocks per core, then one.
    "decode": (
        AttentionWorkload(batch=1, heads=4, seq_q=1, seq_kv=64, emb=16),
        ((1, 1, 1, 16), (1, 3, 1, 64)),
    ),
    # Decode step with four blocks per core, then two: at one row block per
    # head group, MAS overwrites and its no-overwrite variant serializes.
    "decode4": (
        AttentionWorkload(batch=1, heads=8, seq_q=1, seq_kv=64, emb=16),
        ((1, 1, 1, 16), (1, 2, 1, 32)),
    ),
    # 6 problems: hh=2 cuts every batch's heads 2+1, so groups cover 2, 1, 2, 1
    # problems (bb=1) or 4, 2 (bb=2); partial row-blocks and K/V tiles.
    "batched": (
        AttentionWorkload(batch=2, heads=3, seq_q=40, seq_kv=48, emb=16),
        ((1, 2, 16, 24), (2, 2, 24, 32)),
    ),
}


def _tilings(factors: tuple[tuple[int, int, int, int], ...]) -> list[TilingConfig]:
    return [
        TilingConfig(bb=bb, hh=hh, nq=nq, nkv=nkv, kv_resident=resident)
        for bb, hh, nq, nkv in factors
        for resident in (False, True)
    ]


def _overflow_l1(workload: AttentionWorkload, tiling: TilingConfig) -> int:
    """An L1 that holds MAS's non-evictable bytes plus half its resident K/V."""
    tiling = tiling.clamp_to(workload)
    tiles = operand_tile_bytes(workload, tiling)
    kv = tiles["k_full"] + tiles["v_full"] if tiling.kv_resident else tiles["k"] + tiles["v"]
    return int(mas_non_evictable_bytes(workload, tiling)) + int(kv) // 2


def _tiling_id(tiling: TilingConfig) -> str:
    resident = "res" if tiling.kv_resident else "stream"
    return f"bb{tiling.bb}-hh{tiling.hh}-nq{tiling.nq}-nkv{tiling.nkv}-{resident}"


def _cases() -> list[tuple[str, str, str, TilingConfig, int]]:
    """(case id, variant, shape, tiling, l1 bytes) for the whole grid."""
    device_l1 = simulated_edge_device().l1_bytes
    cases = []
    for shape, (workload, factors) in SHAPES.items():
        for tiling in _tilings(factors):
            for l1 in (device_l1, _overflow_l1(workload, tiling)):
                for variant in VARIANTS:
                    case_id = f"{variant}/{shape}/{_tiling_id(tiling)}/l1={l1}"
                    cases.append((case_id, variant, shape, tiling, l1))
    return cases


CASES = _cases()


def _scheduler(variant: str, l1: int) -> AttentionScheduler:
    name, options = VARIANTS[variant]
    return make_scheduler(name, simulated_edge_device().with_l1_bytes(l1), **options)


def build_case(variant: str, shape: str, tiling: TilingConfig, l1: int) -> TaskGraph:
    """The task graph of one case."""
    return _scheduler(variant, l1).build(SHAPES[shape][0], tiling).graph


def digest_case(graph: TaskGraph, trace: Trace) -> dict[str, object]:
    """A case's task count and the digests of its graph, of its task names and
    tags, and of its schedule ``trace``."""
    graph_sha = hashlib.sha256()
    labels_sha = hashlib.sha256()
    for task in graph:
        row = [task.kind.value, task.resource, task.cycles, list(task.deps)]
        row += [getattr(task, counter) for counter in COUNTERS]
        graph_sha.update(json.dumps(row).encode())
        labels_sha.update(json.dumps([task.name, sorted(task.tags.items())]).encode())
    schedule_sha = hashlib.sha256()
    for record in trace.records:
        schedule_sha.update(f"{record.start},{record.finish};".encode())
    return {
        "tasks": len(graph),
        "graph": graph_sha.hexdigest(),
        "labels": labels_sha.hexdigest(),
        "schedule": schedule_sha.hexdigest(),
    }


@lru_cache(maxsize=1)
def _golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def test_golden_covers_the_grid():
    assert sorted(_golden()) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize(
    "case_id, variant, shape, tiling, l1", CASES, ids=[case[0] for case in CASES]
)
def test_graph_matches_golden(case_id, variant, shape, tiling, l1):
    expected = _golden().get(case_id)
    assert expected is not None, f"{case_id}: no golden entry; regenerate {GOLDEN_PATH.name}"
    graph = build_case(variant, shape, tiling, l1)
    trace = simulate_graph(graph)
    found = digest_case(graph, trace)
    for field in ("tasks", "graph", "labels", "schedule"):
        assert found[field] == expected[field], (
            f"{case_id}: {field} differs from the golden graph "
            f"(expected {expected[field]}, found {found[field]})"
        )
    check_schedule(graph, trace)
    assert_matches_oracle(graph, trace)


@pytest.mark.parametrize(
    "case_id, variant, shape, tiling, l1", CASES, ids=[case[0] for case in CASES]
)
def test_graph_replays_to_reference(case_id, variant, shape, tiling, l1):
    workload = SHAPES[shape][0]
    q, k, v = make_qkv(workload, dtype=np.float64)
    output = replay(_scheduler(variant, l1), workload, tiling, q, k, v)
    error = float(np.max(np.abs(output - reference_attention(q, k, v))))
    assert error <= 1e-9, f"{case_id}: replay is {error:.3e} off the reference"


def test_staged_graphs_walk_their_phases(monkeypatch):
    """Every barrier that stops the engine's walk through a golden Layer-Wise,
    Soft-Pipe or TileFlow graph closes its phase: the phased walk never hands
    the graph back to the single walk, and it defers no more descriptors to
    the DMA's heap than the single walk does, and fewer over each variant."""
    deferred = [0]

    def count(heap: list[tuple[int, int]], item: tuple[int, int]) -> None:
        deferred[0] += 1
        heappush(heap, item)

    def deferrals(graph: TaskGraph, phased: bool) -> int:
        deferred[0] = 0
        assert engine._schedule(graph, phased) is not None, f"{graph.name} fell back"
        return deferred[0]

    monkeypatch.setattr(engine, "heappush", count)
    totals: dict[str, list[int]] = {"layerwise": [0, 0], "softpipe": [0, 0], "tileflow": [0, 0]}
    for case_id, variant, *rest in CASES:
        if variant in totals:
            graph = build_case(variant, *rest)
            phased, single = deferrals(graph, True), deferrals(graph, False)
            assert phased <= single, case_id
            totals[variant][0] += phased
            totals[variant][1] += single
    for variant, (phased, single) in totals.items():
        assert phased < single, f"{variant}: the walk crossed no phase"


def test_decode_grid_overwrites_and_serializes():
    """At its overflow L1, the four-blocks-per-core decode shape (``hh=1``,
    either ``kv_resident``) gives MAS overwrite events and its no-overwrite
    variant serialized blocks, so the grid pins both at one row block per
    head group."""
    workload, factors = SHAPES["decode4"]
    for tiling in _tilings(factors[:1]):
        l1 = _overflow_l1(workload, tiling)
        scheduler = _scheduler("mas", l1)
        mas = scheduler.build(workload, tiling).metadata
        serialized = _scheduler("mas-no-overwrite", l1).build(workload, tiling).metadata
        blocks_per_core = [len(blocks) for blocks in scheduler.blocks(workload, tiling)]
        assert (blocks_per_core, mas["num_overwrites"]) == ([4, 4], 4)
        assert serialized["serialized_blocks"] == 10


def main() -> None:
    """Regenerate the golden file from the builders in ``src``."""
    cases = {}
    for case_id, *rest in CASES:
        graph = build_case(*rest)
        cases[case_id] = digest_case(graph, simulate_graph(graph))
    GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
