"""Graph keys: tilings with equal keys build identical graphs, so a search
simulates each key once.

:meth:`AttentionScheduler.graph_key` is the part of a clamped tiling that a
build reads.  Its only reduction is ``kv_resident``: with one row block per
head group no block reuses a resident load, so the flag changes nothing,
unless MAS's resident footprint overflows L1 (its overwrite planner and its
serialize-on-overflow fallback read the flag then).  The tests check every
tiling against its ``kv_resident`` sibling: when the keys are equal the two
graphs must match in every column, resource name, name and tags dict, and
simulate to equal cycles and energy.  The cases are the golden grid (every
scheduler, MAS with overwriting on and off, each at the device's L1 and at
one MAS overflows), a decode shape at two L1 sizes MAS overflows, and
hypothesis draws on both edge presets.  A key that drops ``kv_resident``
everywhere, or MAS without its overflow clause, fails the check.

The search side: with ``graph_key`` patched to the whole tiling nothing is
shared, and GA, MCTS and ``mcts+ga`` on a decode workload (``seq_q = 1``)
keep every history record, best tiling and evaluation count, and simulate
exactly the candidates they simulated or shared before.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.core.overwrite import InfeasibleTilingError
from repro.core.tiling import TilingConfig, mas_footprint_bytes, mas_non_evictable_bytes
from repro.hardware.presets import constrained_edge_device, simulated_edge_device
from repro.schedulers import AttentionScheduler, MASAttentionScheduler, make_scheduler
from repro.search import AutoTuner
from repro.workloads.attention import AttentionWorkload
from test_graph_golden import CASES, SHAPES, VARIANTS, _overflow_l1
from test_properties import coarse_tilings, workloads
from test_stamping import assert_same_graph


def _dropped_kv_resident(scheduler, workload, tiling) -> tuple:
    """A faulty key: ``kv_resident`` never counts."""
    return (tiling.bb, tiling.hh, tiling.nq, tiling.nkv)


def check_sibling(scheduler, workload, tiling, key=None) -> bool:
    """If ``tiling`` and its ``kv_resident`` sibling have equal keys (by
    ``key``, the scheduler's ``graph_key`` by default), assert that they build
    identical graphs that simulate to equal cycles and energy.  Returns
    whether the keys were equal."""
    key = key or type(scheduler).graph_key
    tiling = tiling.clamp_to(workload)
    sibling = replace(tiling, kv_resident=not tiling.kv_resident)
    if key(scheduler, workload, tiling) != key(scheduler, workload, sibling):
        return False
    try:
        built = scheduler.build(workload, tiling).graph
    except InfeasibleTilingError:
        with pytest.raises(InfeasibleTilingError):
            scheduler.build(workload, sibling)
        return True
    assert_same_graph(built, scheduler.build(workload, sibling).graph)
    result, other = scheduler.simulate(workload, tiling), scheduler.simulate(workload, sibling)
    assert (result.cycles, result.energy_pj) == (other.cycles, other.energy_pj)
    return True


def _scheduler(variant: str, hardware):
    name, options = VARIANTS[variant]
    return make_scheduler(name, hardware, **options)


def check_golden(variant: str, key=None) -> tuple[int, int]:
    """:func:`check_sibling` on every golden case of ``variant`` whose tiling
    streams K/V (its sibling is the resident one); returns how many pairs had
    equal and different keys."""
    equal = different = 0
    for _, case_variant, shape, tiling, l1 in CASES:
        if case_variant != variant or tiling.kv_resident:
            continue
        scheduler = _scheduler(variant, simulated_edge_device().with_l1_bytes(l1))
        if check_sibling(scheduler, SHAPES[shape][0], tiling, key):
            equal += 1
        else:
            different += 1
    return equal, different


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_equal_keys_build_identical_golden_graphs(variant):
    equal, different = check_golden(variant)
    # The decode shape (seq_q = 1) gives equal keys; multi-row blocks do not.
    assert equal > 0 and different > 0


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_a_key_that_drops_kv_resident_fails(variant):
    with pytest.raises(AssertionError):
        check_golden(variant, key=_dropped_kv_resident)


#: A decode shape with four blocks per core, where overwrite events and
#: the serialized fallback both show, streaming K/V in tiles of 16 rows.
MAS_DECODE = AttentionWorkload(batch=1, heads=8, seq_q=1, seq_kv=64, emb=16)
MAS_STREAMED = TilingConfig(bb=1, hh=1, nq=1, nkv=16)


def _mas_l1s() -> dict[str, int]:
    """An L1 where only the resident sibling overflows, and one where both
    do, by different amounts."""
    streamed = mas_footprint_bytes(MAS_DECODE, MAS_STREAMED)
    resident = mas_footprint_bytes(MAS_DECODE, replace(MAS_STREAMED, kv_resident=True))
    non_evictable = mas_non_evictable_bytes(MAS_DECODE, MAS_STREAMED)
    assert streamed < resident
    return {"resident-only": streamed, "both": (non_evictable + streamed) // 2}


@pytest.mark.parametrize("overflow", ["resident-only", "both"])
@pytest.mark.parametrize("variant", ["mas", "mas-no-overwrite"])
def test_mas_keeps_kv_resident_when_its_resident_footprint_overflows(variant, overflow):
    """With one row block per head group the keys still differ once the
    resident footprint overflows L1."""
    scheduler = _scheduler(variant, simulated_edge_device().with_l1_bytes(_mas_l1s()[overflow]))
    assert MAS_STREAMED.num_row_blocks(MAS_DECODE) == 1
    assert not check_sibling(scheduler, MAS_DECODE, MAS_STREAMED)


@pytest.mark.parametrize("variant", ["mas", "mas-no-overwrite"])
def test_mas_without_its_overflow_clause_fails(variant):
    """Where only the resident sibling overflows, it plans overwrites (or
    serializes) and the streamed one does not: the default key alone
    would share their simulations."""
    hardware = simulated_edge_device().with_l1_bytes(_mas_l1s()["resident-only"])
    with pytest.raises(AssertionError):
        check_sibling(
            _scheduler(variant, hardware), MAS_DECODE, MAS_STREAMED, AttentionScheduler.graph_key
        )


@given(workloads(), coarse_tilings())
@settings(max_examples=25, deadline=None)
def test_equal_keys_build_identical_graphs(workload, tiling):
    """On both edge presets, and for MAS also at an L1 it overflows."""
    for hardware in (simulated_edge_device(), constrained_edge_device()):
        for variant, (name, _) in VARIANTS.items():
            check_sibling(_scheduler(variant, hardware), workload, tiling)
            if name == "mas":
                overflow = hardware.with_l1_bytes(_overflow_l1(workload, tiling))
                check_sibling(_scheduler(variant, overflow), workload, tiling)


# --------------------------------------------------------------------------- #
# The search: sharing changes no result and skips every repeated simulation
# --------------------------------------------------------------------------- #
DECODE = AttentionWorkload(batch=1, heads=8, seq_q=1, seq_kv=512, emb=64, name="decode")


def _whole_tiling(scheduler, workload, tiling) -> tuple:
    """A key that turns sharing off: no two tilings share one."""
    return (tiling.bb, tiling.hh, tiling.nq, tiling.nkv, tiling.kv_resident)


def _tune(strategy: str, name: str, monkeypatch) -> tuple[object, list[tuple]]:
    """Tune ``name`` on the decode workload; also return the graph key of
    every tiling ``AttentionScheduler.simulate`` was called with."""
    simulated: list[tuple] = []
    simulate = AttentionScheduler.simulate

    def counting(self, workload, tiling=None):
        simulated.append(self.graph_key(workload, tiling.clamp_to(workload)))
        return simulate(self, workload, tiling)

    with monkeypatch.context() as patch:
        patch.setattr(AttentionScheduler, "simulate", counting)
        result = AutoTuner(simulated_edge_device(), strategy=strategy, budget=40).tune(
            name, DECODE
        )
    return result, simulated


def _rows(result) -> list[tuple]:
    return [
        (rec.iteration, rec.tiling, rec.value, rec.best_value, rec.phase)
        for rec in result.history.records
    ]


@pytest.mark.parametrize("name", ["mas", "flat"])
@pytest.mark.parametrize("strategy", ["ga", "mcts", "mcts+ga"])
def test_sharing_changes_no_search_result(strategy, name, monkeypatch):
    shared, calls = _tune(strategy, name, monkeypatch)
    with monkeypatch.context() as patch:
        for cls in (AttentionScheduler, MASAttentionScheduler):
            patch.setattr(cls, "graph_key", _whole_tiling)
        unshared, unshared_calls = _tune(strategy, name, monkeypatch)

    assert _rows(shared) == _rows(unshared)
    assert shared.best_tiling == unshared.best_tiling
    assert shared.objective_evaluations == unshared.objective_evaluations
    stats, unshared_stats = shared.analytic_stats, unshared.analytic_stats
    assert stats["num_shared"] > 0 and unshared_stats["num_shared"] == 0
    assert stats["num_simulated"] + stats["num_shared"] == unshared_stats["num_simulated"]
    for counter in ("num_infeasible", "num_pruned"):
        assert stats[counter] == unshared_stats[counter]
    # Every simulate call is counted as simulated, and no graph key is
    # simulated twice: a shared candidate never calls simulate.
    assert len(calls) == stats["num_simulated"] == len(set(calls))
    assert len(unshared_calls) == unshared_stats["num_simulated"]
