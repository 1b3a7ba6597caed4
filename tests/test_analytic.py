"""Tests for the vectorized analytic cost layer and its search integration.

Three contracts are pinned down here:

* **no drift** — the batched closed forms in :mod:`repro.core.analytic` total
  to exactly what the serial :class:`~repro.core.costs.TileCosts` accounting
  sums to, block by block;
* **valid bounds** — for every registered scheduler, ``analytic_bounds``
  feasibility agrees with the scalar path and the cycle/energy figures never
  exceed what the simulator reports;
* **bit-identical search** — with pruning disabled (the default) the analytic
  pre-pass changes nothing observable: memo state, evaluation counts, history
  rows and the best tiling all match the serial, memoized
  :meth:`~repro.search.objective.SchedulerObjective.evaluate` oracle, and
  with pruning enabled a pruned candidate can never be reported as the winner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analytic import TilingBatch, as_tiling_batch, batched_cost_model
from repro.core.costs import TileCosts, partition_blocks
from repro.core.overwrite import InfeasibleTilingError
from repro.core.tiling import TilingConfig
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.search.autotuner import AutoTuner
from repro.search.objective import SchedulerObjective
from repro.workloads.attention import AttentionWorkload

#: Candidate tilings covering every remainder case: even divisions, ragged
#: row-blocks, ragged K/V tiles, ragged head groups, both K/V residency modes
#: and factors larger than the workload (exercising the clamp).
TILINGS = [
    TilingConfig(bb=1, hh=1, nq=64, nkv=64, kv_resident=True),
    TilingConfig(bb=1, hh=2, nq=48, nkv=48),
    TilingConfig(bb=2, hh=2, nq=17, nkv=23, kv_resident=True),
    TilingConfig(bb=1, hh=1, nq=9, nkv=64),
    TilingConfig(bb=2, hh=4, nq=64, nkv=5),
    TilingConfig(bb=1, hh=3, nq=33, nkv=31, kv_resident=True),
    TilingConfig(bb=2, hh=1, nq=5, nkv=7),
    TilingConfig(bb=4, hh=8, nq=512, nkv=512, kv_resident=True),
]

#: Candidates on ``tiny_hw`` x ``small_workload``, one list per feasibility
#: class: fits L1 for every scheduler; overflows L1 (rejected by the
#: baselines' footprint check, handled by MAS's overwrite strategy); and
#: overflows even MAS's non-evictable residency (the simulator's hard
#: ``InfeasibleTilingError``, also over L1 for every baseline).
FITS = [
    TilingConfig(bb=1, hh=1, nq=16, nkv=16),
    TilingConfig(bb=1, hh=1, nq=16, nkv=32, kv_resident=True),
    TilingConfig(bb=1, hh=1, nq=16, nkv=64, kv_resident=True),
]
OVER_L1 = [TilingConfig(bb=1, hh=2, nq=32, nkv=64, kv_resident=True)]
HARD_INFEASIBLE = [TilingConfig(bb=1, hh=1, nq=128, nkv=64, kv_resident=True)]


@pytest.fixture
def batch_workload() -> AttentionWorkload:
    """Batched + ragged in every dimension: 3 problems per 2x1 group remainder."""
    return AttentionWorkload(batch=3, heads=2, seq_q=64, seq_kv=96, emb=16, name="batchy")


# --------------------------------------------------------------------------- #
# TilingBatch
# --------------------------------------------------------------------------- #
class TestTilingBatch:
    def test_from_tilings_round_trip(self):
        batch = TilingBatch.from_tilings(TILINGS)
        assert len(batch) == len(TILINGS)
        for index, tiling in enumerate(TILINGS):
            assert batch.bb[index] == tiling.bb
            assert batch.hh[index] == tiling.hh
            assert batch.nq[index] == tiling.nq
            assert batch.nkv[index] == tiling.nkv
            assert batch.kv_resident[index] == tiling.kv_resident
            assert batch.group_size[index] == tiling.group_size

    def test_clamp_matches_scalar_clamp(self, batch_workload):
        batch = TilingBatch.from_tilings(TILINGS).clamp_to(batch_workload)
        for index, tiling in enumerate(TILINGS):
            scalar = tiling.clamp_to(batch_workload)
            assert batch.bb[index] == scalar.bb
            assert batch.hh[index] == scalar.hh
            assert batch.nq[index] == scalar.nq
            assert batch.nkv[index] == scalar.nkv

    def test_as_tiling_batch_is_idempotent(self):
        batch = as_tiling_batch(TILINGS)
        assert as_tiling_batch(batch) is batch


# --------------------------------------------------------------------------- #
# No drift: batched totals == serial TileCosts sums
# --------------------------------------------------------------------------- #
def _serial_totals(workload, hardware, tiling):
    """Sum the serial per-task costs over the whole iteration space.

    Replicates the shared emission rules of every graph builder: Q load and O
    store per block, K/V tiles per group when resident and per block when
    streamed, QK/PV MatMuls per (block, tile), one full softmax per block.
    """
    costs = TileCosts(workload, hardware, tiling)
    blocks = [b for core in partition_blocks(workload, tiling, hardware.num_cores) for b in core]
    mac = vec = dma = 0
    for block in blocks:
        dma += costs.load_q(block).cycles + costs.store_o(block).cycles
        if block.first_in_group or not tiling.kv_resident:
            for tile in range(costs.num_kv_tiles):
                dma += 2 * costs.load_kv_tile(block, tile).cycles
        vec += costs.softmax(block).cycles
        for tile in range(costs.num_kv_tiles):
            mac += costs.qk_tile(block, tile).cycles + costs.pv_tile(block, tile).cycles
    return mac, vec, dma


class TestBatchedTotalsMatchSerial:
    def test_totals_match_tilecosts_sums(self, batch_workload, edge_hw):
        model = batched_cost_model(batch_workload, edge_hw)
        batch = as_tiling_batch(TILINGS).clamp_to(batch_workload)
        structure = model.structure(batch)
        mac = model.mac_cycles(batch, structure)
        vec = model.vec_cycles_full_softmax(structure)
        dma = model.dma_cycles_common(batch, structure)
        for index, tiling in enumerate(TILINGS):
            s_mac, s_vec, s_dma = _serial_totals(
                batch_workload, edge_hw, tiling.clamp_to(batch_workload)
            )
            assert mac[index] == s_mac
            assert vec[index] == s_vec
            assert dma[index] == s_dma

    def test_model_is_memoized_per_workload_and_hardware(self, batch_workload, edge_hw):
        assert batched_cost_model(batch_workload, edge_hw) is batched_cost_model(
            batch_workload, edge_hw
        )


# --------------------------------------------------------------------------- #
# Valid bounds: every scheduler, feasibility + cycles/energy
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(ALL_SCHEDULERS))
class TestAnalyticBounds:
    def test_footprint_and_feasibility_match_scalar_path(self, name, batch_workload, edge_hw):
        scheduler = make_scheduler(name, edge_hw)
        bounds = scheduler.analytic_bounds(batch_workload, TILINGS)
        assert len(bounds) == len(TILINGS)
        for index, tiling in enumerate(TILINGS):
            scalar = tiling.clamp_to(batch_workload)
            assert bounds.footprint_bytes[index] == scheduler.footprint_bytes(
                batch_workload, scalar
            )
            fits = bounds.footprint_bytes[index] <= edge_hw.l1_bytes
            assert fits == scheduler.fits(batch_workload, scalar)

    @pytest.mark.parametrize("hw_fixture", ["edge_hw", "tiny_hw"])
    def test_bounds_never_exceed_simulation(self, name, hw_fixture, batch_workload, request):
        hardware = request.getfixturevalue(hw_fixture)
        scheduler = make_scheduler(name, hardware)
        bounds = scheduler.analytic_bounds(batch_workload, TILINGS)
        for index, tiling in enumerate(TILINGS):
            try:
                result = scheduler.simulate(batch_workload, tiling)
            except InfeasibleTilingError:
                assert bounds.hard_infeasible[index]
                continue
            assert not bounds.hard_infeasible[index]
            assert bounds.cycles[index] <= result.cycles
            assert bounds.energy_pj[index] <= result.energy_pj + 1e-6
            if scheduler.analytic_exact:
                assert bounds.cycles[index] == result.cycles


# --------------------------------------------------------------------------- #
# evaluate_batch accounting (regression: memo/count drift)
# --------------------------------------------------------------------------- #
def _objective(name, hardware, workload, workers=1):
    return SchedulerObjective(
        make_scheduler(name, hardware), workload, workers=workers, analytic_prune=False
    )


def _scalars(evaluation):
    return (
        evaluation.tiling,
        evaluation.feasible,
        evaluation.cycles,
        evaluation.energy_pj,
        evaluation.value,
        evaluation.pruned,
    )


class TestEvaluateBatchAccounting:
    """``evaluate_batch`` against its oracle: a serial ``evaluate()`` loop."""

    def test_duplicates_and_memoized_match_serial_evaluate(self, tiny_hw, small_workload):
        # Pre-memoize a couple of candidates, then hand evaluate_batch a batch
        # with duplicates, already-memoized tilings, footprint-infeasible and
        # hard-infeasible candidates — for every scheduler, inline and pooled.
        warm = [FITS[0], HARD_INFEASIBLE[0]]
        batch = (
            warm + FITS + OVER_L1 + HARD_INFEASIBLE
            + [FITS[1], HARD_INFEASIBLE[0], OVER_L1[0], FITS[1]]
        )
        for name in ALL_SCHEDULERS:
            for workers in (1, 2):
                case = f"{name} workers={workers}"
                oracle = _objective(name, tiny_hw, small_workload)
                batched = _objective(name, tiny_hw, small_workload, workers=workers)
                try:
                    for tiling in warm:
                        oracle.evaluate(tiling)
                        batched.evaluate(tiling)
                    got = batched.evaluate_batch(batch)
                    # At least two candidates survive the pre-pass, so the
                    # pooled case really crosses the process boundary.
                    assert (batched._evaluator._pool is not None) == (workers > 1), case
                finally:
                    batched.close()
                expected = [oracle.evaluate(tiling) for tiling in batch]

                assert [_scalars(e) for e in got] == [_scalars(e) for e in expected], case
                assert list(batched._cache) == list(oracle._cache), case
                assert batched.num_evaluations == oracle.num_evaluations, case
                for counter in ("num_simulated", "num_infeasible", "num_pruned"):
                    assert batched.analytic_stats[counter] == oracle.analytic_stats[counter], case
                # Every scheduler rejects something here and simulates the rest.
                assert oracle.analytic_stats["num_infeasible"] > 0, case
                assert oracle.analytic_stats["num_simulated"] > 0, case

    def test_repeated_batches_do_not_recount(self, edge_hw, tiny_workload):
        analytic = _objective("flat", edge_hw, tiny_workload)
        first = analytic.evaluate_batch(TILINGS[:3])
        count = analytic.num_evaluations
        again = analytic.evaluate_batch(TILINGS[:3] * 2)
        assert analytic.num_evaluations == count
        assert again[:3] == first

    def test_infeasible_short_circuit_counts_as_evaluation(self, tiny_hw, small_workload):
        analytic = _objective("flat", tiny_hw, small_workload)
        oracle = _objective("flat", tiny_hw, small_workload)
        overflowing = TilingConfig(bb=1, hh=4, nq=128, nkv=128, kv_resident=True)
        assert not make_scheduler("flat", tiny_hw).fits(small_workload, overflowing)
        (got,) = analytic.evaluate_batch([overflowing])
        expected = oracle.evaluate(overflowing)
        assert not got.feasible and got.value == float("inf")
        assert got.value == expected.value
        assert analytic.num_evaluations == oracle.num_evaluations == 1
        assert analytic.analytic_stats["num_infeasible"] == 1
        assert analytic.analytic_stats["num_simulated"] == 0


# --------------------------------------------------------------------------- #
# Pruning semantics
# --------------------------------------------------------------------------- #
class TestPruning:
    def test_pruned_candidates_are_marked_and_counted(self, edge_hw, tiny_workload):
        objective = SchedulerObjective(
            make_scheduler("mas", edge_hw), tiny_workload, analytic_prune=True
        )
        evaluations = objective.evaluate_batch(TILINGS)
        stats = objective.analytic_stats
        assert stats["prune"] == 1
        assert (
            stats["num_simulated"] + stats["num_infeasible"] + stats["num_pruned"]
            == objective.num_evaluations
        )
        simulated = [e for e in evaluations if e.feasible]
        pruned = [e for e in evaluations if e.pruned]
        assert simulated, "at least the eventual best must be simulated"
        best = min(e.value for e in simulated if e.feasible)
        for evaluation in pruned:
            assert not evaluation.feasible
            assert np.isfinite(evaluation.value)
            # The stored bound was >= the incumbent when pruned, and the
            # incumbent only ever decreases — so no pruned value beats best.
            assert evaluation.value >= best

    def test_pruned_candidate_never_wins_a_search(self, edge_hw, tiny_workload, monkeypatch):
        monkeypatch.setenv("MAS_ANALYTIC_PRUNE", "1")
        tuner = AutoTuner(edge_hw, strategy="ga", budget=40, seed=0)
        result = tuner.tune("mas", tiny_workload)
        assert np.isfinite(result.best_value)
        assert result.history.best is not None
        assert result.history.best.feasible and not result.history.best.pruned
        stats = result.analytic_stats
        assert stats is not None and stats["prune"] == 1
        assert stats["num_pruned"] > 0, "the tiny search should prune something"

    @pytest.mark.parametrize("scheduler", ["mas", "flat"])
    def test_search_bit_identical_with_analytic_pre_pass(
        self, scheduler, edge_hw, tiny_workload, monkeypatch
    ):
        def rows(result):
            return [
                (rec.iteration, rec.tiling, rec.value, rec.best_value, rec.phase)
                for rec in result.history.records
            ]

        def tune():
            tuner = AutoTuner(edge_hw, strategy="mcts+ga", budget=60, seed=0)
            return tuner.tune(scheduler, tiny_workload)

        monkeypatch.setenv("MAS_ANALYTIC_PRUNE", "0")
        analytic = tune()
        # The oracle search: every batch goes through the serial memoized
        # evaluate() instead of the analytic pre-pass.
        monkeypatch.setattr(
            SchedulerObjective,
            "evaluate_batch",
            lambda self, tilings: [self.evaluate(tiling) for tiling in tilings],
        )
        serial = tune()

        assert analytic.best_tiling == serial.best_tiling
        assert analytic.best_value == serial.best_value
        assert rows(analytic) == rows(serial)
        assert analytic.objective_evaluations == serial.objective_evaluations
        assert analytic.analytic_stats == serial.analytic_stats
        assert analytic.analytic_stats["num_pruned"] == 0
