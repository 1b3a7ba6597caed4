"""Tests for the vectorized analytic cost layer and its search integration.

Three contracts are pinned down here:

* **no drift** — the batched closed forms in :mod:`repro.core.analytic` total
  to exactly what the serial :class:`~repro.core.costs.TileCosts` accounting
  sums to, block by block;
* **valid bounds** — for every registered scheduler, the ``analytic_bounds``
  cycle/energy figures never exceed what the simulator reports, and only
  MAS's build ever rejects a tiling, exactly where its ``fits`` says no;
* **bit-identical search** — the unpruned oracle path
  (``SchedulerObjective(analytic_prune=False)``) never bounds anything: memo
  state, evaluation counts, history rows and the best tiling all match the
  serial, memoized :meth:`~repro.search.objective.SchedulerObjective.evaluate`
  oracle; on the pruned default a rejected candidate is never pruned, a pruned
  one can never be reported as the winner, and the one-call bound table
  gives every search exactly what per-batch bound calls gave it.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.analytic import TilingBatch, batched_cost_model
from repro.core.costs import TileCosts, partition_blocks
from repro.core.overwrite import InfeasibleTilingError
from repro.core.tiling import TilingConfig
from repro.hardware.presets import get_preset
from repro.schedulers.base import AttentionScheduler
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.search import autotuner
from repro.search.autotuner import AutoTuner
from repro.search.objective import SchedulerObjective
from repro.search.space import TilingSearchSpace
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


@pytest.fixture(params=[2, 3], ids=["heads2", "heads3"])
def batch_workload(request) -> AttentionWorkload:
    """Batched + ragged in every dimension: ``bb=2`` leaves a one-batch remainder,
    and with three heads ``hh=2`` leaves a one-head remainder too, so a tiling
    cutting both has all four group shapes."""
    return AttentionWorkload(
        batch=3, heads=request.param, seq_q=64, seq_kv=96, emb=16, name="batchy"
    )


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

    def test_clamp_matches_scalar_clamp(self, batch_workload):
        batch = TilingBatch.from_tilings(TILINGS).clamp_to(batch_workload)
        for index, tiling in enumerate(TILINGS):
            scalar = tiling.clamp_to(batch_workload)
            assert batch.bb[index] == scalar.bb
            assert batch.hh[index] == scalar.hh
            assert batch.nq[index] == scalar.nq
            assert batch.nkv[index] == scalar.nkv


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
        batch = TilingBatch.from_tilings(TILINGS).clamp_to(batch_workload)
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

    def test_group_shapes_cover_every_problem_once(self, batch_workload, edge_hw):
        model = batched_cost_model(batch_workload, edge_hw)
        structure = model.structure(TilingBatch.from_tilings(TILINGS).clamp_to(batch_workload))
        covered = sum(coverage * count for coverage, count in structure.groups)
        assert (covered == batch_workload.batch * batch_workload.heads).all()

    @pytest.mark.parametrize("hh, shapes", [(4, 1), (5, 2)])
    def test_batch_one_drops_shapes_no_candidate_has(self, edge_hw, hh, shapes):
        """Batch 1 never cuts a batch remainder; ``hh=4`` divides 12 heads, ``hh=5`` does not."""
        workload = AttentionWorkload(batch=1, heads=12, seq_q=64, seq_kv=64, emb=16)
        batch = TilingBatch.from_tilings([TilingConfig(hh=hh), TilingConfig(hh=1)])
        structure = batched_cost_model(workload, edge_hw).structure(batch.clamp_to(workload))
        assert len(structure.groups) == shapes

    def test_model_is_memoized_per_workload_and_hardware(self, batch_workload, edge_hw):
        assert batched_cost_model(batch_workload, edge_hw) is batched_cost_model(
            batch_workload, edge_hw
        )


# --------------------------------------------------------------------------- #
# Valid bounds: every scheduler, feasibility + cycles/energy
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(ALL_SCHEDULERS))
class TestAnalyticBounds:
    def test_fits_is_the_feasibility_rule(self, name, batch_workload, tiny_hw):
        """Only MAS's build ever rejects a tiling, exactly where its ``fits``
        says no; a baseline's ``fits`` is its footprint against L1."""
        scheduler = make_scheduler(name, tiny_hw)
        for tiling in TILINGS:
            clamped = tiling.clamp_to(batch_workload)
            fits = scheduler.fits(batch_workload, clamped)
            if name != "mas":
                footprint = scheduler.footprint_bytes(batch_workload, clamped)
                assert fits == (footprint <= tiny_hw.l1_bytes)
            try:
                scheduler.simulate(batch_workload, tiling)
            except InfeasibleTilingError:
                assert name == "mas" and not fits
            else:
                assert fits or name != "mas"

    @pytest.mark.parametrize("hw_fixture", ["edge_hw", "tiny_hw"])
    def test_bounds_never_exceed_simulation(self, name, hw_fixture, batch_workload, request):
        hardware = request.getfixturevalue(hw_fixture)
        scheduler = make_scheduler(name, hardware)
        bounds = scheduler.analytic_bounds(batch_workload, TILINGS)
        assert len(bounds) == len(TILINGS)
        for index, tiling in enumerate(TILINGS):
            try:
                result = scheduler.simulate(batch_workload, tiling)
            except InfeasibleTilingError:
                continue
            assert bounds.cycles[index] <= result.cycles
            assert bounds.energy_pj[index] <= result.energy_pj


# --------------------------------------------------------------------------- #
# evaluate_batch accounting (regression: memo/count drift)
# --------------------------------------------------------------------------- #
def _objective(name, hardware, workload):
    return SchedulerObjective(make_scheduler(name, hardware), workload, analytic_prune=False)


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

    def test_duplicates_and_memoized_match_serial_evaluate(
        self, tiny_hw, small_workload, monkeypatch
    ):
        # Pre-memoize a couple of candidates, then hand evaluate_batch a batch
        # with duplicates, already-memoized tilings, footprint-infeasible and
        # hard-infeasible candidates — for every scheduler.  Without pruning
        # nothing is bounded: a call to the bounds fails.
        def no_bounds(self, workload, tilings):
            raise AssertionError("an unpruned search computed analytic bounds")

        monkeypatch.setattr(AttentionScheduler, "analytic_bounds", no_bounds)
        warm = [FITS[0], HARD_INFEASIBLE[0]]
        batch = (
            warm + FITS + OVER_L1 + HARD_INFEASIBLE
            + [FITS[1], HARD_INFEASIBLE[0], OVER_L1[0], FITS[1]]
        )
        for name in ALL_SCHEDULERS:
            oracle = _objective(name, tiny_hw, small_workload)
            batched = _objective(name, tiny_hw, small_workload)
            for tiling in warm:
                oracle.evaluate(tiling)
                batched.evaluate(tiling)
            got = batched.evaluate_batch(batch)
            expected = [oracle.evaluate(tiling) for tiling in batch]

            assert [_scalars(e) for e in got] == [_scalars(e) for e in expected], name
            assert list(batched._cache) == list(oracle._cache), name
            assert batched.num_evaluations == oracle.num_evaluations, name
            for counter in ("num_simulated", "num_shared", "num_infeasible", "num_pruned"):
                assert batched.analytic_stats[counter] == oracle.analytic_stats[counter], name
            # Every scheduler rejects something here and simulates the rest.
            assert oracle.analytic_stats["num_infeasible"] > 0, name
            assert oracle.analytic_stats["num_simulated"] > 0, name

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
    def test_pruned_batch_never_prunes_a_reject(self, tiny_hw, small_workload):
        """The mixed batch of ``TestEvaluateBatchAccounting`` under pruning:
        every candidate the scheduler cannot run comes back rejected
        (infeasible, unpruned, infinite), never pruned."""
        # FITS[-1] is every scheduler's fastest fitting candidate here, so the
        # incumbent it sets prunes some of the others.
        warm = [FITS[-1], HARD_INFEASIBLE[0]]
        batch = (
            warm + FITS + OVER_L1 + HARD_INFEASIBLE
            + [FITS[1], HARD_INFEASIBLE[0], OVER_L1[0], FITS[1]]
        )
        for name in ALL_SCHEDULERS:
            # Overwriting lets MAS run the L1-overflowing tiling; the
            # baselines reject it like the hard-infeasible one.
            rejected = HARD_INFEASIBLE if name == "mas" else OVER_L1 + HARD_INFEASIBLE
            objective = SchedulerObjective(make_scheduler(name, tiny_hw), small_workload)
            for tiling in warm:
                objective.evaluate(tiling)
            got = objective.evaluate_batch(batch)
            for tiling, evaluation in zip(batch, got):
                if tiling in rejected:
                    assert not evaluation.feasible, (name, tiling)
                    assert not evaluation.pruned, (name, tiling)
                    assert evaluation.value == float("inf"), (name, tiling)
            stats = objective.analytic_stats
            assert stats["num_infeasible"] == len(rejected), name
            assert stats["num_pruned"] > 0, name
            assert (
                stats["num_simulated"] + stats["num_shared"] + stats["num_infeasible"]
                + stats["num_pruned"]
                == objective.num_evaluations
            ), name


    @pytest.mark.parametrize("name", list(ALL_SCHEDULERS))
    def test_value_is_cycles_or_the_cycle_bound(self, name, tiny_hw, small_workload):
        """The search minimises cycles: a simulated candidate's value is its
        cycle count, a pruned one's the cycle bound ``analytic_bounds`` gives
        that tiling alone, and a rejected one's is infinite."""
        scheduler = make_scheduler(name, tiny_hw)
        objective = SchedulerObjective(scheduler, small_workload)
        objective.evaluate(FITS[-1])  # the incumbent that prunes the others
        got = objective.evaluate_batch(FITS + OVER_L1 + HARD_INFEASIBLE)
        assert any(e.pruned for e in got) and any(e.feasible for e in got), name
        for evaluation in got:
            if evaluation.feasible:
                assert evaluation.value == float(evaluation.cycles), name
            elif evaluation.pruned:
                bound = scheduler.analytic_bounds(small_workload, [evaluation.tiling])
                assert evaluation.value == float(bound.cycles[0]), (name, evaluation.tiling)
            else:
                assert evaluation.value == float("inf"), (name, evaluation.tiling)

    def test_pruned_candidates_are_marked_and_counted(self, edge_hw, tiny_workload):
        objective = SchedulerObjective(make_scheduler("mas", edge_hw), tiny_workload)
        evaluations = objective.evaluate_batch(TILINGS)
        stats = objective.analytic_stats
        assert (
            stats["num_simulated"] + stats["num_shared"] + stats["num_infeasible"]
            + stats["num_pruned"]
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

    def test_pruned_candidate_never_wins_a_search(self, edge_hw, tiny_workload):
        tuner = AutoTuner(edge_hw, strategy="ga", budget=40, seed=0)
        result = tuner.tune("mas", tiny_workload)
        assert np.isfinite(result.best_value)
        assert result.history.best is not None
        assert result.history.best.feasible and not result.history.best.pruned
        stats = result.analytic_stats
        assert stats is not None
        assert stats["num_pruned"] > 0, "the tiny search should prune something"

    @pytest.mark.parametrize("scheduler", ["mas", "flat"])
    def test_unpruned_search_bit_identical_to_serial_oracle(
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

        # The unpruned batch path: every objective the tuner makes is the oracle.
        monkeypatch.setattr(
            autotuner, "SchedulerObjective", partial(SchedulerObjective, analytic_prune=False)
        )
        batched = tune()
        # The oracle search: every batch goes through the serial memoized
        # evaluate() instead of evaluate_batch.
        monkeypatch.setattr(
            SchedulerObjective,
            "evaluate_batch",
            lambda self, tilings: [self.evaluate(tiling) for tiling in tilings],
        )
        serial = tune()

        assert batched.best_tiling == serial.best_tiling
        assert batched.best_value == serial.best_value
        assert rows(batched) == rows(serial)
        assert batched.objective_evaluations == serial.objective_evaluations
        assert batched.analytic_stats == serial.analytic_stats
        assert batched.analytic_stats["num_pruned"] == 0


# --------------------------------------------------------------------------- #
# The bound table: one analytic_bounds call per search
# --------------------------------------------------------------------------- #
#: A remainder in every dimension: 3 % 2 batches, 12 % 8 heads, 197 rows and
#: K/V columns left over by every power-of-two tile.
RAGGED = AttentionWorkload(batch=3, heads=12, seq_q=197, seq_kv=197, emb=64, name="ragged")
#: Off every grid: ``hh=3`` and ``nq=100`` are no candidates of any space.
OFF_GRID = [
    TilingConfig(bb=2, hh=3, nq=100, nkv=50, kv_resident=True),
    TilingConfig(bb=1, hh=5, nq=197, nkv=90),
]


def _count_bound_calls(monkeypatch) -> list[int]:
    """Record the batch size of every ``analytic_bounds`` call."""
    calls: list[int] = []
    bounds = AttentionScheduler.analytic_bounds

    def counted(self, workload, tilings):
        result = bounds(self, workload, tilings)
        calls.append(len(result))
        return result

    monkeypatch.setattr(AttentionScheduler, "analytic_bounds", counted)
    return calls


def _per_batch_bounds(self, tilings):
    """The old bound path, one ``analytic_bounds`` call per pruned batch."""
    bounds = self.scheduler.analytic_bounds(self.workload, tilings)
    return bounds.cycles.astype(float).tolist()


class TestBoundTable:
    @pytest.mark.parametrize("preset", ["edge-sim", "edge-constrained"])
    @pytest.mark.parametrize("name", list(ALL_SCHEDULERS))
    def test_table_holds_each_tilings_own_bound(self, name, preset, monkeypatch):
        """Every grid point's stored bound equals the cycle bound
        ``analytic_bounds`` gives that tiling alone, and off-grid tilings get
        bounded too: with the grid on the first call, alone on a later one."""
        hardware = get_preset(preset)
        scheduler = make_scheduler(name, hardware)
        space = TilingSearchSpace(RAGGED, hardware)
        grid = list(space.enumerate())
        alone = {
            tiling: scheduler.analytic_bounds(RAGGED, [tiling]) for tiling in grid + OFF_GRID
        }
        calls = _count_bound_calls(monkeypatch)
        objective = SchedulerObjective(scheduler, RAGGED)
        first = objective._value_bounds([OFF_GRID[0], grid[-1]])
        assert calls == [space.size + 1]
        second = objective._value_bounds([grid[0], OFF_GRID[1], OFF_GRID[0]])
        assert calls == [space.size + 1, 1]
        assert len(objective._bounds) == space.size + 2
        for tiling, bounds in alone.items():
            assert objective._bounds[objective._key(tiling)] == float(bounds.cycles[0]), tiling
        assert first == [float(alone[t].cycles[0]) for t in (OFF_GRID[0], grid[-1])]
        assert second[1] == float(alone[OFF_GRID[1]].cycles[0])

    def test_an_on_grid_search_makes_one_bound_call(self, edge_hw, tiny_workload, monkeypatch):
        calls = _count_bound_calls(monkeypatch)
        result = AutoTuner(edge_hw, strategy="mcts+ga", budget=60, seed=0).tune(
            "mas", tiny_workload
        )
        grid = set(TilingSearchSpace(tiny_workload, edge_hw).enumerate())
        searched = [rec.tiling for rec in result.history.records if rec.phase != "default"]
        assert searched and set(searched) <= grid
        assert result.analytic_stats["num_pruned"] > 0
        assert calls == [len(grid)]

    @pytest.mark.parametrize("scheduler", ["mas", "flat"])
    def test_table_search_matches_per_batch_bounds(
        self, scheduler, edge_hw, tiny_workload, monkeypatch
    ):
        """The per-batch bound call is the oracle: the same history rows,
        evaluation count and accounting."""

        def tune():
            tuner = AutoTuner(edge_hw, strategy="mcts+ga", budget=60, seed=0)
            result = tuner.tune(scheduler, tiny_workload)
            rows = [
                (rec.iteration, rec.tiling, rec.value, rec.best_value, rec.phase)
                for rec in result.history.records
            ]
            return rows, result.objective_evaluations, result.analytic_stats

        table = tune()
        monkeypatch.setattr(SchedulerObjective, "_value_bounds", _per_batch_bounds)
        assert table == tune()
        assert table[2]["num_pruned"] > 0
