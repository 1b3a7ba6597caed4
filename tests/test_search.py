"""Unit tests for the tiling search (space, objective, algorithms, auto-tuner)."""

from __future__ import annotations

import gc
import json
import pickle
import weakref

import pytest

from repro.core.tiling import TilingConfig
from repro.obs import trace as obs_trace
from repro.schedulers import FLATScheduler, MASAttentionScheduler, make_scheduler
from repro.search import (
    AutoTuner,
    GeneticSearch,
    GridSearch,
    MCTSSearch,
    RandomSearch,
    SchedulerObjective,
    SearchHistory,
    TilingSearchSpace,
    tune_scheduler,
)
from repro.search import autotuner
from repro.search.autotuner import STRATEGIES
from repro.search.objective import TilingEvaluation
from repro.search.space import DECISIONS
from repro.utils.rng import make_rng
from repro.utils.units import KB
from repro.workloads.attention import AttentionWorkload


@pytest.fixture
def workload():
    return AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="search-wl")


@pytest.fixture
def space(workload, edge_hw):
    return TilingSearchSpace(workload, edge_hw)


@pytest.fixture
def objective(workload, edge_hw):
    return SchedulerObjective(MASAttentionScheduler(edge_hw), workload)


class TestSearchSpace:
    def test_candidates_respect_workload_dims(self, space, workload):
        assert max(space.candidates("nq")) == workload.seq_q
        assert max(space.candidates("nkv")) == workload.seq_kv
        assert max(space.candidates("hh")) == workload.heads
        assert set(space.candidates("kv_resident")) == {False, True}

    def test_size_is_product_of_dims(self, space):
        expected = 1
        for decision in DECISIONS:
            expected *= len(space.candidates(decision))
        assert space.size == expected

    def test_enumerate_covers_the_space(self, space):
        points = list(space.enumerate())
        assert len(points) == space.size
        assert len({(t.bb, t.hh, t.nq, t.nkv, t.kv_resident) for t in points}) == space.size

    def test_make_validates_choices(self, space):
        tiling = space.make(nq=64, nkv=128, kv_resident=True)
        assert tiling.nq == 64 and tiling.kv_resident
        with pytest.raises(ValueError):
            space.make(nq=63)
        with pytest.raises(KeyError):
            space.candidates("depth")

    def test_sample_and_default_are_in_space(self, space):
        rng = make_rng(0)
        for _ in range(20):
            t = space.sample(rng)
            assert t.nq in space.candidates("nq") and t.nkv in space.candidates("nkv")
        default = space.default()
        assert default.nq in space.candidates("nq")

    def test_mutate_changes_at_most_one_decision(self, space):
        rng = make_rng(1)
        base = space.default()
        for _ in range(30):
            mutated = space.mutate(base, rng)
            diffs = sum(
                getattr(base, d) != getattr(mutated, d) for d in DECISIONS
            )
            assert diffs <= 1

    def test_crossover_mixes_parents(self, space):
        rng = make_rng(2)
        a = space.make(nq=space.candidates("nq")[0], nkv=space.candidates("nkv")[0])
        b = space.make(nq=space.candidates("nq")[-1], nkv=space.candidates("nkv")[-1])
        child = space.crossover(a, b, rng)
        assert child.nq in (a.nq, b.nq) and child.nkv in (a.nkv, b.nkv)

    def test_candidate_cap(self, edge_hw):
        long_wl = AttentionWorkload.self_attention(heads=2, seq=65536, emb=64)
        space = TilingSearchSpace(long_wl, edge_hw, max_candidates_per_dim=6)
        assert len(space.candidates("nq")) <= 6
        assert len(space.candidates("nkv")) <= 6


class TestObjective:
    def test_evaluation_and_caching(self, objective):
        tiling = TilingConfig(nq=64, nkv=64)
        first = objective.evaluate(tiling)
        assert first.feasible and first.cycles > 0
        assert first.value == first.cycles
        before = objective.num_evaluations
        again = objective.evaluate(tiling)
        assert objective.num_evaluations == before  # cached
        assert again.value == first.value
        assert objective.cache_size >= 1

    def test_infeasible_tilings_get_infinite_value(self, workload, edge_hw):
        """Baselines reject tilings whose footprint exceeds L1 outright."""
        tiny = edge_hw.with_l1_bytes(64 * KB)
        objective = SchedulerObjective(FLATScheduler(tiny), workload)
        evaluation = objective.evaluate(TilingConfig(nq=256, nkv=256, kv_resident=True))
        assert not evaluation.feasible and evaluation.value == float("inf")

    def test_mas_allows_overflow_but_not_infeasibility(self, workload, edge_hw):
        tiny = edge_hw.with_l1_bytes(96 * KB)
        objective = SchedulerObjective(MASAttentionScheduler(tiny), workload)
        # Overflows L1 but the overwrite strategy handles it -> still feasible.
        moderate = objective.evaluate(TilingConfig(nq=32, nkv=64, kv_resident=True))
        assert moderate.feasible
        # Non-evictable residency alone exceeds L1 -> infeasible.
        absurd = objective.evaluate(TilingConfig(nq=256, nkv=256))
        assert not absurd.feasible

    def test_metric_selection(self, workload, edge_hw):
        cycles_obj = SchedulerObjective(MASAttentionScheduler(edge_hw), workload, metric="cycles")
        energy_obj = SchedulerObjective(MASAttentionScheduler(edge_hw), workload, metric="energy")
        edp_obj = SchedulerObjective(MASAttentionScheduler(edge_hw), workload, metric="edp")
        tiling = TilingConfig(nq=64, nkv=64)
        c, e, p = (o.evaluate(tiling) for o in (cycles_obj, energy_obj, edp_obj))
        assert c.value == c.cycles
        assert e.value == pytest.approx(e.energy_pj)
        assert p.value == pytest.approx(c.cycles * e.energy_pj, rel=1e-6)
        with pytest.raises(ValueError):
            SchedulerObjective(MASAttentionScheduler(edge_hw), workload, metric="power")

    def test_better_than(self):
        a = TilingEvaluation(TilingConfig(), True, 100, 1.0, 100.0)
        b = TilingEvaluation(TilingConfig(), True, 200, 1.0, 200.0)
        assert a.better_than(b) and not b.better_than(a) and a.better_than(None)

    def test_infeasible_evaluations_are_counted_once(self, workload, edge_hw):
        """Infeasible candidates are real search work: counted when fresh,
        not counted again when memoized."""
        tiny = edge_hw.with_l1_bytes(64 * KB)
        objective = SchedulerObjective(FLATScheduler(tiny), workload)
        bad = TilingConfig(nq=256, nkv=256, kv_resident=True)
        evaluation = objective.evaluate(bad)
        assert not evaluation.feasible
        assert objective.num_evaluations == 1
        objective.evaluate(bad)
        assert objective.num_evaluations == 1  # memoized re-visit is free


class TestBatchedEvaluation:
    def test_batch_matches_serial_order_and_accounting(self, workload, edge_hw):
        serial = SchedulerObjective(MASAttentionScheduler(edge_hw), workload)
        batched = SchedulerObjective(MASAttentionScheduler(edge_hw), workload)
        tilings = [
            TilingConfig(nq=64, nkv=64),
            TilingConfig(nq=32, nkv=64),
            TilingConfig(nq=64, nkv=64),  # duplicate: must be evaluated once
            TilingConfig(nq=128, nkv=32),
        ]
        expected = [serial.evaluate(t) for t in tilings]
        got = batched.evaluate_batch(tilings)
        assert [e.value for e in got] == [e.value for e in expected]
        assert [e.tiling for e in got] == [e.tiling for e in expected]
        assert got[0] is got[2]  # one evaluation object for the duplicate
        assert batched.num_evaluations == serial.num_evaluations == 3
        assert batched.cache_size == 3

    def test_pooled_evaluations_are_scalars(self, workload, edge_hw):
        """Each memoized evaluation is a few hundred bytes (a simulation
        trace would be kilobytes even on this small shape)."""
        objective = SchedulerObjective(MASAttentionScheduler(edge_hw), workload)
        batch = objective.evaluate_batch(
            [TilingConfig(nq=64, nkv=64), TilingConfig(nq=32, nkv=64, kv_resident=True)]
        )
        assert all(e.feasible for e in batch)
        assert max(len(pickle.dumps(e)) for e in batch) < 1024

    def test_finished_tune_frees_its_objective_without_the_cyclic_gc(
        self, workload, edge_hw, monkeypatch
    ):
        """Reference counting alone frees a finished search's objective, with
        its memo and bound tables: the objective and its evaluator form no
        reference cycle."""
        objectives = []

        def recording_objective(*args, **kwargs):
            objective = SchedulerObjective(*args, **kwargs)
            objectives.append(weakref.ref(objective))
            return objective

        monkeypatch.setattr(autotuner, "SchedulerObjective", recording_objective)
        gc.disable()
        try:
            AutoTuner(edge_hw, strategy="mcts+ga", budget=20, seed=0).tune("mas", workload)
            assert len(objectives) == 1
            assert objectives[0]() is None
        finally:
            gc.enable()


class TestHistory:
    def test_best_tracking_and_convergence(self, objective, space):
        history = SearchHistory(algorithm="manual")
        values = []
        for nq in space.candidates("nq"):
            evaluation = objective.evaluate(space.make(nq=nq, nkv=64))
            history.record(evaluation)
            values.append(evaluation.value)
        assert history.num_iterations == len(values)
        assert history.best_value == min(values)
        curve = history.convergence_curve()
        assert [v for _, v in curve] == [min(values[: i + 1]) for i in range(len(values))]
        assert history.improvement_factor >= 1.0
        rows = history.as_rows()
        assert len(rows) == len(values) and "best_value" in rows[0]

    def test_extend_carries_evaluations_verbatim(self):
        """Concatenating phase histories must not fabricate evaluations.

        Under the ``energy``/``edp`` metrics the record values are not cycle
        counts, so ``extend`` has to keep the original best evaluation (with
        its real cycles and energy) instead of reconstructing one from the
        record value.
        """
        inf = float("inf")
        first = SearchHistory(algorithm="mcts")
        e1 = TilingEvaluation(TilingConfig(nq=32), True, cycles=100, energy_pj=5.0, value=5.0)
        first.record(e1, phase="mcts")
        second = SearchHistory(algorithm="ga")
        e2 = TilingEvaluation(TilingConfig(nq=64), True, cycles=200, energy_pj=3.0, value=3.0)
        e3 = TilingEvaluation(TilingConfig(nq=16), False, cycles=0, energy_pj=0.0, value=inf)
        second.record(e2, phase="ga")
        second.record(e3, phase="ga")

        combined = SearchHistory(algorithm="mcts+ga")
        combined.extend(first)
        combined.extend(second)
        assert combined.best is e2  # the original evaluation object, untouched
        assert combined.best.cycles == 200 and combined.best.energy_pj == 3.0
        assert [r.iteration for r in combined.records] == [0, 1, 2]
        assert [r.value for r in combined.records] == [5.0, 3.0, inf]
        assert [r.best_value for r in combined.records] == [5.0, 3.0, 3.0]
        assert [r.phase for r in combined.records] == ["mcts", "ga", "ga"]
        assert combined.best_value == 3.0

    def test_extend_empty_and_unlabelled_phases(self):
        source = SearchHistory(algorithm="mcts")
        source.record(TilingEvaluation(TilingConfig(), True, 10, 1.0, 10.0))
        combined = SearchHistory(algorithm="mcts+ga")
        combined.extend(SearchHistory(algorithm="ga"))  # empty: no-op
        assert combined.num_iterations == 0 and combined.best is None
        combined.extend(source)
        assert combined.records[0].phase == "mcts"  # falls back to the algorithm name


@pytest.mark.parametrize("algorithm_cls", [GridSearch, RandomSearch, MCTSSearch, GeneticSearch])
class TestAlgorithms:
    def test_respects_budget_and_finds_feasible(self, algorithm_cls, objective, space):
        history = algorithm_cls(seed=0).run(objective, space, budget=25)
        assert 1 <= history.num_iterations <= 25
        assert history.best is not None and history.best.feasible
        assert history.best_value < float("inf")

    def test_deterministic_given_seed(self, algorithm_cls, workload, edge_hw, space):
        def run():
            objective = SchedulerObjective(MASAttentionScheduler(edge_hw), workload)
            return algorithm_cls(seed=123).run(objective, space, budget=15).best_value

        assert run() == run()


class TestSmartSearchBeatsRandom:
    def test_mcts_and_ga_no_worse_than_first_sample(self, objective, space):
        for cls in (MCTSSearch, GeneticSearch):
            history = cls(seed=0).run(objective, space, budget=30)
            assert history.best_value <= history.first_value


def _history_rows(history: SearchHistory) -> list[tuple]:
    return [
        (rec.iteration, rec.tiling, rec.value, rec.best_value, rec.phase)
        for rec in history.records
    ]


def _traced(trace_path, run):
    """Call ``run()`` with tracing to ``trace_path`` on (``None``: off)."""
    obs_trace.reset()
    if trace_path is not None:
        obs_trace.configure(trace_path)
    try:
        return run()
    finally:
        obs_trace.reset()


class TestTracingLeavesSearchesUnchanged:
    """A traced search proposes, simulates and prunes exactly what an
    untraced one does: its spans observe the search and never steer it."""

    @pytest.mark.parametrize("metric", ["cycles", "energy", "edp"])
    @pytest.mark.parametrize(
        "make_search",
        [lambda: GeneticSearch(seed=0, population_size=8), lambda: MCTSSearch(seed=0)],
        ids=["ga", "mcts"],
    )
    def test_traced_search_matches_untraced(
        self, workload, edge_hw, space, metric, make_search, tmp_path
    ):
        def run():
            objective = SchedulerObjective(
                MASAttentionScheduler(edge_hw), workload, metric=metric
            )
            history = make_search().run(objective, space, budget=20)
            return (
                _history_rows(history),
                history.best_tiling,
                objective.num_evaluations,
                objective.analytic_stats,
            )

        trace_path = tmp_path / "trace.jsonl"
        assert _traced(trace_path, run) == _traced(None, run)
        spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert any(span["name"] == "search.generation" for span in spans)

    def test_traced_autotuner_matches_untraced(self, workload, edge_hw, tmp_path):
        def run():
            tuning = AutoTuner(edge_hw, strategy="mcts+ga", budget=24, seed=0).tune(
                "mas", workload
            )
            return (
                _history_rows(tuning.history),
                tuning.best_tiling,
                tuning.best_value,
                tuning.objective_evaluations,
            )

        assert _traced(tmp_path / "trace.jsonl", run) == _traced(None, run)


class TestGABudgetAccounting:
    def test_initial_population_truncated_at_budget(self, objective, space):
        """budget < population_size must not overshoot: the initial population
        used to be evaluated unconditionally."""
        history = GeneticSearch(seed=0, population_size=16).run(objective, space, budget=5)
        assert history.num_iterations == 5
        assert history.best is not None

    @pytest.mark.parametrize("budget", [1, 9, 14])
    def test_budget_respected_exactly_across_generations(self, workload, edge_hw, space, budget):
        """Mid-generation expiry: exactly ``budget`` evaluations are recorded
        and the unevaluated remainder never enters selection (no ``inf``
        placeholder fitness is ranked as an elite)."""
        objective = SchedulerObjective(MASAttentionScheduler(edge_hw), workload)
        history = GeneticSearch(seed=0, population_size=6, elitism=2).run(
            objective, space, budget=budget
        )
        assert history.num_iterations == budget
        feasible = [rec.value for rec in history.records if rec.value != float("inf")]
        if feasible:
            assert history.best_value == min(feasible)

    def test_mcts_records_one_leaf_per_iteration(self, objective, space):
        """Every MCTS iteration evaluates and records exactly one leaf, so
        the budget is met exactly, and repeated leaves are memo hits."""
        history = MCTSSearch(seed=0).run(objective, space, budget=10)
        assert history.num_iterations == 10
        assert objective.num_evaluations == len({rec.tiling for rec in history.records})


class TestAutoTuner:
    def test_strategy_defaults_per_device(self, edge_hw):
        from repro.hardware.presets import davinci_like_npu

        assert AutoTuner(edge_hw).strategy == "mcts+ga"
        assert AutoTuner(davinci_like_npu()).strategy == "grid"
        with pytest.raises(ValueError):
            AutoTuner(edge_hw, strategy="simulated-annealing")
        assert set(STRATEGIES) == {"mcts+ga", "mcts", "ga", "grid", "random"}

    def test_tune_improves_over_default(self, edge_hw, workload):
        scheduler = MASAttentionScheduler(edge_hw)
        default_cycles = scheduler.simulate(workload).cycles
        tuning = AutoTuner(edge_hw, budget=40, seed=0).tune(scheduler, workload)
        assert tuning.best_value <= default_cycles
        assert tuning.num_evaluations <= 40 + 1
        assert tuning.best_tiling.nq <= workload.seq_q

    def test_one_tuner_tunes_each_scheduler_on_its_own_device(self):
        """Two schedulers of one name on different devices, tuned by one
        tuner, get two results: the second is what a fresh tuner gives it."""
        from repro.hardware.presets import constrained_edge_device, simulated_edge_device
        from repro.workloads.networks import get_network

        bert = get_network("BERT-Base").workload()
        small = constrained_edge_device(256 * KB)
        tuner = AutoTuner(small, budget=20, seed=0)
        first = tuner.tune(MASAttentionScheduler(small), bert)
        second = tuner.tune(MASAttentionScheduler(simulated_edge_device()), bert)
        fresh = AutoTuner(small, budget=20, seed=0).tune(
            MASAttentionScheduler(simulated_edge_device()), bert
        )
        assert second.best_value != first.best_value
        assert (second.best_tiling, second.best_value) == (fresh.best_tiling, fresh.best_value)

    def test_explicit_budget_is_validated_not_ignored(self, edge_hw, workload):
        with pytest.raises(ValueError):
            AutoTuner(edge_hw, budget=0)
        small = AutoTuner(edge_hw, budget=3, strategy="random").tune("mas", workload)
        assert small.budget == 3
        assert small.num_search_evaluations == 3  # not the default 200

    def test_default_tiling_does_not_count_toward_the_budget(self, edge_hw, workload):
        """The injected default-tiling record must not count toward the budget."""
        tuning = AutoTuner(edge_hw, budget=5, strategy="random", seed=0).tune("mas", workload)
        assert tuning.num_search_evaluations == 5
        assert tuning.num_evaluations == 6  # + the default-tiling candidate

    def test_search_that_exhausts_its_space_keeps_its_budget(self, edge_hw):
        """A search that ran out of candidates below budget is still complete."""
        from repro.hardware.presets import davinci_like_npu

        tiny = AttentionWorkload.self_attention(heads=2, seq=64, emb=16, name="tiny")
        tuning = AutoTuner(davinci_like_npu(), strategy="grid", budget=10_000).tune("mas", tiny)
        assert tuning.num_search_evaluations < 10_000  # grid exhausted early
        assert tuning.budget == 10_000

    def test_tune_scheduler_convenience(self, edge_hw, workload):
        result = tune_scheduler("flat", workload, edge_hw, budget=15, strategy="random")
        assert result.scheduler == "flat" and result.strategy == "random"
        assert result.best_value < float("inf")

    def test_objective_evaluations_recorded(self, edge_hw, workload):
        """The tuning reports real (non-memoized) search work, which can be
        below the history length when candidates repeat."""
        tuning = AutoTuner(edge_hw, budget=15, strategy="random", seed=0).tune("mas", workload)
        assert tuning.objective_evaluations is not None
        assert 1 <= tuning.objective_evaluations <= tuning.num_evaluations

    def test_mcts_ga_history_contains_both_phases(self, edge_hw, workload):
        tuning = AutoTuner(edge_hw, strategy="mcts+ga", budget=30).tune("mas", workload)
        phases = {rec.phase for rec in tuning.history.records}
        assert "mcts" in phases and "ga" in phases

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tune_runs_in_the_calling_process(
        self, edge_hw, workload, strategy, no_new_processes
    ):
        """Every strategy evaluates its candidates where it was called: a
        sweep spreads over cores only by running pairs in parallel."""
        tuning = AutoTuner(edge_hw, strategy=strategy, budget=16, seed=0).tune("mas", workload)
        assert no_new_processes == []
        assert tuning.strategy == strategy
        assert 1 <= tuning.num_search_evaluations <= 16
        assert tuning.best_value < float("inf")
