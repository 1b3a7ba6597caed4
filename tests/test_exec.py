"""Tests for the execution layer: pair workers, parallel runner, result cache."""

from __future__ import annotations

import json

import pytest

from repro.analysis import run_table2
from repro.exec import (
    ExperimentRunner,
    PairSpec,
    ResultCache,
    execute_pair,
    pair_seed,
    tuning_cache_key,
)
from repro.exec.cache import KEY_SCHEMA_VERSION
from repro.hardware.presets import davinci_like_npu, simulated_edge_device
from repro.search.autotuner import MCTS_FRACTION, AutoTuner
from repro.search.genetic import ELITISM, MUTATION_RATE, POPULATION_SIZE, TOURNAMENT_SIZE
from repro.search.mcts import EXPLORATION
from repro.search.objective import PRUNE_WAVE
from repro.search.space import MAX_CANDIDATES_PER_DIM
from repro.store import resolve_store_target
from repro.workloads.attention import AttentionWorkload
from repro.workloads.networks import get_network

FAST_NETWORKS = ["ViT-B/14", "ViT-B/16"]
FAST_METHODS = ["flat", "mas"]
BUDGET = 6


@pytest.fixture
def workload():
    return AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="exec-wl")


@pytest.fixture
def tuning(edge_hw, workload):
    return AutoTuner(edge_hw, budget=10, seed=3).tune("mas", workload)


class TestPairSeed:
    def test_deterministic_and_decorrelated(self):
        assert pair_seed(0, "mas", "ViT-B/14") == pair_seed(0, "mas", "ViT-B/14")
        seeds = {
            pair_seed(base, method, network)
            for base in (0, 1)
            for method in FAST_METHODS
            for network in FAST_NETWORKS
        }
        assert len(seeds) == 8  # every (base, pair) combination gets its own seed

    def test_execute_pair_standalone_matches_runner(self, edge_hw):
        spec = PairSpec(
            hardware=edge_hw,
            method="mas",
            network="ViT-B/14",
            workload=get_network("ViT-B/14").workload(),
            budget=BUDGET,
        )
        run = execute_pair(spec)
        runner = ExperimentRunner(hardware=edge_hw, search_budget=BUDGET)
        assert run.cycles == runner.run("mas", "ViT-B/14").cycles
        with pytest.raises(TypeError):  # a spec always carries its workload
            PairSpec(hardware=edge_hw, method="mas", network="ViT-B/14", budget=BUDGET)


class TestParallelMatchesSerial:
    def test_parallel_matrix_identical_to_serial(self):
        serial = ExperimentRunner(search_budget=BUDGET, seed=0)
        parallel = ExperimentRunner(search_budget=BUDGET, seed=0, jobs=2)
        serial_matrix = serial.run_matrix(FAST_NETWORKS, FAST_METHODS)
        parallel_matrix = parallel.run_matrix(FAST_NETWORKS, FAST_METHODS)
        assert set(serial_matrix) == set(parallel_matrix)
        for network in serial_matrix:
            for method in serial_matrix[network]:
                a = serial_matrix[network][method]
                b = parallel_matrix[network][method]
                assert a.cycles == b.cycles
                assert a.energy_pj == b.energy_pj
                assert a.tuning.best_tiling == b.tuning.best_tiling
                assert a.tuning.best_value == b.tuning.best_value

    def test_jobs_one_takes_serial_path(self):
        runner = ExperimentRunner(search_budget=BUDGET, seed=0, jobs=1)
        matrix = runner.run_matrix(["ViT-B/14"], FAST_METHODS)
        assert matrix["ViT-B/14"]["mas"].cycles > 0

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_memoized_runs_are_not_resubmitted(self):
        runner = ExperimentRunner(search_budget=BUDGET, seed=0, jobs=2)
        first = runner.run("mas", "ViT-B/14")
        matrix = runner.run_matrix(["ViT-B/14"], FAST_METHODS)
        assert matrix["ViT-B/14"]["mas"] is first

    def test_serial_matrix_tunes_every_pair_in_process(self, no_new_processes):
        """At ``jobs=1`` each pair, its tiling search included, runs in the
        runner's own process."""
        runner = ExperimentRunner(search_budget=BUDGET, seed=0, use_cache=False)
        matrix = runner.run_matrix(FAST_NETWORKS, FAST_METHODS)
        assert no_new_processes == []
        assert all(run.tuned for runs in matrix.values() for run in runs.values())


def _run_keys(runs) -> set[tuple[str, str, int]]:
    return {(r.scheduler, r.network, r.cycles) for r in runs}


def _matrix_keys(matrix) -> set[tuple[str, str, int]]:
    return {
        (run.scheduler, run.network, run.cycles)
        for runs in matrix.values()
        for run in runs.values()
    }


class TestIterMatrix:
    """Streaming yields exactly the pairs ``run_matrix`` materializes."""

    def test_serial_streaming_matches_matrix_in_table_order(self):
        runner = ExperimentRunner(search_budget=BUDGET, seed=0)
        runs = list(runner.iter_matrix(FAST_NETWORKS, FAST_METHODS))
        assert [(r.scheduler, r.network) for r in runs] == [
            (method, network) for network in FAST_NETWORKS for method in FAST_METHODS
        ]
        matrix = runner.run_matrix(FAST_NETWORKS, FAST_METHODS)
        assert _run_keys(runs) == _matrix_keys(matrix)

    def test_parallel_streaming_matches_serial_matrix(self):
        serial = ExperimentRunner(search_budget=BUDGET, seed=0)
        reference = _matrix_keys(serial.run_matrix(FAST_NETWORKS, FAST_METHODS))
        runner = ExperimentRunner(search_budget=BUDGET, seed=0, jobs=2)
        runs = list(runner.iter_matrix(FAST_NETWORKS, FAST_METHODS))
        assert _run_keys(runs) == reference
        # every streamed run is memoized: the matrix afterwards is free
        assert _matrix_keys(runner.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference

    def test_streaming_yields_memoized_runs_first(self):
        runner = ExperimentRunner(search_budget=BUDGET, seed=0, jobs=2)
        first = runner.run("mas", "ViT-B/14")
        runs = list(runner.iter_matrix(FAST_NETWORKS, FAST_METHODS))
        assert runs[0] is first  # memoized pair streams before the pool finishes
        assert len(runs) == len(FAST_NETWORKS) * len(FAST_METHODS)

    def test_jobs_one_streams_serially(self):
        runner = ExperimentRunner(search_budget=BUDGET, seed=0, jobs=1)
        runs = list(runner.iter_matrix(["ViT-B/14"], FAST_METHODS))
        assert [(r.scheduler, r.network) for r in runs] == [
            (method, "ViT-B/14") for method in FAST_METHODS
        ]

    def test_abandoned_stream_cancels_pending_pairs(self):
        """Breaking out of the stream must not block on the whole matrix,
        and the abandoned pairs remain computable afterwards."""
        runner = ExperimentRunner(search_budget=BUDGET, seed=0, jobs=2)
        iterator = runner.iter_matrix(FAST_NETWORKS, FAST_METHODS)
        first = next(iterator)
        iterator.close()  # not-yet-started pairs are cancelled, not awaited
        assert first.cycles > 0
        serial = ExperimentRunner(search_budget=BUDGET, seed=0)
        reference = _matrix_keys(serial.run_matrix(FAST_NETWORKS, FAST_METHODS))
        assert _matrix_keys(runner.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference


class TestResultCache:
    def test_round_trips_tuning_result(self, tmp_path, edge_hw, workload, tuning):
        cache = ResultCache(tmp_path)
        key = tuning_cache_key(edge_hw, "mas", workload, "mcts+ga", 10, 3)
        assert cache.load(key) is None and cache.misses == 1
        cache.store(key, tuning)
        assert len(cache.backend) == 1

        loaded = cache.load(key)
        assert cache.hits == 1
        assert loaded.scheduler == tuning.scheduler
        assert loaded.workload == tuning.workload
        assert loaded.strategy == tuning.strategy
        assert loaded.best_tiling == tuning.best_tiling
        assert loaded.best_value == tuning.best_value
        assert loaded.budget == tuning.budget == 10
        assert loaded.objective_evaluations == tuning.objective_evaluations
        assert loaded.objective_evaluations is not None
        assert loaded.num_evaluations == tuning.num_evaluations
        assert loaded.num_search_evaluations == tuning.num_search_evaluations
        assert loaded.improvement_factor == tuning.improvement_factor
        assert loaded.history.algorithm == tuning.history.algorithm
        assert loaded.history.convergence_curve() == tuning.history.convergence_curve()
        for got, want in zip(loaded.history.records, tuning.history.records):
            assert (got.iteration, got.tiling, got.value, got.best_value, got.phase) == (
                want.iteration,
                want.tiling,
                want.value,
                want.best_value,
                want.phase,
            )
        assert loaded.history.best.tiling == tuning.history.best.tiling
        assert loaded.history.best.cycles == tuning.history.best.cycles
        assert loaded.history.best.energy_pj == tuning.history.best.energy_pj

    def test_key_changes_with_every_tuning_parameter(self, edge_hw, workload):
        base = tuning_cache_key(edge_hw, "mas", workload, "mcts+ga", 10, 0)
        variants = [
            tuning_cache_key(edge_hw, "flat", workload, "mcts+ga", 10, 0),
            tuning_cache_key(edge_hw, "mas", workload.with_seq(128), "mcts+ga", 10, 0),
            tuning_cache_key(edge_hw, "mas", workload, "random", 10, 0),
            tuning_cache_key(edge_hw, "mas", workload, "mcts+ga", 11, 0),
            tuning_cache_key(edge_hw, "mas", workload, "mcts+ga", 10, 1),
            tuning_cache_key(
                edge_hw.with_l1_bytes(edge_hw.l1_bytes // 2), "mas", workload, "mcts+ga", 10, 0
            ),
            tuning_cache_key(davinci_like_npu(), "mas", workload, "mcts+ga", 10, 0),
        ]
        assert base == tuning_cache_key(edge_hw, "mas", workload, "mcts+ga", 10, 0)
        assert len({base, *variants}) == len(variants) + 1

    def test_search_constants_change_only_with_the_key_schema(self):
        """Stored tunings are keyed without the search's parameters, so a
        changed parameter must come with a new key schema."""
        constants = (
            PRUNE_WAVE,
            MCTS_FRACTION,
            EXPLORATION,
            POPULATION_SIZE,
            TOURNAMENT_SIZE,
            MUTATION_RATE,
            ELITISM,
            MAX_CANDIDATES_PER_DIM,
        )
        assert (KEY_SCHEMA_VERSION, constants) == (5, (8, 0.6, 1.2, 16, 3, 0.3, 2, 12)), (
            "a search constant changes what a stored tuning holds: change it "
            "together with KEY_SCHEMA_VERSION, and both expected values here"
        )

    def test_disabled_cache_is_inert(self, tuning):
        cache = ResultCache(None)
        assert cache.store("k", tuning) is None
        assert cache.load("k") is None
        assert cache.backend is None and cache.hits == 0

    def test_corrupt_entry_is_a_miss_but_stale_is_counted(self, tmp_path, tuning):
        cache = ResultCache(tmp_path)
        cache.store("k", tuning)
        (tmp_path / "k.json").write_text("not json at all")
        assert cache.load("k") is None  # unparseable garbage: a plain miss
        stale = {"schema": 99, "key": "k2", "tuning": {}}
        (tmp_path / "k2.json").write_text(json.dumps(stale))
        assert cache.load("k2") is None  # unknown schema: stale, not a miss
        assert cache.misses == 1
        assert cache.stale == 1
        assert cache.stats() == {"hits": 0, "misses": 1, "stale": 1}
        # an entry lacking a field of the tuning is corrupt: a plain miss
        cache.store("k3", tuning)
        entry = json.loads((tmp_path / "k3.json").read_text())
        del entry["tuning"]["objective_evaluations"]
        (tmp_path / "k3.json").write_text(json.dumps(entry))
        assert cache.load("k3") is None
        assert cache.stats() == {"hits": 0, "misses": 2, "stale": 1}
        # so is one whose best evaluation lost its pruned flag
        cache.store("k4", tuning)
        entry = json.loads((tmp_path / "k4.json").read_text())
        del entry["tuning"]["history"]["best"]["pruned"]
        (tmp_path / "k4.json").write_text(json.dumps(entry))
        assert cache.load("k4") is None
        assert cache.stats() == {"hits": 0, "misses": 3, "stale": 1}

    def test_clear(self, tmp_path, tuning):
        cache = ResultCache(tmp_path)
        cache.store("a", tuning)
        cache.store("b", tuning)
        assert cache.backend.clear() == 2 and len(cache.backend) == 0


class TestWarmCacheSweep:
    def test_second_table2_invocation_performs_no_search(self, tmp_path):
        kwargs = dict(search_budget=5, seed=0, cache_uri=tmp_path / "cache")
        cold_runner = ExperimentRunner(**kwargs)
        cold = run_table2(cold_runner, networks=["ViT-B/14"])
        cold_stats = cold_runner.cache_stats()
        assert cold_stats["cache_hits"] == 0
        assert cold_stats["searches"] == 5  # fusemax is not searchable
        assert cold_stats["search_evaluations"] > 0

        warm_runner = ExperimentRunner(**kwargs)
        warm = run_table2(warm_runner, networks=["ViT-B/14"])
        warm_stats = warm_runner.cache_stats()
        assert warm_stats["cache_hits"] == 5
        assert warm_stats["searches"] == 0
        assert warm_stats["search_evaluations"] == 0
        assert all(
            run.cached
            for runs in warm_runner.run_matrix(["ViT-B/14"]).values()
            for run in runs.values()
            if run.tuned
        )
        assert warm.row("ViT-B/14").cycles == cold.row("ViT-B/14").cycles

    def test_store_target_precedence(self, tmp_path, monkeypatch):
        """cache_uri, else $MAS_CACHE_URI stripped; a blank one counts as unset."""
        uri = f"dir:{tmp_path}/env"
        monkeypatch.setenv("MAS_CACHE_URI", uri)
        assert resolve_store_target("dir:/a") == "dir:/a"
        assert resolve_store_target(tmp_path / "b") == str(tmp_path / "b")
        assert resolve_store_target() == uri
        monkeypatch.setenv("MAS_CACHE_URI", f"  {uri} \n")
        assert resolve_store_target() == uri
        monkeypatch.setenv("MAS_CACHE_URI", "   ")
        assert resolve_store_target() is None
        monkeypatch.delenv("MAS_CACHE_URI")
        assert resolve_store_target() is None

    def test_runner_takes_a_bare_directory_from_mas_cache_uri(self, tmp_path, monkeypatch):
        """A library runner honours a plain directory in $MAS_CACHE_URI exactly
        like the CLI does."""
        monkeypatch.setenv("MAS_CACHE_URI", str(tmp_path / "plain"))
        runner = ExperimentRunner(search_budget=BUDGET, seed=0)
        assert runner.cache_target == str(tmp_path / "plain")
        runner.run("mas", "ViT-B/14")
        assert len(list((tmp_path / "plain").glob("*.json"))) == 1

    def test_no_cache_flag_disables_persistence(self, tmp_path):
        runner = ExperimentRunner(
            search_budget=5, cache_uri=tmp_path / "cache", use_cache=False
        )
        runner.run("mas", "ViT-B/14")
        assert not (tmp_path / "cache").exists()


class TestRunnerSubsets:
    def test_networks_rejects_unknown_names(self):
        runner = ExperimentRunner(use_search=False)
        with pytest.raises(KeyError):
            runner.networks(["NotANetwork"])

    def test_networks_dedupes_and_orders_canonically(self):
        runner = ExperimentRunner(use_search=False)
        subset = runner.networks(["ViT-B/16", "vit-b/14", "ViT-B/16"])
        assert subset == ["ViT-B/14", "ViT-B/16"]

    def test_run_canonicalizes_network_names(self):
        runner = ExperimentRunner(use_search=False)
        assert runner.run("mas", "vit-b/14") is runner.run("mas", "ViT-B/14")
        assert runner.run("mas", "ViT-B/14").network == get_network("ViT-B/14").name

    def test_run_canonicalizes_method_names(self):
        """'MAS' and 'mas' are one pair: same memo entry, seed and result."""
        runner = ExperimentRunner(search_budget=BUDGET, seed=0)
        upper = runner.run("MAS", "ViT-B/14")
        assert upper is runner.run("mas", "ViT-B/14")
        assert upper.scheduler == "mas"
        spec_upper = runner.pair_spec("MAS", "ViT-B/14")
        assert execute_pair(spec_upper).cycles == upper.cycles


def test_parallel_runner_defaults_match_experiment_runner(tmp_path):
    """The old name builds an ExperimentRunner with the same defaults, opens
    the store its ``cache_dir`` names, and refuses any search-worker count
    but one."""
    from repro.exec.runner import ParallelRunner

    runner = ParallelRunner(search_workers=1)
    assert type(runner) is ExperimentRunner
    assert runner == ExperimentRunner()
    assert runner.hardware == simulated_edge_device()
    assert runner.jobs == 1
    store = tmp_path / "store"
    assert ParallelRunner(cache_dir=store).cache_target == str(store)
    with pytest.raises(ValueError, match="search_workers"):
        ParallelRunner(search_workers=2)


def test_parallel_runner_caches_under_a_path_string(tmp_path):
    """The sweep benchmark's set-up probe names its store directory as a
    string: the old name stores there, and a second runner on it is warm."""
    from repro.exec.runner import ParallelRunner

    store = str(tmp_path / "store")
    kwargs = dict(search_budget=BUDGET, seed=0, cache_dir=store, search_workers=1, jobs=1)
    cold = ParallelRunner(**kwargs).run("mas", "ViT-B/14")
    assert cold.tuned and not cold.cached
    assert list((tmp_path / "store").glob("*.json"))
    warm_runner = ParallelRunner(**kwargs)
    warm = warm_runner.run("mas", "ViT-B/14")
    assert warm.cached and warm.cycles == cold.cycles
    assert warm_runner.cache_stats()["cache_hits"] == 1


class TestSuiteSweeps:
    """The suite-parametrized sweep matrix (see the ``sweep_suite`` fixture)."""

    def test_runner_sweeps_suite_deterministically(self, sweep_suite):
        from repro.workloads.suites import get_suite

        subset = get_suite(sweep_suite).entry_names()[:2]
        first = ExperimentRunner(suite=sweep_suite, search_budget=4, seed=0)
        again = ExperimentRunner(suite=get_suite(sweep_suite), search_budget=4, seed=0)
        matrix = first.run_matrix(subset, FAST_METHODS)
        repeat = again.run_matrix(subset, FAST_METHODS)
        assert set(matrix) == set(subset)
        for entry in matrix:
            for method in FAST_METHODS:
                a, b = matrix[entry][method], repeat[entry][method]
                assert a.cycles == b.cycles > 0
                assert a.energy_pj == b.energy_pj
                assert a.network == entry
                if a.tuned:
                    assert a.tuning.best_tiling == b.tuning.best_tiling

    def test_parallel_matches_serial_on_suite(self, sweep_suite):
        from repro.workloads.suites import get_suite

        subset = get_suite(sweep_suite).entry_names()[:2]
        serial = ExperimentRunner(suite=sweep_suite, search_budget=4, seed=0)
        parallel = ExperimentRunner(suite=sweep_suite, search_budget=4, seed=0, jobs=2)
        assert _matrix_keys(serial.run_matrix(subset, FAST_METHODS)) == _matrix_keys(
            parallel.run_matrix(subset, FAST_METHODS)
        )

    def test_suite_workloads_reach_the_simulation(self, sweep_suite):
        """The simulated DRAM traffic scales with the suite entry's shape —
        proof the entry workload (not a Table-1 default) was executed."""
        runner = ExperimentRunner(suite=sweep_suite, use_search=False)
        entry = runner.networks()[0]
        workload = runner.workload_for(entry)
        run = runner.run("flat", entry)
        assert run.result.dram_reads >= workload.input_bytes

    def test_table1_suite_reproduces_table1_ordering(self):
        from repro.workloads.networks import list_networks

        assert ExperimentRunner().networks() == list_networks()
        assert ExperimentRunner(suite="table1").networks() == list_networks()
        default = ExperimentRunner(search_budget=BUDGET, seed=0)
        named = ExperimentRunner(suite="table1", search_budget=BUDGET, seed=0)
        assert _matrix_keys(default.run_matrix(FAST_NETWORKS, FAST_METHODS)) == _matrix_keys(
            named.run_matrix(FAST_NETWORKS, FAST_METHODS)
        )

    def test_python_built_suite_sweeps_through_pool_and_store(self, tmp_path):
        """A suite built in Python has no registered name: pool workers get
        each entry's shape only from ``PairSpec.workload``.  It sweeps cold at
        ``jobs=2``, then replays warm at ``jobs=1`` from the store."""
        from repro.store import JsonDirStore
        from repro.workloads.suites import SuiteEntry, WorkloadSuite

        suite = WorkloadSuite(
            name="my-shapes",
            description="a Table-1 row, a GQA shape and a small dense shape",
            entries=(
                SuiteEntry("BERT-Base", get_network("BERT-Base").workload()),
                SuiteEntry(
                    "chat.gqa", AttentionWorkload.gqa(32, 8, seq=256, emb=128, batch=2)
                ),
                SuiteEntry("embed", AttentionWorkload(heads=4, seq_q=64, seq_kv=64, emb=64)),
            ),
        )
        kwargs = dict(suite=suite, search_budget=4, seed=0, cache_uri=tmp_path / "cache")
        cold_runner = ExperimentRunner(jobs=2, **kwargs)
        cold = cold_runner.run_matrix()
        cold_stats = cold_runner.cache_stats()
        assert cold_stats["cache_hits"] == 0
        assert cold_stats["cache_misses"] == cold_stats["searches"] == 15  # no fusemax search

        warm_runner = ExperimentRunner(jobs=1, **kwargs)
        warm = warm_runner.run_matrix()
        warm_stats = warm_runner.cache_stats()
        assert warm_stats["cache_hits"] == 15
        assert warm_stats["searches"] == warm_stats["search_evaluations"] == 0
        for entry in suite.entry_names():
            for method, run in cold[entry].items():
                again = warm[entry][method]
                assert (again.cycles, again.energy_pj) == (run.cycles, run.energy_pj)
                if run.tuned:
                    assert again.tuning.best_tiling == run.tuning.best_tiling
        assert len(JsonDirStore(tmp_path / "cache").entries(suite="my-shapes")) == 15

    def test_bad_suite_spec_fails_eagerly(self):
        with pytest.raises(ValueError):
            ExperimentRunner(suite="table1@heads=4")
        with pytest.raises(KeyError):
            ExperimentRunner(suite="table9")


class TestSuiteCacheKeys:
    def test_key_sensitive_to_batch_and_seq_kv(self, edge_hw, workload):
        """Entries differing only in batch, or only in seq_kv, never collide."""
        base = tuning_cache_key(edge_hw, "mas", workload, "mcts+ga", 10, 0)
        variants = [
            tuning_cache_key(edge_hw, "mas", workload.with_batch(8), "mcts+ga", 10, 0),
            tuning_cache_key(
                edge_hw,
                "mas",
                workload.with_seq(workload.seq_q, 2 * workload.seq_kv),
                "mcts+ga", 10, 0,
            ),
        ]
        assert len({base, *variants}) == 3

    def test_identical_shapes_across_suites_share_key(self, edge_hw):
        """table1@batch=8 and the batch-8 third of table1-batched are the
        same entries, so their cache keys coincide (cross-suite reuse)."""
        from repro.workloads.suites import get_suite

        a = get_suite("table1@batch=8").get_entry("ViT-B/14 @b8").workload
        b = get_suite("table1-batched").get_entry("ViT-B/14 @b8").workload
        key = tuning_cache_key(edge_hw, "mas", a, "mcts+ga", 10, 0)
        assert key == tuning_cache_key(edge_hw, "mas", b, "mcts+ga", 10, 0)

    def test_cross_suite_cache_reuse_end_to_end(self, tmp_path):
        """A pair tuned under one suite is a warm hit under another suite
        that derives the same entry."""
        kwargs = dict(search_budget=3, seed=0, cache_uri=tmp_path / "cache")
        spec_runner = ExperimentRunner(suite="table1@batch=8", **kwargs)
        cold = spec_runner.run("mas", "ViT-B/14 @b8")
        assert cold.tuned and not cold.cached

        batched_runner = ExperimentRunner(suite="table1-batched", jobs=2, **kwargs)
        warm = batched_runner.run("mas", "ViT-B/14 @b8")
        assert warm.cached
        assert warm.cycles == cold.cycles
        assert warm.tuning.best_tiling == cold.tuning.best_tiling

    def test_pair_seed_uses_entry_name(self):
        """Distinct suite entries search with decorrelated seeds even when
        they share a base network."""
        assert pair_seed(0, "mas", "ViT-B/14") != pair_seed(0, "mas", "ViT-B/14 @b8")

    def test_pair_spec_carries_entry_workload(self):
        runner = ExperimentRunner(suite="cross-attention", use_search=False)
        spec = runner.pair_spec("mas", "sd.mid.xattn")
        assert spec.workload == runner.workload_for("sd.mid.xattn")
        assert spec.workload.seq_q != spec.workload.seq_kv
        run = execute_pair(spec)
        assert run.network == "sd.mid.xattn"
