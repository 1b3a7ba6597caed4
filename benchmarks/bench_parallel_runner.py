"""Serial-vs-parallel wall time and cold-vs-warm cache time for the sweep runner.

Runs the same (method, network) tuning+simulation matrix four ways — serial,
process-pool parallel, cold persistent cache and warm persistent cache —
checks that all four produce identical results, and reports the wall times.
The warm-cache sweep is the benchmarked path: it must perform zero search
evaluations and is the steady state of repeated table/figure regeneration.

A second benchmark measures *intra-pair* scaling: one (method, network)
tuning with a large budget, evaluated candidate-batch-parallel
(``search_workers``) versus serial, with bit-identical results required.

``test_tracing_overhead`` gates the observability layer itself: the same
sweep traced (``MAS_TRACE``-equivalent, 64-span buffer) versus untraced
must stay within 5% wall time with bit-identical results.

Scale knobs: ``MAS_BENCH_BUDGET`` (search budget), ``MAS_BENCH_NETWORKS``
(network subset; defaults to three Table-1 networks here so the four sweeps
stay quick), ``MAS_BENCH_JOBS`` (worker processes for the parallel sweep) and
``MAS_BENCH_SEARCH_WORKERS`` (intra-pair scaling benchmark).
"""

from __future__ import annotations

import os
import time
from functools import partial

import pytest

from repro.exec import ExperimentRunner, MethodRun
from repro.hardware.presets import simulated_edge_device
from repro.obs import trace as obs_trace
from repro.obs.export import read_trace
from repro.obs.schema import validate_trace_file
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.search import autotuner
from repro.search.autotuner import AutoTuner, TuningResult
from repro.search.objective import SchedulerObjective
from repro.service import running_server, server_url
from repro.store import JsonDirStore
from repro.utils import env
from repro.workloads.networks import get_network

SEARCH_BUDGET = env.int_value("MAS_BENCH_BUDGET")
_networks_env = env.value("MAS_BENCH_NETWORKS") or ""
_networks = [n.strip() for n in _networks_env.split(",") if n.strip()]
#: Three shape-diverse Table-1 networks keep 4 full sweeps fast by default.
BENCH_NETWORKS = _networks or ["BERT-Base & T5-Base", "ViT-B/16", "XLM"]
_jobs = env.int_value("MAS_BENCH_JOBS")
PARALLEL_JOBS = _jobs if _jobs > 1 else min(4, os.cpu_count() or 1)
#: Unset/0 picks an automatic worker count; an explicit 1 pins the
#: "parallel" run serial (useful for isolating pool overhead).
_search_workers = env.int_value("MAS_BENCH_SEARCH_WORKERS", 0)
SEARCH_WORKERS = _search_workers if _search_workers >= 1 else min(4, os.cpu_count() or 1)
#: Search budget of the intra-pair scaling benchmark.
INTRA_BUDGET = 300
#: GA budget per pair of the candidate-throughput benchmark.
SEARCH_THROUGHPUT_BUDGET = 120
#: The dataflows whose tiling space the tuner actually searches.
SEARCH_METHODS = [name for name, cls in ALL_SCHEDULERS.items() if cls.searchable]


def _fingerprint(matrix: dict[str, dict[str, MethodRun]]) -> dict[tuple[str, str], tuple]:
    return {
        (network, method): (
            run.cycles,
            run.energy_pj,
            run.tuning.best_tiling if run.tuned else None,
        )
        for network, runs in matrix.items()
        for method, run in runs.items()
    }


def _timed_matrix(runner: ExperimentRunner) -> tuple[float, dict]:
    start = time.perf_counter()
    matrix = runner.run_matrix(BENCH_NETWORKS)
    return time.perf_counter() - start, matrix


def test_parallel_runner_and_result_cache(benchmark, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("tuning-cache")
    kwargs = dict(search_budget=SEARCH_BUDGET, seed=0)

    t_serial, serial = _timed_matrix(ExperimentRunner(**kwargs))
    t_parallel, parallel = _timed_matrix(ExperimentRunner(**kwargs, jobs=PARALLEL_JOBS))
    t_cold, cold = _timed_matrix(ExperimentRunner(**kwargs, cache_dir=cache_dir))

    warm_runner = ExperimentRunner(**kwargs, cache_dir=cache_dir, jobs=PARALLEL_JOBS)
    t_warm, warm = _timed_matrix(warm_runner)
    warm_stats = warm_runner.cache_stats()

    reference = _fingerprint(serial)
    assert _fingerprint(parallel) == reference
    assert _fingerprint(cold) == reference
    assert _fingerprint(warm) == reference
    assert warm_stats["search_evaluations"] == 0
    assert warm_stats["searches"] == 0

    # Benchmark the steady state: a fresh process hitting a warm cache.
    result = benchmark.pedantic(
        lambda: ExperimentRunner(**kwargs, cache_dir=cache_dir).run_matrix(BENCH_NETWORKS),
        rounds=1,
        iterations=1,
    )
    assert _fingerprint(result) == reference

    print()
    print(f"matrix: {len(BENCH_NETWORKS)} networks x 6 methods, budget {SEARCH_BUDGET}")
    print(f"serial            : {t_serial:8.2f} s")
    print(f"parallel (jobs={PARALLEL_JOBS}) : {t_parallel:8.2f} s")
    print(f"cold cache        : {t_cold:8.2f} s")
    print(f"warm cache        : {t_warm:8.2f} s  ({t_serial / max(t_warm, 1e-9):.1f}x vs serial)")

    benchmark.extra_info["serial_s"] = round(t_serial, 3)
    benchmark.extra_info["parallel_s"] = round(t_parallel, 3)
    benchmark.extra_info["parallel_jobs"] = PARALLEL_JOBS
    benchmark.extra_info["cold_cache_s"] = round(t_cold, 3)
    benchmark.extra_info["warm_cache_s"] = round(t_warm, 3)
    benchmark.extra_info["warm_speedup_vs_serial"] = round(t_serial / max(t_warm, 1e-9), 2)

    # The warm sweep skips every search; it must beat the cold sweep clearly.
    assert t_warm < t_cold


#: Tolerances for the tracing-overhead gate: 5% relative plus an absolute
#: noise floor so sub-second sweeps on a loaded CI box cannot flake the gate.
TRACE_OVERHEAD_RATIO = 1.05
TRACE_NOISE_FLOOR_S = 0.5


def test_tracing_overhead(benchmark, tmp_path_factory):
    """Span tracing must cost <=5% sweep wall time and change no results.

    The same serial sweep runs untraced and traced (``MAS_TRACE``-equivalent,
    via :func:`repro.obs.trace.configure` with a 64-span buffer — the
    recommended tight-loop setting).  Each mode runs twice and keeps its best
    time so one scheduler hiccup cannot decide the gate; the traced sweep
    must stay within ``TRACE_OVERHEAD_RATIO`` of the untraced one (plus an
    absolute noise floor) and produce a bit-identical matrix plus a
    schema-valid trace covering the runner and search layers.
    """
    kwargs = dict(search_budget=SEARCH_BUDGET, seed=0)
    networks = BENCH_NETWORKS[:1]  # one network keeps the four sweeps quick
    trace_path = tmp_path_factory.mktemp("trace") / "overhead.jsonl"

    def sweep(traced: bool) -> tuple[float, dict]:
        if traced:
            obs_trace.configure(trace_path, buffer_spans=64)
        try:
            start = time.perf_counter()
            matrix = ExperimentRunner(**kwargs).run_matrix(networks)
            return time.perf_counter() - start, matrix
        finally:
            obs_trace.reset()

    # Interleave the modes so slow drift (thermal, co-tenants) hits both.
    times = {False: [], True: []}
    matrices = {}
    for _ in range(2):
        for traced in (False, True):
            elapsed, matrices[traced] = sweep(traced)
            times[traced].append(elapsed)
    t_plain, t_traced = min(times[False]), min(times[True])

    assert _fingerprint(matrices[True]) == _fingerprint(matrices[False])
    assert validate_trace_file(trace_path) == []
    layers = {span["layer"] for span in read_trace(trace_path)}
    assert {"runner", "search"} <= layers

    overhead = t_traced / max(t_plain, 1e-9)
    result = benchmark.pedantic(lambda: sweep(False)[1], rounds=1, iterations=1)
    assert _fingerprint(result) == _fingerprint(matrices[False])

    # The gate the assert below applies is the relative ratio PLUS the
    # absolute noise floor (overhead_ratio may exceed the ratio and still
    # pass: the floor absorbs the difference on short sweeps).
    gate_s = t_plain * TRACE_OVERHEAD_RATIO + TRACE_NOISE_FLOOR_S
    effective_gate_ratio = gate_s / max(t_plain, 1e-9)

    print()
    print(f"matrix: {len(networks)} network x 6 methods, budget {SEARCH_BUDGET}")
    print(f"untraced          : {t_plain:8.2f} s")
    print(f"traced (buffer=64): {t_traced:8.2f} s  ({(overhead - 1) * 100:+.1f}%)")
    print(
        f"gate              : {gate_s:8.2f} s  (x{TRACE_OVERHEAD_RATIO} + "
        f"{TRACE_NOISE_FLOOR_S}s floor = x{effective_gate_ratio:.3f} effective)"
    )
    benchmark.extra_info.update(
        untraced_s=round(t_plain, 3),
        traced_s=round(t_traced, 3),
        overhead_ratio=round(overhead, 4),
        gate_s=round(gate_s, 3),
        effective_gate_ratio=round(effective_gate_ratio, 4),
    )

    assert t_traced <= gate_s, (
        f"traced sweep {t_traced:.2f}s exceeds the gate {gate_s:.2f}s "
        f"({TRACE_OVERHEAD_RATIO:.0%} of untraced {t_plain:.2f}s "
        f"+ {TRACE_NOISE_FLOOR_S}s floor)"
    )


def test_result_store_backends(benchmark, tmp_path_factory):
    """Warm-sweep wall time per store backend: JSON directory and HTTP.

    One cold sweep populates a JSON-directory cache, which is then served
    over a local ``mas-attention serve``-equivalent HTTP service.  Both
    backends must serve a bit-identical warm sweep with zero searches.  The
    benchmarked path is the directory warm sweep — the local steady state —
    with the HTTP warm sweep reported alongside as the fleet steady state
    (its delta over the directory is the round-trip cost).
    """
    root = tmp_path_factory.mktemp("store-bench")
    kwargs = dict(search_budget=SEARCH_BUDGET, seed=0)

    t_cold, cold = _timed_matrix(ExperimentRunner(**kwargs, cache_dir=root / "jsondir"))
    reference = _fingerprint(cold)

    def warm(uri: str) -> tuple[float, dict, dict]:
        runner = ExperimentRunner(**kwargs, cache_uri=uri)
        elapsed, matrix = _timed_matrix(runner)
        return elapsed, matrix, runner.cache_stats()

    t_dir, warm_dir, dir_stats = warm(f"dir:{root / 'jsondir'}")
    assert _fingerprint(warm_dir) == reference
    assert dir_stats["searches"] == 0 and dir_stats["cache_misses"] == 0

    with running_server(JsonDirStore(root / "jsondir")) as server:
        t_http, warm_http, http_stats = warm(server_url(server))
        assert _fingerprint(warm_http) == reference
        assert http_stats["searches"] == 0 and http_stats["cache_misses"] == 0
        service_metrics = server.service.metrics.snapshot()

    result = benchmark.pedantic(
        lambda: warm(f"dir:{root / 'jsondir'}")[1], rounds=1, iterations=1
    )
    assert _fingerprint(result) == reference

    print()
    print(f"matrix: {len(BENCH_NETWORKS)} networks x 6 methods, budget {SEARCH_BUDGET}")
    print(f"cold (jsondir)    : {t_cold:8.2f} s")
    print(f"warm jsondir      : {t_dir:8.2f} s")
    print(
        f"warm http         : {t_http:8.2f} s  "
        f"({service_metrics['hits']} served hits, "
        f"{service_metrics['requests']['POST /lookup']['mean_ms']:.2f} ms/lookup)"
    )
    benchmark.extra_info["cold_s"] = round(t_cold, 3)
    benchmark.extra_info["warm_jsondir_s"] = round(t_dir, 3)
    benchmark.extra_info["warm_http_s"] = round(t_http, 3)
    benchmark.extra_info["http_mean_lookup_ms"] = round(
        service_metrics["requests"]["POST /lookup"]["mean_ms"], 3
    )


def _history_rows(result: TuningResult) -> list[tuple]:
    return [
        (rec.iteration, rec.tiling, rec.value, rec.best_value, rec.phase)
        for rec in result.history.records
    ]


def test_intra_pair_search_scaling(benchmark):
    """One pair, large budget: batched parallel candidate evaluation vs serial.

    GA generations and MCTS rollout batches fan out over a process pool of
    ``SEARCH_WORKERS`` evaluators; the tuning result (best tiling, every
    history record) must be bit-identical to the serial run.
    """
    hardware = simulated_edge_device()
    workload = get_network(BENCH_NETWORKS[0]).workload()

    def tune(workers: int) -> tuple[float, TuningResult]:
        tuner = AutoTuner(
            hardware,
            strategy="mcts+ga",
            budget=INTRA_BUDGET,
            seed=0,
            workers=workers,
            rollout_batch=8,
        )
        start = time.perf_counter()
        result = tuner.tune("mas", workload)
        return time.perf_counter() - start, result

    t_serial, serial = tune(1)
    t_parallel, parallel = tune(SEARCH_WORKERS)
    assert parallel.best_tiling == serial.best_tiling
    assert parallel.best_value == serial.best_value
    assert _history_rows(parallel) == _history_rows(serial)
    assert parallel.objective_evaluations == serial.objective_evaluations

    result = benchmark.pedantic(lambda: tune(SEARCH_WORKERS)[1], rounds=1, iterations=1)
    assert result.best_value == serial.best_value

    print()
    print(f"pair: mas / {workload.name}, budget {INTRA_BUDGET}, rollout_batch 8")
    print(f"serial search (workers=1)        : {t_serial:8.2f} s")
    print(
        f"parallel search (workers={SEARCH_WORKERS})      : {t_parallel:8.2f} s  "
        f"({t_serial / max(t_parallel, 1e-9):.1f}x vs serial)"
    )
    benchmark.extra_info["intra_serial_s"] = round(t_serial, 3)
    benchmark.extra_info["intra_parallel_s"] = round(t_parallel, 3)
    benchmark.extra_info["search_workers"] = SEARCH_WORKERS
    benchmark.extra_info["intra_speedup"] = round(t_serial / max(t_parallel, 1e-9), 2)
    benchmark.extra_info["objective_evaluations"] = serial.objective_evaluations


def _serial_evaluate_batch(self: SchedulerObjective, tilings: list) -> list:
    """The serial oracle of ``evaluate_batch``: one memoized ``evaluate`` each."""
    return [self.evaluate(tiling) for tiling in tilings]


def _ga_sweep(prune: bool = False, serial: bool = False) -> dict:
    """One GA tuning sweep over every searchable (method, network) pair.

    ``serial`` routes every batch through the serial ``evaluate`` oracle
    instead of ``evaluate_batch``; without ``prune`` every objective the
    tuner makes is the unpruned oracle, ``SchedulerObjective(analytic_prune=
    False)``.  Both are undone afterwards so the sweep modes cannot leak into
    each other (or other benchmarks).
    """
    with pytest.MonkeyPatch.context() as patch:
        if not prune:
            patch.setattr(
                autotuner, "SchedulerObjective", partial(SchedulerObjective, analytic_prune=False)
            )
        if serial:
            patch.setattr(SchedulerObjective, "evaluate_batch", _serial_evaluate_batch)
        tuner = AutoTuner(
            simulated_edge_device(), strategy="ga", budget=SEARCH_THROUGHPUT_BUDGET, seed=0
        )
        start = time.perf_counter()
        results = {
            (method, network): tuner.tune(method, get_network(network).workload())
            for network in BENCH_NETWORKS
            for method in SEARCH_METHODS
        }
        elapsed = time.perf_counter() - start
    stats = {"num_simulated": 0, "num_infeasible": 0, "num_pruned": 0}
    candidates = 0
    for result in results.values():
        candidates += result.num_evaluations
        for key in stats:
            stats[key] += result.analytic_stats[key]
    return {
        "results": results,
        "elapsed_s": elapsed,
        "candidates": candidates,
        "candidates_per_s": candidates / max(elapsed, 1e-9),
        **stats,
    }


def _distinct_tilings(result: TuningResult) -> list:
    """The distinct candidates a tuning actually evaluated, in first-seen order."""
    seen = {}
    for rec in result.history.records:
        seen.setdefault(
            (rec.tiling.bb, rec.tiling.hh, rec.tiling.nq, rec.tiling.nkv, rec.tiling.kv_resident),
            rec.tiling,
        )
    return list(seen.values())


def test_search_throughput_analytic(benchmark):
    """Candidates/sec through the candidate-evaluation hot path, analytic vs serial.

    Three full GA sweeps over every searchable (method, network) pair gate the
    end-to-end behaviour.  The ``analytic`` sweep is the unpruned
    ``evaluate_batch`` oracle, which bounds nothing and takes the serial
    path, so it must reproduce the best tiling per pair of the ``legacy``
    sweep — every batch through the serial ``evaluate`` oracle —
    bit-identically; the default bound-pruned sweep must only skip
    simulations, never lose a winner.  The >=10x claim is then measured on
    the hot path itself: the same distinct candidates each sweep evaluated
    are pushed through the serial oracle (graph build + simulation per
    candidate) and through the vectorized ``analytic_bounds`` batch pass, and
    the two candidates/sec rates are compared.
    """
    legacy = _ga_sweep(serial=True)
    analytic = _ga_sweep()
    pruned = _ga_sweep(prune=True)

    # Bit-identity: unpruned batches evaluate exactly as the oracle does, so
    # the best tiling (and its value) per pair must match the serial oracle's.
    for pair, reference in legacy["results"].items():
        got = analytic["results"][pair]
        assert got.best_tiling == reference.best_tiling, pair
        assert got.best_value == reference.best_value, pair
    assert analytic["num_pruned"] == 0
    # Pruning may reshape the search trajectory but never crowns a pruned
    # candidate; its winner must stay within a whisker of the reference.
    worst_ratio = 1.0
    for pair, reference in legacy["results"].items():
        best = pruned["results"][pair].history.best
        assert best is not None and best.feasible and not best.pruned, pair
        worst_ratio = max(worst_ratio, best.value / reference.best_value)
    assert pruned["num_pruned"] > 0

    # Hot path: same distinct candidates, serial simulate vs batched analytic.
    pairs = []
    hot_candidates = 0
    for (method, network), result in analytic["results"].items():
        tilings = _distinct_tilings(result)
        hot_candidates += len(tilings)
        pairs.append((method, get_network(network).workload(), tilings))

    t_serial = 0.0
    for method, workload, tilings in pairs:
        objective = SchedulerObjective(make_scheduler(method, simulated_edge_device()), workload)
        start = time.perf_counter()
        for tiling in tilings:
            objective.evaluate(tiling)
        t_serial += time.perf_counter() - start

    def analytic_pass() -> int:
        total = 0
        for method, workload, tilings in pairs:
            scheduler = make_scheduler(method, simulated_edge_device())
            total += len(scheduler.analytic_bounds(workload, tilings).cycles)
        return total

    analytic_pass()  # warm the memoized cost models before timing
    reps = 5
    start = time.perf_counter()
    for _ in range(reps):
        assert analytic_pass() == hot_candidates
    t_analytic = (time.perf_counter() - start) / reps

    serial_rate = hot_candidates / max(t_serial, 1e-9)
    analytic_rate = hot_candidates / max(t_analytic, 1e-9)
    hot_speedup = analytic_rate / serial_rate
    assert hot_speedup >= 10.0, f"hot-path speedup {hot_speedup:.1f}x < 10x"

    benchmark.pedantic(analytic_pass, rounds=1, iterations=1)

    print()
    print(
        f"sweep: {len(SEARCH_METHODS)} methods x {len(BENCH_NETWORKS)} networks, "
        f"ga budget {SEARCH_THROUGHPUT_BUDGET}"
    )
    for mode, data in (("legacy", legacy), ("analytic", analytic), ("prune", pruned)):
        print(
            f"{mode:9s}: {data['elapsed_s']:6.2f} s  {data['candidates_per_s']:8.1f} cand/s  "
            f"(sim {data['num_simulated']}, pruned {data['num_pruned']})"
        )
    print(
        f"hot path : serial {serial_rate:.1f} cand/s vs analytic {analytic_rate:.1f} cand/s "
        f"-> {hot_speedup:.0f}x"
    )
    for mode, data in (("legacy", legacy), ("analytic", analytic), ("prune", pruned)):
        benchmark.extra_info[f"{mode}_candidates_per_s"] = round(data["candidates_per_s"], 1)
    benchmark.extra_info["hot_path_speedup"] = round(hot_speedup, 1)
    benchmark.extra_info["prune_worst_best_ratio"] = round(worst_ratio, 6)
