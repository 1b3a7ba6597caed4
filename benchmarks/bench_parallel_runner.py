"""Serial-vs-parallel wall time and cold-vs-warm cache time for the sweep runner.

Runs the same (method, network) tuning+simulation matrix four ways — serial,
process-pool parallel, cold persistent cache and warm persistent cache —
checks that all four produce identical results, and reports the wall times.
The warm-cache sweep is the benchmarked path: it must perform zero search
evaluations and is the steady state of repeated table/figure regeneration.

A second benchmark measures *intra-pair* scaling: one (method, network)
tuning with a large budget, evaluated candidate-batch-parallel
(``search_workers``) versus serial, with bit-identical results required.

A third axis is lock contention: ``test_service_lock_concurrency`` drives
concurrent client threads against one :class:`~repro.service.StoreService`
over distinct keys and gates the striped per-key locking's throughput
against the old single-global-lock behaviour (``stripes=1``).

``test_tracing_overhead`` gates the observability layer itself: the same
sweep traced (``MAS_TRACE``-equivalent, 64-span buffer) versus untraced
must stay within 5% wall time with bit-identical results.

Scale knobs: ``MAS_BENCH_BUDGET`` (search budget), ``MAS_BENCH_NETWORKS``
(network subset; defaults to three Table-1 networks here so the four sweeps
stay quick), ``MAS_BENCH_JOBS`` (worker processes for the parallel sweep),
``MAS_BENCH_SEARCH_WORKERS`` and ``MAS_BENCH_INTRA_BUDGET`` (intra-pair
scaling benchmark), ``MAS_BENCH_LOCK_THREADS`` (lock-contention clients).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any

import pytest

from repro.exec import ExperimentRunner, MethodRun
from repro.hardware.presets import simulated_edge_device
from repro.obs import trace as obs_trace
from repro.obs.export import read_trace
from repro.obs.schema import validate_trace_file
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.search.autotuner import AutoTuner, TuningResult
from repro.search.objective import SchedulerObjective
from repro.service import StoreService, running_server, server_url
from repro.store import JsonDirStore, SqliteStore, migrate_store
from repro.store.base import EntryInfo, ResultStore
from repro.store.schema import make_payload
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
INTRA_BUDGET = env.int_value("MAS_BENCH_INTRA_BUDGET")
SEARCH_THROUGHPUT_BUDGET = env.int_value("MAS_BENCH_SEARCH_BUDGET")
LOCK_THREADS = env.int_value("MAS_BENCH_LOCK_THREADS")
#: The dataflows whose tiling space the tuner actually searches.
SEARCH_METHODS = [name for name, cls in ALL_SCHEDULERS.items() if cls.searchable]
#: Perf records (one top-level key per benchmark) — the trajectories future
#: PRs regress the candidate-evaluation and service-locking paths against.
BENCH_SEARCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_search.json"


def _merge_bench_record(name: str, record: dict) -> None:
    """Merge one named record into ``BENCH_search.json``, preserving the rest.

    The file began life as a single flat search-throughput record; that
    legacy shape is re-nested under ``"search_throughput"`` on first contact
    so every benchmark owns exactly one top-level key and reruns of one
    benchmark never clobber another's trajectory.
    """
    merged: dict[str, Any] = {}
    if BENCH_SEARCH_JSON.exists():
        existing = json.loads(BENCH_SEARCH_JSON.read_text())
        if isinstance(existing, dict):
            merged = {"search_throughput": existing} if "benchmark" in existing else existing
    merged[name] = record
    BENCH_SEARCH_JSON.write_text(json.dumps(merged, indent=2) + "\n")


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

    # The gate the assert below actually applies is relative ratio PLUS the
    # absolute noise floor; record all of it explicitly so the stored JSON
    # is self-explanatory (overhead_ratio may exceed gate_ratio and still
    # pass — the floor absorbs the difference on short sweeps).
    gate_s = t_plain * TRACE_OVERHEAD_RATIO + TRACE_NOISE_FLOOR_S
    effective_gate_ratio = gate_s / max(t_plain, 1e-9)
    passed = t_traced <= gate_s
    record = {
        "benchmark": "tracing-overhead",
        "budget": SEARCH_BUDGET,
        "networks": networks,
        "buffer_spans": 64,
        "untraced_s": round(t_plain, 3),
        "traced_s": round(t_traced, 3),
        "overhead_ratio": round(overhead, 4),
        "gate_ratio": TRACE_OVERHEAD_RATIO,
        "noise_floor_s": TRACE_NOISE_FLOOR_S,
        "gate_s": round(gate_s, 3),
        "effective_gate_ratio": round(effective_gate_ratio, 4),
        "passed": passed,
    }
    _merge_bench_record("tracing_overhead", record)

    print()
    print(f"matrix: {len(networks)} network x 6 methods, budget {SEARCH_BUDGET}")
    print(f"untraced          : {t_plain:8.2f} s")
    print(f"traced (buffer=64): {t_traced:8.2f} s  ({(overhead - 1) * 100:+.1f}%)")
    print(
        f"gate              : {gate_s:8.2f} s  (x{TRACE_OVERHEAD_RATIO} + "
        f"{TRACE_NOISE_FLOOR_S}s floor = x{effective_gate_ratio:.3f} effective)"
    )
    benchmark.extra_info.update(record)

    assert passed, (
        f"traced sweep {t_traced:.2f}s exceeds the gate {gate_s:.2f}s "
        f"({TRACE_OVERHEAD_RATIO:.0%} of untraced {t_plain:.2f}s "
        f"+ {TRACE_NOISE_FLOOR_S}s floor)"
    )


def test_result_store_backends(benchmark, tmp_path_factory):
    """Warm-sweep wall time per store backend: JSON directory, SQLite, HTTP.

    One cold sweep populates a JSON-directory cache, which is then migrated
    (zero entry loss) into a SQLite store; that store is additionally served
    over a local ``mas-attention serve``-equivalent HTTP service.  All three
    backends must serve a bit-identical warm sweep with zero searches.  The
    benchmarked path is the SQLite warm sweep — the shared-store steady
    state — with the HTTP warm sweep reported alongside as the fleet
    steady state (its delta over SQLite is the round-trip cost).
    """
    root = tmp_path_factory.mktemp("store-bench")
    kwargs = dict(search_budget=SEARCH_BUDGET, seed=0)

    t_cold, cold = _timed_matrix(ExperimentRunner(**kwargs, cache_dir=root / "jsondir"))
    reference = _fingerprint(cold)

    report = migrate_store(
        JsonDirStore(root / "jsondir"), SqliteStore(root / "store.db")
    )
    assert not report.skipped_stale

    def warm(uri: str) -> tuple[float, dict, dict]:
        runner = ExperimentRunner(**kwargs, cache_uri=uri)
        elapsed, matrix = _timed_matrix(runner)
        return elapsed, matrix, runner.cache_stats()

    t_dir, warm_dir, dir_stats = warm(f"dir:{root / 'jsondir'}")
    t_db, warm_db, db_stats = warm(f"sqlite:///{root / 'store.db'}")
    assert _fingerprint(warm_dir) == reference
    assert _fingerprint(warm_db) == reference
    assert dir_stats["searches"] == db_stats["searches"] == 0
    assert dir_stats["cache_misses"] == db_stats["cache_misses"] == 0

    with running_server(SqliteStore(root / "store.db")) as server:
        t_http, warm_http, http_stats = warm(server_url(server))
        assert _fingerprint(warm_http) == reference
        assert http_stats["searches"] == 0 and http_stats["cache_misses"] == 0
        service_metrics = server.service.metrics.snapshot()

    result = benchmark.pedantic(
        lambda: warm(f"sqlite:///{root / 'store.db'}")[1], rounds=1, iterations=1
    )
    assert _fingerprint(result) == reference

    print()
    print(f"matrix: {len(BENCH_NETWORKS)} networks x 6 methods, budget {SEARCH_BUDGET}")
    print(f"cold (jsondir)    : {t_cold:8.2f} s  ({report.migrated} entries migrated)")
    print(f"warm jsondir      : {t_dir:8.2f} s")
    print(f"warm sqlite       : {t_db:8.2f} s")
    print(
        f"warm http         : {t_http:8.2f} s  "
        f"({service_metrics['hits']} served hits, "
        f"{service_metrics['requests']['POST /lookup']['mean_ms']:.2f} ms/lookup)"
    )
    benchmark.extra_info["cold_s"] = round(t_cold, 3)
    benchmark.extra_info["warm_jsondir_s"] = round(t_dir, 3)
    benchmark.extra_info["warm_sqlite_s"] = round(t_db, 3)
    benchmark.extra_info["warm_http_s"] = round(t_http, 3)
    benchmark.extra_info["http_mean_lookup_ms"] = round(
        service_metrics["requests"]["POST /lookup"]["mean_ms"], 3
    )
    benchmark.extra_info["migrated_entries"] = report.migrated


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
    instead of the analytic pre-pass; ``prune`` turns on bound pruning.  Both
    are undone afterwards so the sweep modes cannot leak into each other (or
    other benchmarks).
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MAS_ANALYTIC_PRUNE", "1" if prune else "0")
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
    end-to-end behaviour: the analytic pre-pass (default) must reproduce the
    best tiling per pair of the ``legacy`` sweep — every batch through the
    serial ``evaluate`` oracle — bit-identically, and the opt-in bound-pruned
    sweep must only skip simulations, never lose a winner.  The >=10x claim
    is then measured on the hot path itself: the same distinct candidates
    each sweep evaluated are pushed through the serial oracle (graph build +
    simulation per candidate) and through the vectorized ``analytic_bounds``
    batch pass, and the two candidates/sec rates are compared.  Everything
    lands in ``BENCH_search.json`` so future PRs have a trajectory to regress
    against.
    """
    legacy = _ga_sweep(serial=True)
    analytic = _ga_sweep()
    pruned = _ga_sweep(prune=True)

    # Bit-identity: the pre-pass only short-circuits infeasibles, so the best
    # tiling (and its value) per pair must match the serial oracle's.
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
            total += len(scheduler.analytic_bounds(workload, tilings))
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

    record = {
        "benchmark": "search-throughput",
        "strategy": "ga",
        "budget": SEARCH_THROUGHPUT_BUDGET,
        "seed": 0,
        "networks": BENCH_NETWORKS,
        "methods": SEARCH_METHODS,
        "sweep": {
            mode: {
                "elapsed_s": round(data["elapsed_s"], 3),
                "candidates": data["candidates"],
                "candidates_per_s": round(data["candidates_per_s"], 1),
                "num_simulated": data["num_simulated"],
                "num_infeasible": data["num_infeasible"],
                "num_pruned": data["num_pruned"],
            }
            for mode, data in (("legacy", legacy), ("analytic", analytic), ("prune", pruned))
        },
        "prune_speedup_vs_legacy": round(
            pruned["candidates_per_s"] / legacy["candidates_per_s"], 2
        ),
        "prune_worst_best_ratio": round(worst_ratio, 6),
        "hot_path": {
            "candidates": hot_candidates,
            "serial_s": round(t_serial, 3),
            "analytic_s": round(t_analytic, 6),
            "serial_candidates_per_s": round(serial_rate, 1),
            "analytic_candidates_per_s": round(analytic_rate, 1),
            "speedup": round(hot_speedup, 1),
        },
        "identical_best_analytic_vs_legacy": True,
    }
    _merge_bench_record("search_throughput", record)

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
    benchmark.extra_info.update(record["sweep"])
    benchmark.extra_info["hot_path"] = record["hot_path"]
    benchmark.extra_info["prune_speedup_vs_legacy"] = record["prune_speedup_vs_legacy"]


class _SlowMemoryStore(ResultStore):
    """In-memory store whose reads stall a fixed ~2 ms, standing in for I/O.

    The lock benchmark must measure the *service's* locking, not a backend's
    own serialization (SQLite write locks, filesystem round trips), so the
    backend is a plain dict plus a deterministic artificial read latency —
    long enough to dwarf lock bookkeeping, short enough to keep the
    benchmark sub-second.
    """

    def __init__(self, read_delay_s: float) -> None:
        super().__init__()
        self._read_delay_s = read_delay_s
        self._data: dict[str, dict[str, Any]] = {}
        self._clock = 0

    def uri(self) -> str:
        return "slowmem:"

    def read(self, key: str) -> dict[str, Any] | None:
        time.sleep(self._read_delay_s)
        return self._data.get(key)

    def write(self, key: str, payload: dict[str, Any]) -> None:
        self._data[key] = payload
        self.touch(key)

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def keys(self) -> list[str]:
        return sorted(self._data)

    def touch(self, key: str) -> None:
        # A logical clock keeps LRU order deterministic without real time.
        self._clock += 1

    def _list_entries(self) -> list[EntryInfo]:
        return [
            EntryInfo(
                key=key,
                schema=payload.get("schema"),
                scheduler=None,
                workload=None,
                strategy=None,
                suite=None,
                size_bytes=len(json.dumps(payload)),
                last_used=float(self._clock),
            )
            for key, payload in self._data.items()
        ]


#: Per-key lookups each client thread issues in the lock benchmark.
LOCK_OPS_PER_THREAD = 50
_LOCK_READ_DELAY_S = 0.002


def _lock_throughput(stripes: int) -> float:
    """Lookups/sec through one ``StoreService`` under concurrent clients.

    ``LOCK_THREADS`` threads each sweep their own disjoint key range, so
    with per-key locking no two clients ever contend on a stripe; with
    ``stripes=1`` (the pre-refactor global lock) every lookup serializes
    behind every other and throughput collapses to one backend read at a
    time.
    """
    service = StoreService(_SlowMemoryStore(_LOCK_READ_DELAY_S), stripes=stripes)
    for tid in range(LOCK_THREADS):
        for i in range(LOCK_OPS_PER_THREAD):
            key = f"bench/lock/{tid}/{i}"
            service.write(key, make_payload(key, {"best_value": 1.0}, suite="bench"))

    barrier = threading.Barrier(LOCK_THREADS + 1)
    statuses: list[str] = []

    def client(tid: int) -> None:
        mine = [f"bench/lock/{tid}/{i}" for i in range(LOCK_OPS_PER_THREAD)]
        barrier.wait()
        got = [service.lookup(key)[1] for key in mine]
        statuses.extend(got)  # list.extend is atomic under the GIL

    threads = [
        threading.Thread(target=client, args=(tid,), name=f"lock-bench-{tid}")
        for tid in range(LOCK_THREADS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    ops = LOCK_THREADS * LOCK_OPS_PER_THREAD
    assert len(statuses) == ops and set(statuses) == {"hit"}
    return ops / max(elapsed, 1e-9)


def test_service_lock_concurrency(benchmark):
    """Striped per-key locking vs the old global lock, concurrent distinct keys.

    ``LOCK_THREADS`` client threads hammer one service over disjoint keys; a
    2 ms simulated backend read makes lock *hold time* the dominant cost.
    The striped service must clear at least twice the global-lock baseline's
    throughput — anything less means per-key operations still queue behind
    each other and the refactor regressed to a de-facto global lock.
    """
    global_rate = _lock_throughput(stripes=1)
    striped_rate = _lock_throughput(stripes=64)
    speedup = striped_rate / max(global_rate, 1e-9)

    benchmark.pedantic(lambda: _lock_throughput(stripes=64), rounds=1, iterations=1)

    record = {
        "benchmark": "service-lock-concurrency",
        "threads": LOCK_THREADS,
        "ops_per_thread": LOCK_OPS_PER_THREAD,
        "read_delay_ms": _LOCK_READ_DELAY_S * 1e3,
        "global_lock_ops_per_s": round(global_rate, 1),
        "striped_ops_per_s": round(striped_rate, 1),
        "speedup": round(speedup, 2),
    }
    _merge_bench_record("service_lock", record)

    print()
    print(f"clients: {LOCK_THREADS} threads x {LOCK_OPS_PER_THREAD} lookups, distinct keys")
    print(f"global lock (stripes=1) : {global_rate:8.1f} lookups/s")
    print(f"striped (stripes=64)    : {striped_rate:8.1f} lookups/s  ({speedup:.1f}x)")

    benchmark.extra_info.update(record)
    assert speedup >= 2.0, f"striped-lock speedup {speedup:.2f}x < 2x over global lock"
