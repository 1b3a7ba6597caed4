"""One (method, workload-entry) tuning + simulation, the unit of sweep execution.

:func:`execute_pair` is the worker the
:class:`~repro.exec.runner.ExperimentRunner` calls inline (``jobs=1``) or
dispatches to its process pool.  Two properties make the fan-out safe:

* **deterministic per-pair seeding** — each pair derives its search seed from
  the (base seed, method, entry name) triple with :func:`pair_seed`, so a
  pair's result never depends on which process executed it or in which order;
* **self-contained specs** — a :class:`PairSpec` carries everything a worker
  needs (hardware config, the workload itself, budgets, cache location) and is
  picklable, so the same function runs unchanged in-process or in a
  ``ProcessPoolExecutor``.

A spec names any entry of a :class:`~repro.workloads.suites.WorkloadSuite` and
carries the entry's :class:`~repro.workloads.attention.AttentionWorkload`
directly; ``workload=None`` keeps the historical behaviour of resolving
``network`` against the Table-1 registry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.exec.cache import ResultCache, tuning_cache_key
from repro.hardware.config import HardwareConfig
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceContext
from repro.schedulers.registry import make_scheduler
from repro.search.autotuner import AutoTuner, TuningResult, default_strategy
from repro.search.objective import Metric
from repro.sim.trace import SimulationResult
from repro.workloads.attention import AttentionWorkload
from repro.workloads.networks import get_network

__all__ = ["MethodRun", "PairSpec", "execute_pair", "pair_seed"]


def pair_seed(seed: int, method: str, network: str) -> int:
    """Deterministic search seed for one (method, workload-entry) pair.

    ``network`` is the suite entry name (a Table-1 network name in the default
    suite).  Hash-derived (not ``hash()``, which is salted per process) so
    every process — serial runner, pool worker, a rerun next week — agrees on
    the seed, while distinct pairs get decorrelated search streams.  Suites
    that derive the same entry (same deterministic name, same workload) from
    different bases therefore also agree on the seed, which is what makes
    cross-suite cache reuse exact rather than approximate.
    """
    digest = hashlib.sha256(f"{seed}:{method}:{network}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class MethodRun:
    """One tuned-and-simulated (method, workload-entry) data point.

    ``network`` is the suite entry name — a Table-1 network name in the
    default suite, a derived name like ``"ViT-B/14 @b8"`` elsewhere.
    """

    scheduler: str
    network: str
    result: SimulationResult
    tuning: TuningResult | None = None
    #: Whether the tuning came from the persistent result cache (no search ran).
    cached: bool = False
    #: This pair's cache counters
    #: (``{"hits", "misses", "stale", "retry_attempts", "retry_giveups"}``).
    #: Each pair opens its own :class:`~repro.exec.cache.ResultCache` (in a
    #: pool worker, under ``jobs > 1``), so without this the parent runner
    #: could not account for lookups (or store retries) made on its behalf —
    #: :meth:`~repro.exec.runner.ExperimentRunner.cache_stats` aggregates it.
    #: ``None`` when no cache lookup happened (untuned/unsearchable pairs).
    store_stats: dict[str, int] | None = None

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def energy_pj(self) -> float:
        return self.result.energy_pj

    @property
    def tuned(self) -> bool:
        return self.tuning is not None


@dataclass(frozen=True)
class PairSpec:
    """Picklable description of one (method, workload-entry) run.

    ``strategy=None`` means the paper's per-device default; it is resolved
    here (not in the worker's :class:`AutoTuner`) so the cache key is stable.
    """

    hardware: HardwareConfig
    method: str
    #: Suite entry name (a Table-1 network name in the default suite).
    network: str
    budget: int
    strategy: str | None = None
    metric: Metric = "cycles"
    seed: int = 0
    use_search: bool = True
    #: Persistent result-store target: a directory path (JSON-file store) or
    #: a store URI such as ``http://host:8787`` (see :mod:`repro.store.uri`).
    cache_uri: str | None = None
    use_cache: bool = True
    #: Suite name recorded in stored entry metadata (never part of the key).
    suite: str | None = None
    #: The entry's attention workload.  ``None`` resolves ``network`` against
    #: the Table-1 registry (the historical behaviour, and still what bare
    #: network names mean outside any suite).
    workload: AttentionWorkload | None = None
    #: The submitting sweep's span context (see :mod:`repro.obs.trace`), so a
    #: pool worker's "pair" span parents onto the runner's "sweep" span across
    #: the process boundary.  Pure telemetry: never part of the cache key,
    #: never consulted by the search.
    trace: TraceContext | None = None


def execute_pair(spec: PairSpec) -> MethodRun:
    """Tune (cache-aware, if enabled) and simulate one (method, entry) pair.

    The whole pair runs inside a "pair" span parented on ``spec.trace`` (the
    sweep's span, possibly from another process); the span buffer is flushed
    before returning so pool workers never hold spans hostage.
    """
    with obs_trace.span(
        "pair",
        layer="runner",
        parent=spec.trace,
        method=spec.method,
        network=spec.network,
    ) as span:
        run = _execute_pair_traced(spec)
        span.set(cached=run.cached)
    obs_trace.flush()
    return run


def _execute_pair_traced(spec: PairSpec) -> MethodRun:
    if spec.workload is not None:
        workload = spec.workload
        entry_name = spec.network or workload.name
    else:
        config = get_network(spec.network)
        workload = config.workload()
        entry_name = config.name
    scheduler = make_scheduler(spec.method, spec.hardware)

    tuning: TuningResult | None = None
    cached = False
    store_stats: dict[str, int] | None = None
    if spec.use_search and scheduler.searchable:
        strategy = spec.strategy or default_strategy(spec.hardware)
        # scheduler.name, not spec.method: the registry lookup is
        # case-insensitive, and the seed must not depend on the spelling.
        seed = pair_seed(spec.seed, scheduler.name, entry_name)
        cache = ResultCache(spec.cache_uri, enabled=spec.use_cache)
        # Every search is bound-pruned; the key's schema version (v4) keeps
        # tunings stored by the unpruned search from being served.
        key = tuning_cache_key(
            spec.hardware, scheduler.name, workload, strategy, spec.budget, spec.metric, seed
        )
        try:
            tuning = cache.load(key)
            if tuning is None:
                tuner = AutoTuner(
                    spec.hardware,
                    strategy=strategy,
                    budget=spec.budget,
                    metric=spec.metric,
                    seed=seed,
                )
                tuning = tuner.tune(scheduler, workload)
                cache.store(key, tuning, suite=spec.suite)
            else:
                cached = True
            if cache.enabled:
                store_stats = cache.stats()
                for name in ("retry_attempts", "retry_giveups"):
                    # Only an HttpStore retries; it counts its own retries.
                    store_stats[name] = getattr(cache.backend, name, 0)
        finally:
            # Always release the backend (an HTTP store's keep-alive socket)
            # before returning.
            cache.close()
        tiling = tuning.best_tiling
    else:
        tiling = scheduler.default_tiling(workload)

    result = scheduler.simulate(workload, tiling)
    return MethodRun(
        scheduler=scheduler.name,
        network=entry_name,
        result=result,
        tuning=tuning,
        cached=cached,
        store_stats=store_stats,
    )
