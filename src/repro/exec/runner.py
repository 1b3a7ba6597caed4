"""The experiment driver: tune + simulate (method, network) matrices.

Table 2, Table 3, Figure 6 and Figure 7 all report the *same* runs — each
method tuned per network and then simulated with its best tiling — so the
:class:`ExperimentRunner` owns those runs and memoizes them in-process, and
the individual harnesses only reshape the results into their table/figure
form.  On top of that the runner offers:

* a persistent result store (``cache_uri`` / ``$MAS_CACHE_URI``; a JSON
  directory or a served one, see :mod:`repro.store`) so repeated sweeps
  across process starts skip the tiling search entirely;
* ``jobs``: fan the matrix out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=1`` runs pairs
  inline).  Per-pair seeds are derived deterministically
  (:func:`~repro.exec.pairs.pair_seed`), so parallel results are
  bit-identical to serial ones;
* a streaming sweep API — ``iter_matrix`` yields each completed
  :class:`MethodRun` as it finishes (``as_completed`` order) so harnesses
  can render incrementally.

Each pair's tiling search runs in the process that executes the pair, so
``jobs`` is the one way a sweep uses more cores.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.exec.pairs import MethodRun, PairSpec, execute_pair
from repro.obs import trace as obs_trace
from repro.hardware.config import HardwareConfig
from repro.hardware.presets import simulated_edge_device
from repro.schedulers.registry import get_scheduler, list_schedulers
from repro.store import HttpStore, open_store, resolve_store_target
from repro.store.http import UNREACHABLE_ERRORS
from repro.utils.validation import check_positive_int
from repro.workloads.attention import AttentionWorkload
from repro.workloads.suites import WorkloadSuite, get_suite

__all__ = ["MethodRun", "ExperimentRunner", "DEFAULT_METHOD_ORDER"]

#: Method order used by the paper's tables (MAS-Attention last).
DEFAULT_METHOD_ORDER: tuple[str, ...] = (
    "layerwise",
    "softpipe",
    "flat",
    "tileflow",
    "fusemax",
    "mas",
)


@dataclass
class ExperimentRunner:
    """Runs and caches tuned simulations for a set of methods and networks.

    Parameters
    ----------
    hardware:
        Device preset (the simulated edge device by default).
    search_budget:
        Evaluation budget of the tiling search per (method, network) pair.
        The paper runs ~10K iterations; the default here is far smaller so the
        benchmark suite finishes in minutes, and the convergence behaviour is
        already visible (Figure 7 reproduces the trend, not the exact budget).
    search_strategy:
        Auto-tuner strategy; ``None`` picks the paper's choice per device
        (``mcts+ga`` on the simulated edge device, ``grid`` on DaVinci-like).
    use_search:
        When false, every method uses its heuristic default tiling instead of
        searched tilings (fast mode for tests).
    seed:
        Base seed; each (method, network) pair derives its own search seed
        from it, independent of execution order.
    cache_uri:
        Result-store URI or directory — a plain path or ``dir:/path`` (the
        JSON-file backend) or ``http://host:8787`` (a running
        ``mas-attention serve``), optionally with
        ``?max_entries=``/``?max_bytes=`` eviction caps (see
        :mod:`repro.store.uri`).  The store target resolves as
        ``cache_uri``, else ``$MAS_CACHE_URI``
        (:func:`~repro.store.resolve_store_target`, the rule the CLI uses
        too); with neither set, results stay in-memory only.  Every
        worker process carries its own store counters back to the parent
        through :attr:`MethodRun.store_stats`, HTTP-backed sweeps included,
        so :meth:`cache_stats` accounting is backend-independent.
    use_cache:
        Off switch for the persistent store even when a target is set: the
        runner then neither probes the store nor hands its pairs one.
    suite:
        The workload suite swept by this runner: a
        :class:`~repro.workloads.suites.WorkloadSuite`, a suite-spec string
        (``"table1-batched"``, ``"table1@batch=8"``,
        ``"long-context@seq<=8192"``, ...) or ``None`` for the Table-1 default
        — which is exactly the historical behaviour, entry for entry.
    jobs:
        Worker processes for the (method, network) matrix.  ``1`` (the
        default) runs every pair inline in this process; more fans the
        not-yet-memoized pairs over a process pool.  Because every pair is
        executed by the same :func:`execute_pair` with the same derived seed,
        results are identical at any ``jobs``.
    """

    hardware: HardwareConfig = field(default_factory=simulated_edge_device)
    search_budget: int = 60
    search_strategy: str | None = None
    use_search: bool = True
    seed: int = 0
    cache_uri: str | Path | None = None
    use_cache: bool = True
    suite: str | WorkloadSuite | None = None
    jobs: int = 1
    _runs: dict[tuple[str, str], MethodRun] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.search_budget, "search_budget")
        check_positive_int(self.jobs, "jobs")
        # Fail fast on a malformed store URI (explicit or from the
        # environment) instead of erroring later inside pool workers:
        # opening a store is lazy/cheap and raises on bad schemes or policies.
        # An HTTP store is additionally pinged, so an unreachable/mistyped
        # service address fails the run here with one clear error instead of
        # surfacing as a retry-exhausted failure inside every pool worker.
        # With the cache switched off no store will ever be opened, so a
        # broken URI must not block the run either (--no-cache is the escape
        # hatch from exactly that kind of misconfiguration).
        if self.use_cache:
            probe = open_store(self.cache_target)
            if probe is not None:
                try:
                    if isinstance(probe, HttpStore):
                        try:
                            probe.ping()
                        except UNREACHABLE_ERRORS as exc:
                            raise ValueError(
                                f"result-store service unreachable at "
                                f"{probe.uri()}: {exc} (is 'mas-attention "
                                "serve' running? --no-cache bypasses it)"
                            ) from exc
                finally:
                    probe.close()
        self._workload_suite = get_suite(self.suite if self.suite is not None else "table1")

    @property
    def suite_name(self) -> str:
        """Name of the resolved suite (``"table1"`` by default)."""
        return self._workload_suite.name

    @property
    def cache_target(self) -> str | None:
        """The resolved persistent-store target of this runner: explicit
        ``cache_uri``, else ``$MAS_CACHE_URI``."""
        return resolve_store_target(self.cache_uri)

    # ------------------------------------------------------------------ #
    def methods(self, subset: list[str] | None = None) -> list[str]:
        """Method names in table order, optionally restricted to ``subset``."""
        order = [m for m in DEFAULT_METHOD_ORDER if m in list_schedulers()]
        if subset is None:
            return order
        unknown = [m for m in subset if m not in order]
        if unknown:
            raise KeyError(f"unknown methods {unknown}; available: {order}")
        return [m for m in order if m in subset]

    def networks(self, subset: list[str] | None = None) -> list[str]:
        """Suite entry names in suite order, optionally restricted to ``subset``.

        Mirrors :meth:`methods`: unknown names raise a clear :class:`KeyError`
        (with alias/prefix matching, as everywhere else), duplicates are
        dropped, and the result always comes back in canonical suite order —
        Table-1 order for the default suite.
        """
        order = self._workload_suite.entry_names()
        if subset is None:
            return order
        requested = {self._workload_suite.get_entry(name).name for name in subset}
        return [name for name in order if name in requested]

    def workload_for(self, network: str) -> AttentionWorkload:
        """The attention workload of one suite entry (alias/prefix lookup)."""
        return self._workload_suite.workload_for(network)

    # ------------------------------------------------------------------ #
    def pair_spec(self, method: str, network: str) -> PairSpec:
        """The :class:`PairSpec` this runner would execute for one pair."""
        entry = self._workload_suite.get_entry(network)
        return PairSpec(
            hardware=self.hardware,
            method=method,
            network=entry.name,
            workload=entry.workload,
            budget=self.search_budget,
            strategy=self.search_strategy,
            seed=self.seed,
            use_search=self.use_search,
            cache_uri=self.cache_target if self.use_cache else None,
            suite=self.suite_name,
            # The enclosing sweep span (if tracing is on), so pair spans parent
            # onto the sweep even from pool-worker processes.
            trace=obs_trace.current_context(),
        )

    def run(self, method: str, network: str) -> MethodRun:
        """Tune (if enabled) and simulate ``method`` on one entry (memoized)."""
        method = get_scheduler(method).name
        name = self._workload_suite.get_entry(network).name
        key = (method, name)
        if key in self._runs:
            return self._runs[key]
        run = execute_pair(self.pair_spec(method, name))
        self._runs[key] = run
        return run

    def iter_matrix(
        self,
        networks: list[str] | None = None,
        methods: list[str] | None = None,
    ) -> Iterator[MethodRun]:
        """Yield each (method, network) :class:`MethodRun` as it completes.

        The streaming counterpart of :meth:`run_matrix`: every yielded run is
        memoized exactly as if :meth:`run` had produced it, and the set of
        runs is identical to the matrix — only the delivery is incremental.

        With ``jobs > 1`` already-memoized pairs come first, then fresh runs
        in completion (``as_completed``) order.  Inline (``jobs=1``) sweeps
        complete in suite order (Table-1 order for the default suite).

        The whole sweep runs inside one "sweep" span (a no-op unless
        ``$MAS_TRACE`` is set); every pair span — local or in a pool
        worker — parents onto it via :attr:`PairSpec.trace`.
        """
        network_names = self.networks(networks)
        method_names = self.methods(methods)
        with obs_trace.span(
            "sweep",
            layer="runner",
            suite=self.suite_name,
            jobs=self.jobs,
            pairs=len(network_names) * len(method_names),
        ):
            yield from self._iter_runs(network_names, method_names)

    def _iter_runs(
        self,
        networks: list[str],
        methods: list[str],
    ) -> Iterator[MethodRun]:
        """Execution body of :meth:`iter_matrix` (already inside the span)."""
        order = [(method, network) for network in networks for method in methods]
        pending = [pair for pair in order if pair not in self._runs]
        if self.jobs <= 1 or len(pending) <= 1:
            for method, network in order:
                yield self.run(method, network)
            return
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        try:
            futures = {
                pool.submit(execute_pair, self.pair_spec(method, network)): (method, network)
                for method, network in pending
            }
            for pair in order:
                if pair in self._runs:
                    yield self._runs[pair]
            for future in as_completed(futures):
                run = future.result()
                self._runs[futures[future]] = run
                yield run
        finally:
            # Abandoning the generator early (break / close) must not block
            # for the whole remaining matrix: drop the not-yet-started pairs
            # and wait only for the in-flight ones.
            pool.shutdown(wait=True, cancel_futures=True)

    def run_matrix(
        self,
        networks: list[str] | None = None,
        methods: list[str] | None = None,
    ) -> dict[str, dict[str, MethodRun]]:
        """All (network, method) runs as ``{network: {method: MethodRun}}``."""
        network_names = self.networks(networks)
        method_names = self.methods(methods)
        for _ in self.iter_matrix(network_names, method_names):
            pass  # drain the stream; every run lands in the memo table
        return {
            network: {method: self._runs[(method, network)] for method in method_names}
            for network in network_names
        }

    def cache_stats(self) -> dict[str, int]:
        """Search/cache accounting over every run executed so far.

        ``search_evaluations`` counts only evaluations actually performed for
        this runner — a warm-cache sweep reports zero even though the cached
        histories carry their original evaluation records.  It reports the
        objective-level count (every non-memoized candidate, infeasible ones
        included), not the history length, which double-counts memoized
        re-visits and used to *under*-count infeasible simulations.

        ``cache_hits`` / ``cache_misses`` / ``cache_stale`` aggregate the
        store counters each run's *executing process* recorded
        (:attr:`MethodRun.store_stats`) — pool workers (``jobs > 1``) open
        their own cache, so summing the parent's own counters (which are
        always zero there) would undercount every parallel sweep.
        ``retry_attempts`` / ``retry_giveups`` aggregate the same way:
        transient store failures that each pair's HTTP store backed off and
        retried, or gave up on.

        ``search_simulated`` / ``search_shared`` / ``search_infeasible`` /
        ``search_pruned`` break ``search_evaluations`` down by how the search
        dispatched each candidate: full simulation, answered from the
        simulation of an earlier candidate with the same graph key, rejected
        by the scheduler's ``fits`` (or its build), or skipped because its
        analytic lower bound lost to the incumbent.  A stored tuning made
        before sharing existed counts 0 shared.
        """
        runs = list(self._runs.values())
        searched = [r for r in runs if r.tuned and not r.cached]
        store_totals = {"hits": 0, "misses": 0, "stale": 0}
        for run in runs:
            for counter, count in (run.store_stats or {}).items():
                store_totals[counter] = store_totals.get(counter, 0) + count
        analytic_totals = {
            "num_simulated": 0, "num_shared": 0, "num_infeasible": 0, "num_pruned": 0
        }
        for run in searched:
            for counter in analytic_totals:
                analytic_totals[counter] += run.tuning.analytic_stats.get(counter, 0)
        return {
            "runs": len(runs),
            "cache_hits": sum(1 for r in runs if r.cached),
            "cache_misses": store_totals["misses"],
            "cache_stale": store_totals["stale"],
            "retry_attempts": store_totals.get("retry_attempts", 0),
            "retry_giveups": store_totals.get("retry_giveups", 0),
            "searches": len(searched),
            "search_evaluations": sum(r.tuning.objective_evaluations for r in searched),
            "search_simulated": analytic_totals["num_simulated"],
            "search_shared": analytic_totals["num_shared"],
            "search_infeasible": analytic_totals["num_infeasible"],
            "search_pruned": analytic_totals["num_pruned"],
        }


def ParallelRunner(
    *, search_workers: int = 1, cache_dir: str | Path | None = None, **kwargs: Any
) -> ExperimentRunner:
    """An :class:`ExperimentRunner` built from ``kwargs``, under the old name.

    Kept only because the sweep benchmark (``perfbench/sweep.py``) calls this
    name with ``search_workers=1`` and names its store directory
    ``cache_dir``, which becomes ``cache_uri``; delete it once that script
    builds an ``ExperimentRunner``.  A tiling search runs in its pair's
    process, so any other worker count is refused.
    """
    if search_workers != 1:
        raise ValueError(
            f"search_workers must be 1, got {search_workers!r}: each tiling search "
            "runs in its pair's process (use jobs= to spread pairs over processes)"
        )
    return ExperimentRunner(cache_uri=cache_dir, **kwargs)
