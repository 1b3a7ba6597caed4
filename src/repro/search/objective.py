"""Candidate evaluation for the tiling search.

Every candidate tiling is evaluated by building the scheduler's task graph and
running the analytical simulator — the same "evaluate with Timeloop/Accelergy
and feed the result back to the search" loop the paper describes.  One rule
decides whether a candidate can run at all,
:meth:`~repro.schedulers.base.AttentionScheduler.fits`: a baseline's
footprint must fit L1, and MAS-Attention's only limit is its non-evictable
residency.  A rejected candidate is reported as infeasible without building a
graph and receives an infinite objective so the searchers steer away from it.

Batch evaluation also prunes: a candidate that fits but whose lower bound
(:meth:`~repro.schedulers.base.AttentionScheduler.analytic_bounds`) on the
objective already loses to the incumbent skips its simulation, so it can
never be reported as the winner.  One bound call per search fills a table for
its whole candidate grid.  ``analytic_prune=False`` keeps the unpruned batch
path as the tests' oracle: memo table, evaluation counts and returned values
are bit-identical to calling the serial, memoized :meth:`evaluate` on each.

A candidate that fits and is not pruned is simulated once per graph: tilings
with equal :meth:`~repro.schedulers.base.AttentionScheduler.graph_key` build
identical graphs, so a later one is answered from the first one's simulation
(a *shared* evaluation, with its own tiling).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from repro.core.analytic import TilingBatch
from repro.core.overwrite import InfeasibleTilingError
from repro.core.tiling import TilingConfig
from repro.obs import trace as obs_trace
from repro.schedulers.base import AttentionScheduler
from repro.search.space import TilingSearchSpace
from repro.workloads.attention import AttentionWorkload

__all__ = ["TilingEvaluation", "SchedulerObjective"]

#: Candidates per pruning wave in :meth:`SchedulerObjective.evaluate_batch`.
#: Between waves the incumbent is re-checked, so early winners prune the rest
#: of a large batch.  The wave size is part of the search's definition: it
#: decides which candidates are simulated and which bounds the GA and MCTS
#: rank, so changing it changes search results.
PRUNE_WAVE = 8


@dataclass(frozen=True)
class TilingEvaluation:
    """Outcome of evaluating one tiling candidate.

    Scalars only: a feasible evaluation is one simulation, or a share of one
    whose tiling builds the same graph, and its trace is dropped so the memo
    table, which keeps every evaluation of a search, stays small
    (re-simulate the tiling when the trace itself is wanted).
    """

    tiling: TilingConfig
    feasible: bool
    cycles: int
    energy_pj: float
    value: float
    #: True when the candidate was never simulated because its analytic lower
    #: bound already lost to the incumbent.  ``value`` then holds that bound —
    #: a finite underestimate that keeps ranking signals for the stochastic
    #: searchers while remaining >= the incumbent (and therefore >= the final
    #: best), so a pruned candidate can never be reported as the winner.
    pruned: bool = False

    def better_than(self, other: "TilingEvaluation | None") -> bool:
        """Whether this evaluation improves on ``other`` (``None`` counts as worse)."""
        if other is None:
            return True
        return self.value < other.value


class SchedulerObjective:
    """Callable objective: tiling -> simulated cycles for one scheduler/workload pair.

    The search minimises execution cycles, the paper's objective: a feasible
    evaluation's value is its simulated cycle count.

    Parameters
    ----------
    scheduler:
        The dataflow being tuned.
    workload:
        The attention shape being tuned for.
    analytic_prune:
        Prune candidates whose analytic lower bound on cycles already loses
        to the incumbent (the search's only path).  ``False`` keeps the
        unpruned batch path, the serial oracle the tests compare against.
    """

    def __init__(
        self,
        scheduler: AttentionScheduler,
        workload: AttentionWorkload,
        analytic_prune: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.workload = workload
        self.analytic_prune = analytic_prune
        self._cache: dict[tuple, TilingEvaluation] = {}
        #: Analytic lower bound on cycles per candidate, keyed like
        #: ``_cache``: the whole candidate grid once a batch needed a bound.
        self._bounds: dict[tuple, float] = {}
        #: Non-memoized evaluations performed, feasible or not: every distinct
        #: candidate the search actually paid for (infeasible candidates cost
        #: a footprint check or a failed simulation — real search work).
        self.num_evaluations = 0
        #: Where those evaluations went: ``num_simulated`` full simulations,
        #: ``num_shared`` candidates answered from the simulation of an
        #: earlier candidate with the same graph key, ``num_infeasible``
        #: candidates rejected without simulating (``fits`` said no, or the
        #: MAS build raised), ``num_pruned`` candidates skipped because
        #: their analytic lower bound lost to the incumbent.
        self.analytic_stats: dict[str, int] = {
            "num_simulated": 0,
            "num_shared": 0,
            "num_infeasible": 0,
            "num_pruned": 0,
        }
        #: (cycles, energy_pj) of every graph key simulated so far.
        self._graphs: dict[tuple, tuple[int, float]] = {}
        #: Fewest cycles of any feasible candidate so far — the pruning incumbent.
        self._incumbent = float("inf")

    # ------------------------------------------------------------------ #
    def _key(self, tiling: TilingConfig) -> tuple:
        return (tiling.bb, tiling.hh, tiling.nq, tiling.nkv, tiling.kv_resident)

    def _reject(self, tilings: list[TilingConfig]) -> tuple[list, list[int]]:
        """Reject the candidates :meth:`~AttentionScheduler.fits` refuses.

        Returns one slot per candidate, holding the infeasible evaluation of
        each rejected one and ``None`` for the rest, and the indices of the
        candidates that fit.
        """
        results: list[TilingEvaluation | None] = [None] * len(tilings)
        survivors: list[int] = []
        for index, tiling in enumerate(tilings):
            if self.scheduler.fits(self.workload, tiling):
                survivors.append(index)
            else:
                results[index] = self._infeasible(tiling)
        return results, survivors

    def _evaluate_wave(self, tilings: list[TilingConfig]) -> list[TilingEvaluation]:
        """Simulate candidates that fit, in input order, each graph once.

        A wave that simulates anything is one "search.generation" span (a
        no-op unless tracing is on): a pruning wave, one whole unpruned
        batch, or one :meth:`evaluate`.  Its ``batch`` counts the wave's
        simulations and ``shared`` the candidates it answered from an
        earlier simulation.
        """
        keys = [self.scheduler.graph_key(self.workload, tiling) for tiling in tilings]
        if all(key in self._graphs for key in keys):
            return [self._simulate_once(tiling, key) for tiling, key in zip(tilings, keys)]
        stats = self.analytic_stats
        simulated, shared = stats["num_simulated"], stats["num_shared"]
        with obs_trace.span("search.generation", layer="search") as span:
            results = [self._simulate_once(tiling, key) for tiling, key in zip(tilings, keys)]
            span.set(batch=stats["num_simulated"] - simulated, shared=stats["num_shared"] - shared)
        return results

    def _simulate_once(self, tiling: TilingConfig, key: tuple) -> TilingEvaluation:
        """Simulate a candidate that fits, unless its graph ``key`` was simulated
        before: then answer it from that simulation."""
        outcome = self._graphs.get(key)
        if outcome is None:
            try:
                result = self.scheduler.simulate(self.workload, tiling)
            except InfeasibleTilingError:
                return self._infeasible(tiling)
            outcome = self._graphs[key] = (result.cycles, result.energy_pj)
            self.analytic_stats["num_simulated"] += 1
            self._incumbent = min(self._incumbent, float(result.cycles))
        else:
            self.analytic_stats["num_shared"] += 1
        cycles, energy_pj = outcome
        return TilingEvaluation(
            tiling=tiling, feasible=True, cycles=cycles, energy_pj=energy_pj, value=float(cycles)
        )

    def _infeasible(self, tiling: TilingConfig) -> TilingEvaluation:
        """The evaluation of a candidate the scheduler cannot run."""
        self.analytic_stats["num_infeasible"] += 1
        return TilingEvaluation(
            tiling=tiling, feasible=False, cycles=0, energy_pj=0.0, value=float("inf")
        )

    def _pruned(self, tiling: TilingConfig, bound: float) -> TilingEvaluation:
        self.analytic_stats["num_pruned"] += 1
        return TilingEvaluation(
            tiling=tiling, feasible=False, cycles=0, energy_pj=0.0, value=bound, pruned=True
        )

    def _value_bounds(self, tilings: list[TilingConfig]) -> list[float]:
        """The analytic lower bound on the cycles of each of ``tilings``.

        A candidate missing from the bound table is bounded in one
        ``analytic_bounds`` call together with every grid point the table
        lacks, so a search whose candidates stay on its grid makes exactly
        one call.  Each bound depends only on its own candidate, so the table
        holds the same values a per-batch call would return.
        """
        keys = [self._key(tiling) for tiling in tilings]
        missing = [key for key in keys if key not in self._bounds]
        if missing:
            if not self._bounds:
                # Grid points come out in the field order of ``_key``.
                space = TilingSearchSpace(self.workload, self.scheduler.hardware)
                missing += product(*(space.candidates(d) for d in space.decisions))
            rows = list(dict.fromkeys(missing))
            bounds = self.scheduler.analytic_bounds(self.workload, TilingBatch.from_rows(rows))
            self._bounds.update(zip(rows, bounds.cycles.astype(float).tolist()))
        return [self._bounds[key] for key in keys]

    def evaluate(self, tiling: TilingConfig) -> TilingEvaluation:
        """Evaluate one candidate (memoized on the tiling factors, never pruned)."""
        tiling = tiling.clamp_to(self.workload)
        key = self._key(tiling)
        if key not in self._cache:
            (self._cache[key],) = self._evaluate_unpruned([tiling])
            self.num_evaluations += 1
        return self._cache[key]

    def evaluate_batch(self, tilings: Sequence[TilingConfig]) -> list[TilingEvaluation]:
        """Evaluate many candidates at once (memoized and pruned).

        Returns one evaluation per input, aligned with the input order.  Only
        distinct not-yet-memoized tilings are evaluated, and they are merged
        into the memo table in first-occurrence order.  Without pruning the
        resulting cache state, evaluation count and returned values are
        identical to calling :meth:`evaluate` on each tiling in turn.
        """
        clamped = [tiling.clamp_to(self.workload) for tiling in tilings]
        pending: dict[tuple, TilingConfig] = {}
        for tiling in clamped:
            key = self._key(tiling)
            if key not in self._cache and key not in pending:
                pending[key] = tiling
        if pending:
            evaluate = self._evaluate_pruned if self.analytic_prune else self._evaluate_unpruned
            for key, evaluation in zip(pending, evaluate(list(pending.values()))):
                self._cache[key] = evaluation
                self.num_evaluations += 1
        return [self._cache[self._key(tiling)] for tiling in clamped]

    def _evaluate_unpruned(self, tilings: list[TilingConfig]) -> list[TilingEvaluation]:
        """Reject, then simulate the deduplicated candidates that fit in one wave."""
        results, survivors = self._reject(tilings)
        fresh = self._evaluate_wave([tilings[i] for i in survivors])
        for index, evaluation in zip(survivors, fresh):
            results[index] = evaluation
        return results

    def _evaluate_pruned(self, tilings: list[TilingConfig]) -> list[TilingEvaluation]:
        """Reject, bound, then simulate or prune deduplicated candidates.

        Only the candidates :meth:`~AttentionScheduler.fits` accepts can be
        pruned: a rejected candidate comes back exactly as
        :meth:`_evaluate_unpruned` reports it.
        """
        results, survivors = self._reject(tilings)

        # Simulate survivors in ascending-bound order, in fixed-size waves:
        # candidates whose bound already loses to the incumbent are pruned as
        # each wave is formed, and every completed wave tightens the incumbent
        # for the next one.
        value_bound = dict(
            zip(survivors, self._value_bounds([tilings[i] for i in survivors]))
        )
        order = sorted(survivors, key=lambda i: (value_bound[i], i))
        for start in range(0, len(order), PRUNE_WAVE):
            wave = []
            for index in order[start : start + PRUNE_WAVE]:
                if value_bound[index] >= self._incumbent:
                    results[index] = self._pruned(tilings[index], value_bound[index])
                else:
                    wave.append(index)
            fresh = self._evaluate_wave([tilings[i] for i in wave])
            for index, evaluation in zip(wave, fresh):
                results[index] = evaluation
        return results

    __call__ = evaluate

    @property
    def cache_size(self) -> int:
        """Number of distinct tilings evaluated so far."""
        return len(self._cache)
