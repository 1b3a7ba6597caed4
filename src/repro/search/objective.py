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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from typing import Literal, Sequence

from repro.core.analytic import AnalyticBounds, TilingBatch
from repro.core.overwrite import InfeasibleTilingError
from repro.core.tiling import TilingConfig
from repro.obs import trace as obs_trace
from repro.schedulers.base import AttentionScheduler
from repro.search.space import TilingSearchSpace
from repro.sim.trace import SimulationResult
from repro.utils.validation import require
from repro.workloads.attention import AttentionWorkload

__all__ = ["TilingEvaluation", "SchedulerObjective"]

Metric = Literal["cycles", "energy", "edp"]

#: Candidates per pruning wave in :meth:`SchedulerObjective.evaluate_batch`.
#: Between waves the incumbent is re-checked, so early winners prune the rest
#: of a large batch.  The wave size is part of the search's definition: it
#: decides which candidates are simulated and which bounds the GA and MCTS
#: rank, so changing it changes search results.
PRUNE_WAVE = 8


@dataclass(frozen=True)
class TilingEvaluation:
    """Outcome of evaluating one tiling candidate.

    Scalars only: a feasible evaluation is exactly one simulation, and its
    trace is dropped so the memo table, which keeps every evaluation of a
    search, stays small (re-simulate the tiling when the trace itself is
    wanted).
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
    """Callable objective: tiling -> simulated cost for one scheduler/workload pair.

    Parameters
    ----------
    scheduler:
        The dataflow being tuned.
    workload:
        The attention shape being tuned for.
    metric:
        ``"cycles"`` (the paper's objective), ``"energy"`` or ``"edp"``
        (energy-delay product).
    analytic_prune:
        Prune candidates whose analytic lower bound on the metric already
        loses to the incumbent (the search's only path).  ``False`` keeps the
        unpruned batch path, the serial oracle the tests compare against.
    """

    def __init__(
        self,
        scheduler: AttentionScheduler,
        workload: AttentionWorkload,
        metric: Metric = "cycles",
        analytic_prune: bool = True,
    ) -> None:
        require(metric in ("cycles", "energy", "edp"), f"unknown metric {metric!r}")
        self.scheduler = scheduler
        self.workload = workload
        self.metric = metric
        self.analytic_prune = analytic_prune
        self._cache: dict[tuple, TilingEvaluation] = {}
        #: Analytic lower bound on the objective per candidate, keyed like
        #: ``_cache``: the whole candidate grid once a batch needed a bound.
        self._bounds: dict[tuple, float] = {}
        #: Non-memoized evaluations performed, feasible or not: every distinct
        #: candidate the search actually paid for (infeasible candidates cost
        #: a footprint check or a failed simulation — real search work).
        self.num_evaluations = 0
        #: Where those evaluations went: ``num_simulated`` full simulations,
        #: ``num_infeasible`` candidates rejected without simulating (``fits``
        #: said no, or the MAS planner raised), ``num_pruned`` candidates
        #: skipped because their analytic lower bound lost to the incumbent.
        self.analytic_stats: dict[str, int] = {
            "num_simulated": 0,
            "num_infeasible": 0,
            "num_pruned": 0,
        }
        #: Best feasible objective value seen so far — the pruning incumbent.
        self._incumbent = float("inf")

    # ------------------------------------------------------------------ #
    def _key(self, tiling: TilingConfig) -> tuple:
        return (tiling.bb, tiling.hh, tiling.nq, tiling.nkv, tiling.kv_resident)

    def _value(self, result: SimulationResult) -> float:
        if self.metric == "cycles":
            return float(result.cycles)
        if self.metric == "energy":
            return float(result.energy_pj)
        return float(result.cycles) * float(result.energy_pj)

    def evaluate_uncached(self, tiling: TilingConfig) -> TilingEvaluation:
        """Evaluate one candidate directly: no memo lookup, no accounting.

        Pure with respect to ``self``.  The memoizing callers
        (:meth:`evaluate`, :meth:`evaluate_batch`) own the cache insert and
        the ``num_evaluations`` count.
        """
        tiling = tiling.clamp_to(self.workload)
        if not self.scheduler.fits(self.workload, tiling):
            return self._infeasible(tiling)
        try:
            result = self.scheduler.simulate(self.workload, tiling)
        except InfeasibleTilingError:
            return self._infeasible(tiling)
        return TilingEvaluation(
            tiling=tiling,
            feasible=True,
            cycles=result.cycles,
            energy_pj=result.energy_pj,
            value=self._value(result),
        )

    def _evaluate_wave(self, tilings: list[TilingConfig]) -> list[TilingEvaluation]:
        """Evaluate ``tilings`` in input order as one "search.generation" span.

        The span (a no-op unless tracing is on) covers one pruning wave, or
        one whole unpruned batch.
        """
        with obs_trace.span("search.generation", layer="search", batch=len(tilings)):
            return [self.evaluate_uncached(tiling) for tiling in tilings]

    def _note(self, evaluation: TilingEvaluation) -> None:
        """Account for one fresh (non-memoized) evaluation outcome."""
        if evaluation.feasible:
            self.analytic_stats["num_simulated"] += 1
            self._incumbent = min(self._incumbent, evaluation.value)
        else:
            self.analytic_stats["num_infeasible"] += 1

    @staticmethod
    def _infeasible(tiling: TilingConfig) -> TilingEvaluation:
        """The evaluation of a candidate the scheduler cannot run."""
        return TilingEvaluation(
            tiling=tiling, feasible=False, cycles=0, energy_pj=0.0, value=float("inf")
        )

    def _pruned(self, tiling: TilingConfig, bound: float) -> TilingEvaluation:
        self.analytic_stats["num_pruned"] += 1
        return TilingEvaluation(
            tiling=tiling, feasible=False, cycles=0, energy_pj=0.0, value=bound, pruned=True
        )

    def _value_bound(self, bounds: AnalyticBounds) -> np.ndarray:
        """Per-candidate analytic lower bound on the objective metric."""
        if self.metric == "cycles":
            return bounds.cycles.astype(float)
        if self.metric == "energy":
            return bounds.energy_pj.astype(float)
        return bounds.cycles.astype(float) * bounds.energy_pj.astype(float)

    def _value_bounds(self, tilings: list[TilingConfig]) -> list[float]:
        """The analytic lower bound on the objective of each of ``tilings``.

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
            self._bounds.update(zip(rows, self._value_bound(bounds).tolist()))
        return [self._bounds[key] for key in keys]

    def evaluate(self, tiling: TilingConfig) -> TilingEvaluation:
        """Evaluate one candidate (memoized on the tiling factors)."""
        tiling = tiling.clamp_to(self.workload)
        key = self._key(tiling)
        if key in self._cache:
            return self._cache[key]
        evaluation = self.evaluate_uncached(tiling)
        self._note(evaluation)
        self._cache[key] = evaluation
        self.num_evaluations += 1
        return evaluation

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
            candidates = list(pending.values())
            if self.analytic_prune:
                fresh = self._evaluate_pruned(candidates)
            else:
                fresh = self._evaluate_wave(candidates)
                for evaluation in fresh:
                    self._note(evaluation)
            for key, evaluation in zip(pending, fresh):
                self._cache[key] = evaluation
                self.num_evaluations += 1
        return [self._cache[self._key(tiling)] for tiling in clamped]

    def _evaluate_pruned(self, tilings: list[TilingConfig]) -> list[TilingEvaluation]:
        """Reject, bound, then simulate or prune deduplicated candidates.

        Only the candidates :meth:`~AttentionScheduler.fits` accepts can be
        pruned: a rejected candidate comes back exactly as
        :meth:`evaluate_uncached` reports it.
        """
        results: list[TilingEvaluation | None] = [None] * len(tilings)
        survivors: list[int] = []
        for index, tiling in enumerate(tilings):
            if self.scheduler.fits(self.workload, tiling):
                survivors.append(index)
            else:
                results[index] = self._infeasible(tiling)
                self._note(results[index])

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
                self._note(evaluation)
        return results

    __call__ = evaluate

    @property
    def cache_size(self) -> int:
        """Number of distinct tilings evaluated so far."""
        return len(self._cache)
