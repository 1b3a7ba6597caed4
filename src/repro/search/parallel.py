"""Parallel batch evaluation of tiling candidates (the intra-pair fan-out).

The searchers in this package evaluate *batches* of candidates — a GA
generation, a round of MCTS leaf rollouts, a slab of the grid — through
:meth:`~repro.search.objective.SchedulerObjective.evaluate_batch`.  This
module supplies the evaluator that fans one such batch over a process pool,
in the same spirit as Timeloop/Accelergy-style mappers that keep a pool of
cost-model workers busy with candidate mappings.

Each pool worker rebuilds the objective once (pool initializer) and then
receives bare tilings, so only candidates and their scalar evaluations cross
the process boundary.  The simulator is pure Python and holds the GIL, which
is why there is no thread pool: threads were measured slower than serial.

Determinism is the contract: results come back in submission order, and every
evaluation is a pure function of the (scheduler, workload, metric, tiling)
tuple, so a search consuming batched results is bit-identical to the same
search run serially (``workers=1``) whatever the worker count or completion
order.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceContext
from repro.utils import env

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (objective imports us)
    from repro.core.tiling import TilingConfig
    from repro.schedulers.base import AttentionScheduler
    from repro.search.objective import SchedulerObjective, TilingEvaluation
    from repro.workloads.attention import AttentionWorkload

__all__ = ["WORKERS_ENV", "ParallelEvaluator", "resolve_workers"]

#: Environment default for the number of intra-search evaluation workers.
WORKERS_ENV = "MAS_SEARCH_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """``workers`` if given, else ``$MAS_SEARCH_WORKERS``, else 1 (serial)."""
    if workers is None:
        workers = env.int_value(WORKERS_ENV)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


# ---------------------------------------------------------------------- #
# Pool worker side.  The initializer rebuilds the objective once per worker;
# subsequent tasks only ship a TilingConfig each way.
# ---------------------------------------------------------------------- #
_WORKER_OBJECTIVE: "SchedulerObjective | None" = None


def _init_worker(
    scheduler: "AttentionScheduler",
    workload: "AttentionWorkload",
    metric: str,
    allow_overflow: bool,
    trace_context: "TraceContext | None" = None,
) -> None:
    global _WORKER_OBJECTIVE
    from repro.search.objective import SchedulerObjective

    # Ambient parent for any span this worker process opens, so evaluation
    # spans nest under the submitting search's span across the fork.
    obs_trace.attach_context(trace_context)
    _WORKER_OBJECTIVE = SchedulerObjective(
        scheduler, workload, metric=metric, allow_overflow=allow_overflow, workers=1
    )


def _evaluate_in_worker(tiling: "TilingConfig") -> "TilingEvaluation":
    assert _WORKER_OBJECTIVE is not None, "pool initializer did not run"
    return _WORKER_OBJECTIVE.evaluate_uncached(tiling)


class ParallelEvaluator:  # mas-lint: disable=fork-safety(stays in the parent; only module-level _evaluate_in_worker is submitted)
    """Fans batches of tiling evaluations of one objective over a process pool.

    The pool is created lazily on the first batch that can use it and reused
    across batches (one pool per objective, shared by e.g. both phases of an
    ``mcts+ga`` tuning).  ``workers=1`` — the default everywhere — never
    creates a pool and evaluates inline, so serial callers pay nothing.
    """

    def __init__(self, objective: "SchedulerObjective", workers: int | None = None) -> None:
        self.objective = objective
        self.workers = resolve_workers(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            objective = self.objective
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    objective.scheduler,
                    objective.workload,
                    objective.metric,
                    objective.allow_overflow,
                    # Context captured at pool creation: the enclosing
                    # pair/search span, so worker spans keep their parent
                    # across the process boundary.
                    obs_trace.current_context(),
                ),
            )
            # Safety net for callers that never close(): shut the pool down
            # when the evaluator is garbage-collected, so objectives used
            # outside AutoTuner don't accumulate live worker pools.
            self._finalizer = weakref.finalize(self, self._pool.shutdown, False)
        return self._pool

    def evaluate(self, tilings: Sequence["TilingConfig"]) -> list["TilingEvaluation"]:
        """Evaluate ``tilings`` and return results aligned with the input order.

        Futures are collected in submission order (never ``as_completed``),
        which is what makes batched search runs bit-identical to serial ones.

        Each batch is one "search.generation" span (no-op unless tracing is
        on) — a GA generation, an MCTS rollout round, a grid slab.
        """
        with obs_trace.span(
            "search.generation", layer="search", batch=len(tilings), workers=self.workers
        ):
            if self.workers == 1 or len(tilings) <= 1:
                return [self.objective.evaluate_uncached(tiling) for tiling in tilings]
            pool = self._ensure_pool()
            futures = [pool.submit(_evaluate_in_worker, tiling) for tiling in tilings]
            return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the pool down (idempotent; a later batch re-creates it)."""
        if self._pool is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ParallelEvaluator(workers={self.workers}, "
            f"pool={'live' if self._pool is not None else 'idle'})"
        )
