"""Abstract interface shared by all tiling search algorithms."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Sequence

import numpy as np

from repro.core.tiling import TilingConfig
from repro.search.history import SearchHistory
from repro.search.objective import SchedulerObjective, TilingEvaluation
from repro.search.space import TilingSearchSpace
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["SearchAlgorithm"]


class SearchAlgorithm(ABC):
    """One search strategy over a :class:`~repro.search.space.TilingSearchSpace`.

    Subclasses implement :meth:`_run`; the public :meth:`run` handles budget
    validation, RNG seeding and history labelling so all algorithms behave
    uniformly.
    """

    name: ClassVar[str] = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------ #
    def run(
        self,
        objective: SchedulerObjective,
        space: TilingSearchSpace,
        budget: int = 200,
        rng: np.random.Generator | None = None,
    ) -> SearchHistory:
        """Search for at most ``budget`` evaluations and return the history."""
        check_positive_int(budget, "budget")
        rng = rng if rng is not None else make_rng(self.seed)
        history = SearchHistory(
            algorithm=self.name,
            scheduler=objective.scheduler.name,
            workload=objective.workload.name or objective.workload.describe(),
        )
        self._run(objective, space, budget, rng, history)
        return history

    @abstractmethod
    def _run(
        self,
        objective: SchedulerObjective,
        space: TilingSearchSpace,
        budget: int,
        rng: np.random.Generator,
        history: SearchHistory,
    ) -> None:
        """Algorithm body: evaluate candidates and record them into ``history``."""

    def _evaluate_batch(
        self,
        objective: SchedulerObjective,
        tilings: Sequence[TilingConfig],
        history: SearchHistory,
    ) -> list[TilingEvaluation]:
        """Evaluate one candidate batch and record every result.

        Results are recorded in input order, so the history (and therefore
        the best tiling and the Figure-7 curve) follows the order in which
        the algorithm proposed its candidates.
        """
        evaluations = objective.evaluate_batch(tilings)
        for evaluation in evaluations:
            history.record(evaluation, phase=self.name)
        return evaluations

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(seed={self.seed})"
