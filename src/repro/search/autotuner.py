"""Auto-tuning facade: pick a search strategy and tune one scheduler/workload pair.

The experiments use two strategies, mirroring the paper:

* ``"mcts+ga"`` on the simulated edge device — MCTS spends
  :data:`MCTS_FRACTION` of the budget proposing tiling factors, then the
  Genetic Algorithm, seeded with the MCTS best, spends the rest refining the
  compute ordering.  Both phases record into one evaluation history (the
  Figure 7 curve);
* ``"grid"`` on the DaVinci-like preset — exhaustive enumeration of the
  candidate grid.

``"random"``, plain ``"mcts"`` and plain ``"ga"`` are also exposed for the
search-algorithm ablation.

Every strategy minimises simulated cycles, the paper's objective.  A tuning
is defined by the inputs of the result store's key: device, scheduler,
workload, strategy, budget and seed.  Every other setting of a search is a
module constant, such as :data:`MCTS_FRACTION` here and the GA's in
:mod:`repro.search.genetic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tiling import TilingConfig
from repro.hardware.config import HardwareConfig
from repro.schedulers.base import AttentionScheduler
from repro.schedulers.registry import make_scheduler
from repro.search.base import SearchAlgorithm
from repro.search.genetic import GeneticSearch
from repro.search.grid import GridSearch
from repro.search.history import SearchHistory
from repro.search.mcts import MCTSSearch
from repro.search.objective import SchedulerObjective
from repro.search.random_search import RandomSearch
from repro.search.space import TilingSearchSpace
from repro.utils.validation import check_positive_int, require
from repro.workloads.attention import AttentionWorkload

__all__ = ["AutoTuner", "TuningResult", "default_strategy", "STRATEGIES", "MCTS_FRACTION"]

#: Strategy names accepted by :class:`AutoTuner`.
STRATEGIES: tuple[str, ...] = ("mcts+ga", "mcts", "ga", "grid", "random")

#: The single-algorithm strategies, by name.
_ALGORITHMS: dict[str, type[SearchAlgorithm]] = {
    cls.name: cls for cls in (MCTSSearch, GeneticSearch, GridSearch, RandomSearch)
}

#: Share of an ``mcts+ga`` budget spent by MCTS.  Stored tunings are keyed
#: without it, so changing it changes stored tunings: bump the cache's
#: ``KEY_SCHEMA_VERSION`` with it.
MCTS_FRACTION = 0.6


def default_strategy(hardware: HardwareConfig) -> str:
    """The paper's strategy choice for ``hardware``: grid search on the
    DaVinci-like NPU, MCTS + GA everywhere else."""
    return "grid" if "davinci" in hardware.name else "mcts+ga"


@dataclass
class TuningResult:
    """Outcome of tuning one scheduler on one workload."""

    scheduler: str
    workload: str
    strategy: str
    best_tiling: TilingConfig
    best_value: float
    history: SearchHistory = field(repr=False)
    #: The evaluation budget this tuning was *asked* for.  May exceed the
    #: evaluations actually spent when the search exhausted its space early.
    budget: int
    #: Non-memoized objective evaluations (simulator runs + footprint
    #: rejections) the tuning actually performed, infeasible candidates
    #: included — the real search work, as opposed to the history length,
    #: which also counts memoized re-visits.
    objective_evaluations: int
    #: Breakdown of where those evaluations went, from
    #: :attr:`repro.search.objective.SchedulerObjective.analytic_stats`:
    #: full simulations vs. shared vs. rejected vs. bound-pruned candidates
    #: (results stored before sharing existed have no ``num_shared``).
    analytic_stats: dict[str, int]

    @property
    def num_evaluations(self) -> int:
        return self.history.num_iterations

    @property
    def num_search_evaluations(self) -> int:
        """Evaluations spent by the search itself, excluding the default-tiling
        candidate the tuner injects after the search finishes."""
        return sum(1 for rec in self.history.records if rec.phase != "default")

    @property
    def improvement_factor(self) -> float:
        """First-feasible over best objective — the Section 5.5 tuning gain."""
        return self.history.improvement_factor


class AutoTuner:
    """Tiling auto-tuner for one hardware configuration.

    Parameters
    ----------
    hardware:
        Target device.
    strategy:
        One of :data:`STRATEGIES`; ``None`` selects ``"grid"`` for the
        DaVinci-like preset and ``"mcts+ga"`` otherwise, matching the paper.
    budget:
        Total evaluation budget per (scheduler, workload) pair.  For
        ``"mcts+ga"``, MCTS spends ``max(1, int(budget * MCTS_FRACTION))`` of
        it and the GA the rest, at least one.
    seed:
        Seed for the stochastic searchers.
    """

    def __init__(
        self,
        hardware: HardwareConfig,
        strategy: str | None = None,
        budget: int = 200,
        seed: int = 0,
    ) -> None:
        if strategy is None:
            strategy = default_strategy(hardware)
        require(strategy in STRATEGIES, f"unknown strategy {strategy!r}; options: {STRATEGIES}")
        check_positive_int(budget, "budget")
        self.hardware = hardware
        self.strategy = strategy
        self.budget = budget
        self.seed = seed

    # ------------------------------------------------------------------ #
    def tune(
        self,
        scheduler: AttentionScheduler | str,
        workload: AttentionWorkload,
    ) -> TuningResult:
        """Tune ``scheduler`` for ``workload`` and return the best tiling found.

        Every call runs a fresh search.  Harnesses that share tunings (Table 2,
        Table 3 and Figure 6 all use the same runs) share them through
        :class:`~repro.exec.runner.ExperimentRunner` and its result store.
        """
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, self.hardware)
        objective = SchedulerObjective(scheduler, workload)
        space = TilingSearchSpace(workload, self.hardware)
        history = self._search(objective, space)

        # Always consider the scheduler's heuristic default as a candidate:
        # the search should never return something worse than the untuned
        # tiling (and if nothing feasible was explored, it is the fallback).
        default_eval = objective.evaluate(scheduler.default_tiling(workload))
        history.record(default_eval, phase="default")

        assert history.best is not None
        return TuningResult(
            scheduler=scheduler.name,
            workload=workload.name or workload.describe(),
            strategy=self.strategy,
            best_tiling=history.best.tiling,
            best_value=history.best.value,
            history=history,
            budget=self.budget,
            objective_evaluations=objective.num_evaluations,
            analytic_stats=dict(objective.analytic_stats),
        )

    # ------------------------------------------------------------------ #
    def _search(self, objective: SchedulerObjective, space: TilingSearchSpace) -> SearchHistory:
        history = SearchHistory(
            algorithm=self.strategy,
            scheduler=objective.scheduler.name,
            workload=objective.workload.name or objective.workload.describe(),
        )
        if self.strategy != "mcts+ga":
            _ALGORITHMS[self.strategy](seed=self.seed).run(objective, space, self.budget, history)
            return history

        # mcts+ga: tiling factors from MCTS, compute ordering refined by a GA
        # seeded with the MCTS best, both recording into the one history.
        mcts_budget = max(1, int(self.budget * MCTS_FRACTION))
        MCTSSearch(seed=self.seed).run(objective, space, mcts_budget, history)
        ga = GeneticSearch(seed=self.seed + 1)
        if history.best_tiling is not None:
            ga.seeds = [history.best_tiling]
        ga.run(objective, space, max(1, self.budget - mcts_budget), history)
        return history
