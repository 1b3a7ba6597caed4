"""Auto-tuning facade: pick a search strategy and tune one scheduler/workload pair.

The experiments use two strategies, mirroring the paper:

* ``"mcts+ga"`` on the simulated edge device — MCTS proposes tiling factors,
  the Genetic Algorithm refines the compute ordering seeded with the MCTS
  best, and both phases share one evaluation history (the Figure 7 curve);
* ``"grid"`` on the DaVinci-like preset — exhaustive enumeration of the
  candidate grid.

``"random"``, plain ``"mcts"`` and plain ``"ga"`` are also exposed for the
search-algorithm ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tiling import TilingConfig
from repro.hardware.config import HardwareConfig
from repro.schedulers.base import AttentionScheduler
from repro.schedulers.registry import make_scheduler
from repro.search.genetic import GeneticSearch
from repro.search.grid import GridSearch
from repro.search.history import SearchHistory
from repro.search.mcts import MCTSSearch
from repro.search.objective import Metric, SchedulerObjective
from repro.search.random_search import RandomSearch
from repro.search.space import TilingSearchSpace
from repro.utils.validation import check_positive_int, require
from repro.workloads.attention import AttentionWorkload

__all__ = ["AutoTuner", "TuningResult", "tune_scheduler", "default_strategy", "STRATEGIES"]

#: Strategy names accepted by :class:`AutoTuner`.
STRATEGIES: tuple[str, ...] = ("mcts+ga", "mcts", "ga", "grid", "random")


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
    history: SearchHistory = field(repr=False, default=None)  # type: ignore[assignment]
    #: The evaluation budget this tuning was *asked* for.  May exceed the
    #: evaluations actually spent when the search exhausted its space early.
    budget: int | None = None
    #: Non-memoized objective evaluations (simulator runs + footprint
    #: rejections) the tuning actually performed, infeasible candidates
    #: included — the real search work, as opposed to the history length,
    #: which also counts memoized re-visits.  ``None`` on results produced
    #: before this accounting existed.
    objective_evaluations: int | None = None
    #: Breakdown of where those evaluations went, from
    #: :attr:`repro.search.objective.SchedulerObjective.analytic_stats`:
    #: full simulations vs. rejected vs. bound-pruned candidates.  ``None`` on
    #: results produced before the analytic layer existed.
    analytic_stats: dict[str, int] | None = None

    @property
    def num_evaluations(self) -> int:
        return self.history.num_iterations if self.history is not None else 0

    @property
    def num_search_evaluations(self) -> int:
        """Evaluations spent by the search itself, excluding the default-tiling
        candidate the tuner injects after the search finishes."""
        if self.history is None:
            return 0
        return sum(1 for rec in self.history.records if rec.phase != "default")

    @property
    def improvement_factor(self) -> float:
        """First-feasible over best objective — the Section 5.5 tuning gain."""
        return self.history.improvement_factor if self.history is not None else 1.0


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
        ``"mcts+ga"`` the budget is split between the two phases.
    metric:
        Objective metric (``"cycles"``, ``"energy"`` or ``"edp"``).
    seed:
        Seed for the stochastic searchers.
    """

    def __init__(
        self,
        hardware: HardwareConfig,
        strategy: str | None = None,
        budget: int = 200,
        metric: Metric = "cycles",
        seed: int = 0,
        mcts_fraction: float = 0.6,
    ) -> None:
        if strategy is None:
            strategy = default_strategy(hardware)
        require(strategy in STRATEGIES, f"unknown strategy {strategy!r}; options: {STRATEGIES}")
        check_positive_int(budget, "budget")
        require(0.0 < mcts_fraction < 1.0, "mcts_fraction must lie in (0, 1)")
        self.hardware = hardware
        self.strategy = strategy
        self.budget = budget
        self.metric = metric
        self.seed = seed
        self.mcts_fraction = mcts_fraction

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
        objective = SchedulerObjective(scheduler, workload, metric=self.metric)
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
        budget = self.budget
        if self.strategy == "grid":
            return GridSearch(seed=self.seed).run(objective, space, budget=budget)
        if self.strategy == "random":
            return RandomSearch(seed=self.seed).run(objective, space, budget=budget)
        if self.strategy == "mcts":
            return MCTSSearch(seed=self.seed).run(objective, space, budget=budget)
        if self.strategy == "ga":
            return GeneticSearch(seed=self.seed).run(objective, space, budget=budget)

        # mcts+ga: tiling factors from MCTS, compute ordering refined by GA.
        mcts_budget = max(1, int(budget * self.mcts_fraction))
        ga_budget = max(1, budget - mcts_budget)
        mcts_history = MCTSSearch(seed=self.seed).run(objective, space, budget=mcts_budget)

        ga = GeneticSearch(seed=self.seed + 1)
        if mcts_history.best_tiling is not None:
            ga.seeds = [mcts_history.best_tiling]
        ga_history = ga.run(objective, space, budget=ga_budget)

        combined = SearchHistory(
            algorithm="mcts+ga",
            scheduler=mcts_history.scheduler,
            workload=mcts_history.workload,
        )
        combined.extend(mcts_history)
        combined.extend(ga_history)
        return combined


def tune_scheduler(
    scheduler_name: str,
    workload: AttentionWorkload,
    hardware: HardwareConfig,
    strategy: str | None = None,
    budget: int = 200,
    metric: Metric = "cycles",
    seed: int = 0,
) -> TuningResult:
    """One-shot convenience wrapper around :class:`AutoTuner`."""
    tuner = AutoTuner(hardware, strategy=strategy, budget=budget, metric=metric, seed=seed)
    return tuner.tune(scheduler_name, workload)
