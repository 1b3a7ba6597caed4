"""Per-iteration search records, used to reproduce Figure 7.

Figure 7 of the paper plots execution cycles against search iterations (both
log scale) for every method under MCTS + GA tuning.  Every search algorithm in
this package appends one :class:`SearchRecord` per evaluated candidate to a
:class:`SearchHistory`, from which the monotone best-so-far convergence curve
is derived.  Both phases of ``mcts+ga`` record into one history, so
:meth:`SearchHistory.record` is the one running-best rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tiling import TilingConfig
from repro.search.objective import TilingEvaluation
from repro.utils.validation import require

__all__ = ["SearchRecord", "SearchHistory"]


@dataclass(frozen=True)
class SearchRecord:
    """One evaluated candidate during a search."""

    iteration: int
    tiling: TilingConfig
    value: float
    best_value: float
    phase: str = ""

    def __post_init__(self) -> None:
        require(self.iteration >= 0, "iteration must be >= 0")


@dataclass
class SearchHistory:
    """Sequence of evaluated candidates plus the best one found."""

    algorithm: str
    scheduler: str = ""
    workload: str = ""
    records: list[SearchRecord] = field(default_factory=list)
    best: TilingEvaluation | None = None

    # ------------------------------------------------------------------ #
    def record(self, evaluation: TilingEvaluation, phase: str = "") -> SearchRecord:
        """Append one evaluation, updating the running best: the first
        feasible evaluation of lowest value.  Infeasible and pruned
        evaluations never become the best."""
        if evaluation.feasible and evaluation.better_than(self.best):
            self.best = evaluation
        best_value = self.best.value if self.best is not None else float("inf")
        rec = SearchRecord(
            iteration=len(self.records),
            tiling=evaluation.tiling,
            value=evaluation.value,
            best_value=best_value,
            phase=phase,
        )
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------ #
    @property
    def num_iterations(self) -> int:
        return len(self.records)

    @property
    def best_value(self) -> float:
        """Best objective value found (``inf`` if nothing feasible was seen)."""
        return self.best.value if self.best is not None else float("inf")

    @property
    def best_tiling(self) -> TilingConfig | None:
        return self.best.tiling if self.best is not None else None

    @property
    def first_value(self) -> float:
        """Objective of the first feasible candidate (the untuned starting point)."""
        for rec in self.records:
            if rec.value != float("inf"):
                return rec.value
        return float("inf")

    @property
    def improvement_factor(self) -> float:
        """First-feasible over best value — the Section 5.5 "cycle improvement"."""
        best = self.best_value
        first = self.first_value
        if best <= 0 or first == float("inf") or best == float("inf"):
            return 1.0
        return first / best

    def convergence_curve(self) -> list[tuple[int, float]]:
        """(iteration, best-so-far) pairs — the Figure 7 series for one method."""
        return [(rec.iteration, rec.best_value) for rec in self.records]

    def as_rows(self) -> list[dict[str, object]]:
        """Plain-dict rows for serialization and reporting."""
        return [
            {
                "iteration": rec.iteration,
                "value": rec.value,
                "best_value": rec.best_value,
                "phase": rec.phase,
                **rec.tiling.as_dict(),
            }
            for rec in self.records
        ]
