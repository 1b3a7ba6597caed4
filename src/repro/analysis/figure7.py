"""Figure 7 — tiling-search convergence, and the Section 5.5 tuning gains.

Figure 7 plots execution cycles against search iterations (log-log) for every
attention dataflow under MCTS + GA tuning.  FuseMax is excluded because its
tiling sizes are selected manually (``searchable = False``), exactly as in the
paper.  The harness additionally reports the "cycle improvement" numbers of
Section 5.5: the ratio between the first feasible candidate evaluated (the
untuned starting point) and the best tiling found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table, suite_title_suffix
from repro.exec import ExperimentRunner
from repro.search.history import SearchHistory

__all__ = ["Figure7Series", "Figure7Result", "run_figure7"]


@dataclass(frozen=True)
class Figure7Series:
    """One convergence curve: a method tuned on one network."""

    network: str
    method: str
    curve: list[tuple[int, float]]
    first_value: float
    best_value: float

    @property
    def improvement_factor(self) -> float:
        """First-candidate cycles over best cycles (Section 5.5's tuning gain)."""
        if self.best_value <= 0 or self.first_value == float("inf"):
            return 1.0
        return self.first_value / self.best_value

    def is_monotone_nonincreasing(self) -> bool:
        """Best-so-far curves can never get worse as the search progresses."""
        values = [v for _, v in self.curve]
        return all(b <= a for a, b in zip(values, values[1:]))


@dataclass
class Figure7Result:
    """All convergence series plus the tuning-gain summary."""

    series: list[Figure7Series] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    networks: list[str] = field(default_factory=list)
    suite: str = "table1"

    def get(self, network: str, method: str) -> Figure7Series:
        for candidate in self.series:
            if candidate.network == network and candidate.method == method:
                return candidate
        raise KeyError(f"no Figure 7 series for ({network!r}, {method!r})")

    def improvement_rows(self) -> list[list[object]]:
        """Per (network, method) first/best cycles and improvement factor."""
        return [
            [s.network, s.method, s.first_value / 1e6, s.best_value / 1e6, s.improvement_factor]
            for s in self.series
        ]

    def format(self) -> str:
        headers = ["Network", "Method", "first (Mcyc)", "best (Mcyc)", "improvement (x)"]
        return format_table(
            headers,
            self.improvement_rows(),
            precision=3,
            title="Figure 7 / Section 5.5: search convergence and tuning gains"
            + suite_title_suffix(self.suite),
        )


def run_figure7(
    runner: ExperimentRunner | None = None,
    networks: list[str] | None = None,
    methods: list[str] | None = None,
) -> Figure7Result:
    """Reproduce Figure 7 over ``runner``'s suite from the tuning histories
    of its cached runs (the default runner sweeps Table 1)."""
    runner = runner or ExperimentRunner()
    if not runner.use_search:
        raise ValueError("Figure 7 requires the runner to have search enabled")
    matrix = runner.run_matrix(networks, methods)
    method_names = [m for m in runner.methods(methods) if m != "fusemax"]

    result = Figure7Result(
        methods=method_names, networks=list(matrix.keys()), suite=runner.suite_name
    )
    for network, runs in matrix.items():
        for method in method_names:
            tuning = runs[method].tuning
            if tuning is None or tuning.history is None:
                continue
            history: SearchHistory = tuning.history
            result.series.append(
                Figure7Series(
                    network=network,
                    method=method,
                    curve=history.convergence_curve(),
                    first_value=history.first_value,
                    best_value=history.best_value,
                )
            )
    return result
