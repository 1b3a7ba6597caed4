"""Figure 5 — normalized execution time on the DaVinci-like NPU.

The paper deploys Layer-Wise, Soft-Pipe, FLAT and MAS-Attention on a Huawei
MatePad Pro 13.2 (Kirin 990, DaVinci NPU) and reports execution time
normalized to the Layer-Wise baseline, with tilings found by grid search.
TileFlow and FuseMax are excluded, exactly as in the paper.  We do not have
the physical device, so the experiment runs on the
:func:`repro.hardware.presets.davinci_like_npu` preset — the same code path,
different hardware parameters and search algorithm, which is precisely the
delta between the paper's two evaluation setups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import geometric_mean, speedup
from repro.analysis.report import format_table, suite_title_suffix
from repro.exec import ExperimentRunner
from repro.hardware.presets import davinci_like_npu

__all__ = ["Figure5Row", "Figure5Result", "run_figure5", "FIGURE5_METHODS"]

#: Methods shown in Figure 5 (TileFlow and FuseMax were not deployable on device).
FIGURE5_METHODS: tuple[str, ...] = ("layerwise", "softpipe", "flat", "mas")

#: Paper geometric-mean speedups of MAS over the on-device baselines (Section 5.2.2).
PAPER_GEOMEAN_SPEEDUPS: dict[str, float] = {
    "layerwise": 2.33,
    "softpipe": 1.73,
    "flat": 1.42,
}


@dataclass(frozen=True)
class Figure5Row:
    """One network's normalized execution times (Layer-Wise = 1.0)."""

    network: str
    cycles: dict[str, int]
    normalized: dict[str, float]

    def mas_speedup_over(self, method: str) -> float:
        """Speedup of MAS-Attention over ``method`` on this network."""
        return speedup(self.cycles[method], self.cycles["mas"])


@dataclass
class Figure5Result:
    """The Figure-5 reproduction: one bar group per suite entry."""

    rows: list[Figure5Row] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    geomean_speedups: dict[str, float] = field(default_factory=dict)
    suite: str = "table1"

    @property
    def networks(self) -> list[str]:
        return [row.network for row in self.rows]

    def series(self, method: str) -> list[float]:
        """Normalized execution time of one method across networks (a bar series)."""
        return [row.normalized[method] for row in self.rows]

    def as_rows(self) -> list[list[object]]:
        data: list[list[object]] = []
        for row in self.rows:
            data.append([row.network] + [row.normalized[m] for m in self.methods])
        data.append(
            ["Geometric Mean (MAS speedup)"]
            + [self.geomean_speedups.get(m, 1.0) for m in self.methods]
        )
        return data

    def columns(self) -> list[str]:
        """The header cell of each :meth:`as_rows` column."""
        return ["Network"] + [f"{m} (norm.)" for m in self.methods]

    def format(self) -> str:
        return format_table(
            self.columns(),
            self.as_rows(),
            precision=3,
            title="Figure 5: normalized execution time on the DaVinci-like NPU"
            + suite_title_suffix(self.suite),
        )


def run_figure5(
    runner: ExperimentRunner | None = None,
    networks: list[str] | None = None,
) -> Figure5Result:
    """Reproduce Figure 5 over ``runner``'s suite, on its hardware.

    Without a runner, the default one sweeps Table 1 with grid-searched
    tilings on the DaVinci-like preset.
    """
    runner = runner or ExperimentRunner(hardware=davinci_like_npu(), search_strategy="grid")
    matrix = runner.run_matrix(networks, list(FIGURE5_METHODS))
    methods = runner.methods(list(FIGURE5_METHODS))

    result = Figure5Result(methods=methods, suite=runner.suite_name)
    for network, runs in matrix.items():
        cycles = {m: runs[m].cycles for m in methods}
        baseline = cycles["layerwise"]
        normalized = {m: cycles[m] / baseline for m in methods}
        result.rows.append(Figure5Row(network=network, cycles=cycles, normalized=normalized))

    for m in methods:
        if m == "mas":
            result.geomean_speedups[m] = 1.0
            continue
        result.geomean_speedups[m] = geometric_mean(
            row.mas_speedup_over(m) for row in result.rows
        )
    return result
