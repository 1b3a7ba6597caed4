"""Table 2 — execution cycles and speedups on the simulated edge device.

For every Table-1 network, every method is tuned and simulated; the table
reports raw cycle counts (in millions, like the paper) and the speedup of
MAS-Attention over each baseline, with a geometric-mean summary row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import geometric_mean, speedup
from repro.analysis.report import format_table, suite_title_suffix
from repro.exec import ExperimentRunner

__all__ = ["Table2Row", "Table2Result", "run_table2"]

#: Paper geometric-mean speedups of MAS-Attention over each baseline (Table 2).
PAPER_GEOMEAN_SPEEDUPS: dict[str, float] = {
    "layerwise": 5.09,
    "softpipe": 2.78,
    "flat": 1.70,
    "tileflow": 1.31,
    "fusemax": 1.27,
}


@dataclass(frozen=True)
class Table2Row:
    """One network's cycles per method plus MAS speedups over the baselines."""

    network: str
    cycles: dict[str, int]
    speedups: dict[str, float]

    def cycles_m(self, method: str) -> float:
        """Cycles of ``method`` in millions (the unit of the paper's table)."""
        return self.cycles[method] / 1e6


@dataclass
class Table2Result:
    """The full Table-2 reproduction (any workload suite; Table 1 by default)."""

    rows: list[Table2Row] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    geomean_speedups: dict[str, float] = field(default_factory=dict)
    suite: str = "table1"

    @property
    def networks(self) -> list[str]:
        return [row.network for row in self.rows]

    def row(self, network: str) -> Table2Row:
        for candidate in self.rows:
            if candidate.network == network:
                return candidate
        raise KeyError(f"no Table 2 row for network {network!r}")

    def mas_wins(self) -> bool:
        """Whether MAS-Attention is the fastest (or tied) method on every network."""
        return all(
            row.cycles["mas"] <= min(row.cycles.values()) for row in self.rows
        )

    def as_rows(self) -> list[list[object]]:
        """Row data for :func:`repro.analysis.report.format_table`."""
        data: list[list[object]] = []
        baselines = [m for m in self.methods if m != "mas"]
        for row in self.rows:
            data.append(
                [row.network]
                + [row.cycles_m(m) for m in self.methods]
                + [row.speedups[m] for m in baselines]
            )
        data.append(
            ["Geometric Mean"]
            + ["-"] * len(self.methods)
            + [self.geomean_speedups[m] for m in baselines]
        )
        return data

    def columns(self) -> list[str]:
        """The header cell of each :meth:`as_rows` column."""
        baselines = [m for m in self.methods if m != "mas"]
        return (
            ["Network"]
            + [f"{m} (Mcyc)" for m in self.methods]
            + [f"MAS vs {m}" for m in baselines]
        )

    def format(self) -> str:
        """ASCII rendering in the paper's layout (cycles then speedups)."""
        return format_table(
            self.columns(),
            self.as_rows(),
            precision=3,
            title="Table 2: cycles and speedups (simulated edge device)"
            + suite_title_suffix(self.suite),
        )


def run_table2(
    runner: ExperimentRunner | None = None,
    networks: list[str] | None = None,
    methods: list[str] | None = None,
) -> Table2Result:
    """Reproduce Table 2 over ``runner``'s suite, on its hardware.

    Without a runner, the default one sweeps Table 1 on the simulated edge
    device.
    """
    runner = runner or ExperimentRunner()
    matrix = runner.run_matrix(networks, methods)
    method_names = runner.methods(methods)
    baselines = [m for m in method_names if m != "mas"]

    result = Table2Result(methods=method_names, suite=runner.suite_name)
    for network, runs in matrix.items():
        cycles = {m: runs[m].cycles for m in method_names}
        speedups = {m: speedup(cycles[m], cycles["mas"]) for m in baselines}
        result.rows.append(Table2Row(network=network, cycles=cycles, speedups=speedups))

    for m in baselines:
        result.geomean_speedups[m] = geometric_mean(row.speedups[m] for row in result.rows)
    return result
