"""Table 3 — energy consumption and savings on the simulated edge device.

Uses the same tuned runs as Table 2 and reports total energy per method
(in 1e9 pJ, the paper's unit) plus MAS-Attention's savings over each baseline,
with a geometric-mean summary computed over the *energy ratios* (the paper's
geomean of savings percentages is reproduced from the same ratios).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import energy_savings_pct, geometric_mean
from repro.analysis.report import format_table, suite_title_suffix
from repro.exec import ExperimentRunner

__all__ = ["Table3Row", "Table3Result", "run_table3"]

#: Paper geometric-mean energy savings of MAS-Attention over each baseline (Table 3).
PAPER_GEOMEAN_SAVINGS_PCT: dict[str, float] = {
    "layerwise": 52.97,
    "softpipe": 63.07,
    "flat": 18.55,
    "tileflow": 53.16,
    "fusemax": -11.94,
}


@dataclass(frozen=True)
class Table3Row:
    """One network's energy per method plus MAS savings over the baselines."""

    network: str
    energy_pj: dict[str, float]
    savings_pct: dict[str, float]

    def energy_1e9pj(self, method: str) -> float:
        """Energy of ``method`` in units of 1e9 pJ (the paper's column unit)."""
        return self.energy_pj[method] / 1e9


@dataclass
class Table3Result:
    """The full Table-3 reproduction (any workload suite; Table 1 by default)."""

    rows: list[Table3Row] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    geomean_savings_pct: dict[str, float] = field(default_factory=dict)
    suite: str = "table1"

    @property
    def networks(self) -> list[str]:
        return [row.network for row in self.rows]

    def row(self, network: str) -> Table3Row:
        for candidate in self.rows:
            if candidate.network == network:
                return candidate
        raise KeyError(f"no Table 3 row for network {network!r}")

    def as_rows(self) -> list[list[object]]:
        data: list[list[object]] = []
        baselines = [m for m in self.methods if m != "mas"]
        for row in self.rows:
            data.append(
                [row.network]
                + [row.energy_1e9pj(m) for m in self.methods]
                + [row.savings_pct[m] for m in baselines]
            )
        data.append(
            ["Geometric Mean"]
            + ["-"] * len(self.methods)
            + [self.geomean_savings_pct[m] for m in baselines]
        )
        return data

    def columns(self) -> list[str]:
        """The header cell of each :meth:`as_rows` column."""
        baselines = [m for m in self.methods if m != "mas"]
        return (
            ["Network"]
            + [f"{m} (1e9 pJ)" for m in self.methods]
            + [f"savings vs {m} (%)" for m in baselines]
        )

    def format(self) -> str:
        return format_table(
            self.columns(),
            self.as_rows(),
            precision=2,
            title="Table 3: energy consumption and savings (simulated edge device)"
            + suite_title_suffix(self.suite),
        )


def run_table3(
    runner: ExperimentRunner | None = None,
    networks: list[str] | None = None,
    methods: list[str] | None = None,
) -> Table3Result:
    """Reproduce Table 3 over ``runner``'s suite (reuses the Table 2 runs
    cached in ``runner``; the default runner sweeps Table 1)."""
    runner = runner or ExperimentRunner()
    matrix = runner.run_matrix(networks, methods)
    method_names = runner.methods(methods)
    baselines = [m for m in method_names if m != "mas"]

    result = Table3Result(methods=method_names, suite=runner.suite_name)
    for network, runs in matrix.items():
        energy = {m: runs[m].energy_pj for m in method_names}
        savings = {m: energy_savings_pct(energy[m], energy["mas"]) for m in baselines}
        result.rows.append(Table3Row(network=network, energy_pj=energy, savings_pct=savings))

    for m in baselines:
        # Geomean of the energy ratios, reported back as a savings percentage;
        # this is robust to individual rows having negative savings.
        ratios = [row.energy_pj["mas"] / row.energy_pj[m] for row in result.rows]
        result.geomean_savings_pct[m] = (1.0 - geometric_mean(ratios)) * 100.0
    return result
