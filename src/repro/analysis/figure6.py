"""Figure 6 — energy-consumption breakdown by hardware component.

For every network and method the total energy is split into off-chip DRAM,
on-chip L1 and L0 memories, and the PEs of the MAC and VEC units — the stacked
bars of Figure 6.  The harness reuses the tuned runs of Tables 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table, suite_title_suffix
from repro.exec import ExperimentRunner
from repro.hardware.energy import EnergyBreakdown

__all__ = ["Figure6Entry", "Figure6Result", "run_figure6", "COMPONENTS"]

#: Component order of the stacked bars.
COMPONENTS: tuple[str, ...] = ("DRAM", "L1", "L0", "MAC_PE", "VEC_PE")

#: Largest relative spread of one network's PE energy across methods that
#: still counts as method-independent: generous, because FuseMax's online
#: softmax adds correction work the other dataflows do not pay.
PE_ENERGY_REL_TOL = 0.35


@dataclass(frozen=True)
class Figure6Entry:
    """Energy breakdown of one (network, method) bar."""

    network: str
    method: str
    breakdown: EnergyBreakdown

    def component_pj(self, component: str) -> float:
        """Energy of one component in picojoules."""
        mapping = {
            "DRAM": self.breakdown.dram_pj,
            "L1": self.breakdown.l1_pj,
            "L0": self.breakdown.l0_pj,
            "MAC_PE": self.breakdown.mac_pe_pj,
            "VEC_PE": self.breakdown.vec_pe_pj,
        }
        if component not in mapping:
            raise KeyError(f"unknown component {component!r}; options: {COMPONENTS}")
        return mapping[component]

    @property
    def total_pj(self) -> float:
        return self.breakdown.total_pj


@dataclass
class Figure6Result:
    """All stacked-bar entries of Figure 6."""

    entries: list[Figure6Entry] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    networks: list[str] = field(default_factory=list)
    suite: str = "table1"

    def entry(self, network: str, method: str) -> Figure6Entry:
        for candidate in self.entries:
            if candidate.network == network and candidate.method == method:
                return candidate
        raise KeyError(f"no Figure 6 entry for ({network!r}, {method!r})")

    def pe_energy_constant_across_methods(self) -> bool:
        """Section 5.3.3's observation: PE energy is (nearly) method-independent.

        The arithmetic work is identical across dataflows; only FuseMax adds
        online-softmax correction work, hence the generous
        :data:`PE_ENERGY_REL_TOL`.
        """
        for network in self.networks:
            pe = [
                self.entry(network, method).breakdown.pe_pj for method in self.methods
            ]
            lo, hi = min(pe), max(pe)
            if lo > 0 and (hi - lo) / lo > PE_ENERGY_REL_TOL:
                return False
        return True

    def as_rows(self) -> list[list[object]]:
        rows: list[list[object]] = []
        for entry in self.entries:
            rows.append(
                [entry.network, entry.method]
                + [entry.component_pj(c) / 1e9 for c in COMPONENTS]
                + [entry.total_pj / 1e9]
            )
        return rows

    def columns(self) -> list[str]:
        """The header cell of each :meth:`as_rows` column."""
        return ["Network", "Method"] + [f"{c} (1e9 pJ)" for c in COMPONENTS] + ["total"]

    def format(self) -> str:
        return format_table(
            self.columns(),
            self.as_rows(),
            precision=3,
            title="Figure 6: energy breakdown by component"
            + suite_title_suffix(self.suite),
        )


def run_figure6(
    runner: ExperimentRunner | None = None,
    networks: list[str] | None = None,
    methods: list[str] | None = None,
) -> Figure6Result:
    """Reproduce Figure 6 over ``runner``'s suite (reuses the Table 2/3 runs
    cached in ``runner``; the default runner sweeps Table 1)."""
    runner = runner or ExperimentRunner()
    matrix = runner.run_matrix(networks, methods)
    result = Figure6Result(
        methods=runner.methods(methods),
        networks=list(matrix.keys()),
        suite=runner.suite_name,
    )
    for network, runs in matrix.items():
        for method in result.methods:
            result.entries.append(
                Figure6Entry(
                    network=network, method=method, breakdown=runs[method].result.energy
                )
            )
    return result
