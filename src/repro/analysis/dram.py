"""Section 5.4 — DRAM access analysis (MAS-Attention versus FLAT).

The paper observes that

* both methods perform the *same* DRAM writes (only the attention output ``O``
  is ever written off-chip), and
* MAS-Attention matches FLAT's DRAM reads except where the proactive
  overwrite strategy forces K/V reloads, where its reads grow by up to ~1.5x.

On the default 5 MB L1 the Table-1 working sets fit and the overwrite path
never fires, so — in addition to the standard comparison — the harness runs a
constrained-L1 variant (``repro.hardware.presets.constrained_edge_device``)
where the reload traffic is actually exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table, suite_title_suffix
from repro.exec import ExperimentRunner
from repro.hardware.presets import constrained_edge_device
from repro.utils.units import KB

__all__ = ["DramRow", "DramAnalysisResult", "run_dram_analysis"]


@dataclass(frozen=True)
class DramRow:
    """DRAM traffic of FLAT and MAS-Attention on one network."""

    network: str
    flat_reads: int
    mas_reads: int
    flat_writes: int
    mas_writes: int
    mas_overwrites: int

    @property
    def read_ratio(self) -> float:
        """MAS reads over FLAT reads (>= 1 when the overwrite path reloads K/V)."""
        return self.mas_reads / self.flat_reads if self.flat_reads else 1.0

    @property
    def writes_equal(self) -> bool:
        """Section 5.4.1: both methods write only ``O`` back to DRAM."""
        return self.flat_writes == self.mas_writes


@dataclass
class DramAnalysisResult:
    """DRAM traffic comparison on the standard and constrained devices."""

    standard: list[DramRow] = field(default_factory=list)
    constrained: list[DramRow] = field(default_factory=list)
    constrained_l1_bytes: int = 0
    suite: str = "table1"

    def row(self, network: str, constrained: bool = False) -> DramRow:
        rows = self.constrained if constrained else self.standard
        for candidate in rows:
            if candidate.network == network:
                return candidate
        raise KeyError(f"no DRAM row for network {network!r}")

    def max_read_ratio(self, constrained: bool = False) -> float:
        rows = self.constrained if constrained else self.standard
        return max((r.read_ratio for r in rows), default=1.0)

    def as_rows(self, constrained: bool = False) -> list[list[object]]:
        rows = self.constrained if constrained else self.standard
        return [
            [
                r.network,
                r.flat_reads,
                r.mas_reads,
                r.read_ratio,
                r.flat_writes,
                r.mas_writes,
                r.writes_equal,
                r.mas_overwrites,
            ]
            for r in rows
        ]

    def columns(self) -> list[str]:
        """The header cell of each :meth:`as_rows` column, in both tables."""
        return [
            "Network",
            "FLAT reads (B)",
            "MAS reads (B)",
            "read ratio",
            "FLAT writes (B)",
            "MAS writes (B)",
            "writes equal",
            "overwrites",
        ]

    def format(self) -> str:
        headers = self.columns()
        parts = [
            format_table(
                headers,
                self.as_rows(constrained=False),
                precision=2,
                title="Section 5.4: DRAM accesses, standard edge device (5 MB L1)"
                + suite_title_suffix(self.suite),
            )
        ]
        if self.constrained:
            parts.append("")
            parts.append(
                format_table(
                    headers,
                    self.as_rows(constrained=True),
                    precision=2,
                    title=(
                        "Section 5.4: DRAM accesses, constrained L1 "
                        f"({self.constrained_l1_bytes // KB} KB) — overwrite path active"
                    ),
                )
            )
        return "\n".join(parts)


def _rows_for_runner(
    runner: ExperimentRunner, networks: list[str] | None
) -> list[DramRow]:
    matrix = runner.run_matrix(networks, ["flat", "mas"])
    rows: list[DramRow] = []
    for network, runs in matrix.items():
        flat, mas = runs["flat"].result, runs["mas"].result
        rows.append(
            DramRow(
                network=network,
                flat_reads=flat.dram_reads,
                mas_reads=mas.dram_reads,
                flat_writes=flat.dram_writes,
                mas_writes=mas.dram_writes,
                mas_overwrites=int(mas.metadata.get("num_overwrites", 0)),
            )
        )
    return rows


def _constrained_rows(
    runner: ExperimentRunner, networks: list[str] | None, l1_bytes: int
) -> list[DramRow]:
    """MAS vs FLAT on a shrunken L1 with a tiling that keeps K/V resident.

    Here the paper's reload behaviour actually shows up: both dataflows want
    K/V resident for reuse, MAS's extra score block overflows the buffer, the
    proactive overwrite strategy drops K/V tiles and re-reads them from DRAM.
    """
    from repro.analysis.ablations import overflowing_tiling
    from repro.schedulers.flat import FLATScheduler
    from repro.schedulers.mas import MASAttentionScheduler

    hardware = constrained_edge_device(l1_bytes)
    rows: list[DramRow] = []
    for name in runner.networks(networks):
        workload = runner.workload_for(name)
        tiling = overflowing_tiling(workload, hardware)
        mas = MASAttentionScheduler(hardware).simulate(workload, tiling)
        flat = FLATScheduler(hardware).simulate(workload, tiling)
        rows.append(
            DramRow(
                network=name,
                flat_reads=flat.dram_reads,
                mas_reads=mas.dram_reads,
                flat_writes=flat.dram_writes,
                mas_writes=mas.dram_writes,
                mas_overwrites=int(mas.metadata.get("num_overwrites", 0)),
            )
        )
    return rows


def run_dram_analysis(
    runner: ExperimentRunner | None = None,
    networks: list[str] | None = None,
    constrained_l1_bytes: int = 256 * KB,
    include_constrained: bool = True,
) -> DramAnalysisResult:
    """Reproduce the Section 5.4 DRAM read/write comparison over
    ``runner``'s suite (the default runner sweeps Table 1)."""
    runner = runner or ExperimentRunner()
    result = DramAnalysisResult(
        constrained_l1_bytes=constrained_l1_bytes, suite=runner.suite_name
    )
    result.standard = _rows_for_runner(runner, networks)
    if include_constrained:
        result.constrained = _constrained_rows(runner, networks, constrained_l1_bytes)
    return result
