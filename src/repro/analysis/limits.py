"""Section 5.6 — maximum sequence-length limits of MAS-Attention and FLAT.

The paper's closed-form argument: with FP16 data and row-granularity softmax,
MAS-Attention must keep two score rows resident simultaneously (``P_i`` plus
either ``P_{i-1}`` or ``C_{i+1}``), while FLAT's sequential execution only
ever needs one, so on the 5 MB simulated L1 MAS-Attention tops out around one
million tokens and FLAT around two million.  The harness evaluates the same
closed-form model (:func:`repro.schedulers.mas.mas_max_seq_len` and
:func:`repro.schedulers.flat.flat_max_seq_len`) across L1 capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.hardware.config import HardwareConfig
from repro.hardware.presets import simulated_edge_device
from repro.schedulers.flat import flat_max_seq_len
from repro.schedulers.mas import mas_max_seq_len
from repro.utils.units import MB
from repro.workloads.attention import FP16_BYTES

__all__ = ["SequenceLimitRow", "SequenceLimitResult", "run_limits"]


@dataclass(frozen=True)
class SequenceLimitRow:
    """Maximum sequence length of both methods for one L1 capacity."""

    l1_bytes: int
    mas_max_seq: int
    flat_max_seq: int

    @property
    def flat_over_mas(self) -> float:
        """FLAT's limit over MAS's (the paper reports ~2x)."""
        return self.flat_max_seq / self.mas_max_seq if self.mas_max_seq else float("inf")


@dataclass
class SequenceLimitResult:
    """Sequence-length limits across a sweep of L1 capacities."""

    emb: int
    rows: list[SequenceLimitRow] = field(default_factory=list)

    def row_for_l1(self, l1_bytes: int) -> SequenceLimitRow:
        for row in self.rows:
            if row.l1_bytes == l1_bytes:
                return row
        raise KeyError(f"no limit row for L1={l1_bytes} bytes")

    def as_rows(self) -> list[list[object]]:
        return [
            [row.l1_bytes / MB, row.mas_max_seq, row.flat_max_seq, row.flat_over_mas]
            for row in self.rows
        ]

    def format(self) -> str:
        headers = ["L1 (MB)", "MAS max seq", "FLAT max seq", "FLAT / MAS"]
        return format_table(
            headers,
            self.as_rows(),
            precision=2,
            title=(
                "Section 5.6: maximum sequence length "
                f"(E={self.emb}, {FP16_BYTES}-byte elements)"
            ),
        )


def run_limits(
    hardware: HardwareConfig | None = None,
    l1_sweep_bytes: list[int] | None = None,
    emb: int = 64,
) -> SequenceLimitResult:
    """Reproduce the Section 5.6 sequence-length-limit analysis."""
    hardware = hardware or simulated_edge_device()
    if l1_sweep_bytes is None:
        l1_sweep_bytes = [1 * MB, 2 * MB, hardware.l1_bytes, 8 * MB]
    result = SequenceLimitResult(emb=emb)
    for l1 in sorted(set(l1_sweep_bytes)):
        device = hardware.with_l1_bytes(l1)
        result.rows.append(
            SequenceLimitRow(
                l1_bytes=l1,
                mas_max_seq=mas_max_seq_len(device, emb=emb),
                flat_max_seq=flat_max_seq_len(device, emb=emb),
            )
        )
    return result
