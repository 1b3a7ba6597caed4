"""Proactive buffer-overwrite strategy (Section 4.3).

When the VEC unit is producing ``P_i`` and the on-chip buffer has no room for
it, MAS-Attention overwrites operand data of the MatMul currently running on
the MAC unit rather than stalling the softmax:

* if the MAC is executing ``O_{i-1} = P_{i-1} V`` (Figure 2), the resident
  ``V`` tiles are overwritten;
* if the MAC is executing ``C_{i+1} = Q_{i+1} K^T`` (Figure 3), the resident
  ``K`` tiles are overwritten.

The interrupted MatMul halts (no further writes to the buffer), the softmax
finishes, and the MAC then reloads the overwritten tensor from DRAM and
redoes the interrupted tile.  ``P_i`` itself can never be evicted because it
only exists on-chip (recomputing it would require ``C_i`` which has already
been consumed), whereas ``K``/``V`` can always be refetched from DRAM.

This module plans those events from the footprint model; the MAS graph
builder then materializes them as extra DMA reload tasks and one redo MatMul
tile.  For an interrupted ``C_{i+1}`` a dependency also keeps the reload and
the resumed MatMul behind the softmax that triggered the overwrite; for an
interrupted ``O_{i-1}`` the builder emits ``P_i`` after the MatMul, so there
is no such dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costs import Block, TileCosts
from repro.core.tiling import (
    TilingConfig,
    mas_non_evictable_bytes,
    operand_tile_bytes,
    score_block_bytes,
)
from repro.hardware.config import HardwareConfig
from repro.utils.validation import ceil_div, require
from repro.workloads.attention import AttentionWorkload


class InfeasibleTilingError(ValueError):
    """Raised when a tiling cannot run on the device even with overwriting.

    The overwrite strategy can only evict K/V operand tiles; the two score
    blocks that must coexist (``P_i`` plus either ``P_{i-1}`` or ``C_{i+1}``)
    and the Q/O tiles are not evictable, so if those alone exceed the L1
    capacity the tiling is infeasible for MAS-Attention.
    """


@dataclass(frozen=True)
class OverwriteEvent:
    """One planned overwrite: which operand is dropped for which block."""

    block_index: int
    victim: str                 # "K" or "V"
    interrupted_op: str         # "QK" or "PV"
    tiles_overwritten: int
    reload_bytes: int
    redo_tiles: int

    def __post_init__(self) -> None:
        require(self.victim in ("K", "V"), f"victim must be 'K' or 'V', got {self.victim!r}")
        require(
            self.interrupted_op in ("QK", "PV"),
            f"interrupted_op must be 'QK' or 'PV', got {self.interrupted_op!r}",
        )
        require(self.tiles_overwritten >= 1, "tiles_overwritten must be >= 1")
        require(self.reload_bytes >= 0, "reload_bytes must be >= 0")
        require(self.redo_tiles >= 0, "redo_tiles must be >= 0")


@dataclass
class OverwritePlan:
    """All overwrite events for one core's block stream."""

    events: list[OverwriteEvent] = field(default_factory=list)

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def total_reload_bytes(self) -> int:
        """Extra DRAM read bytes caused by reloading overwritten tensors."""
        return sum(e.reload_bytes for e in self.events)

    @property
    def total_redo_tiles(self) -> int:
        """Extra MatMul tiles redone after their operands were overwritten."""
        return sum(e.redo_tiles for e in self.events)


class OverwritePlanner:
    """Plans proactive overwrites for one core's stream of blocks."""

    def __init__(
        self,
        workload: AttentionWorkload,
        hardware: HardwareConfig,
        tiling: TilingConfig,
        enabled: bool = True,
    ) -> None:
        tiling.validate_for(workload)
        self.workload = workload
        self.hardware = hardware
        self.tiling = tiling
        self.enabled = enabled
        self._tiles = operand_tile_bytes(workload, tiling)
        self._score = score_block_bytes(workload, tiling)

    # ------------------------------------------------------------------ #
    # Residency model
    # ------------------------------------------------------------------ #
    def kv_resident_bytes(self) -> int:
        """Bytes of resident K + V data during a regular round."""
        if self.tiling.kv_resident:
            return self._tiles["k_full"] + self._tiles["v_full"]
        return self._tiles["k"] + self._tiles["v"]

    def non_evictable_bytes(self) -> int:
        """Bytes that can never be overwritten: 2 score blocks + Q and O tiles."""
        return mas_non_evictable_bytes(self.workload, self.tiling)

    def steady_state_bytes(self) -> int:
        """Peak residency of a regular round with no overwriting."""
        return self.non_evictable_bytes() + self.kv_resident_bytes()

    def overflow_bytes(self) -> int:
        """How many bytes a regular round exceeds the L1 capacity by (0 if it fits)."""
        return max(0, self.steady_state_bytes() - self.hardware.l1_bytes)

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleTilingError` if not even overwriting can help."""
        if self.non_evictable_bytes() > self.hardware.l1_bytes:
            raise InfeasibleTilingError(
                f"tiling {self.tiling.as_dict()} needs {self.non_evictable_bytes()} B of "
                f"non-evictable residency but L1 is only {self.hardware.l1_bytes} B"
            )

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self, blocks: list[Block], costs: TileCosts) -> OverwritePlan:
        """Plan overwrite events for every block where the residency overflows.

        The victim alternates between the two cases of the paper: if the
        overflowing softmax ``P_{i-1}`` runs concurrently with ``O_{i-2}``
        (every regular round starts with a PV MatMul) the V tiles are
        overwritten; when it competes with the subsequent ``C_i`` the K tiles
        are overwritten.  We alternate per overflowing block which matches the
        paper's description that both cases occur in practice.
        """
        self.check_feasible()
        plan = OverwritePlan()
        if not self.enabled:
            return plan
        overflow = self.overflow_bytes()
        if overflow <= 0:
            return plan

        for ordinal, block in enumerate(blocks):
            # Warm-up blocks (first two per core) have at most one score block
            # resident and never overflow before steady state.
            if block.index < 2:
                continue
            victim = "V" if ordinal % 2 == 0 else "K"
            interrupted = "PV" if victim == "V" else "QK"
            tile_bytes = max(1, costs.kv_tile_bytes(block, 0))
            tiles = min(costs.num_kv_tiles, ceil_div(overflow, tile_bytes))
            reload_bytes = sum(
                costs.kv_tile_bytes(block, t) for t in range(tiles)
            )
            plan.events.append(
                OverwriteEvent(
                    block_index=block.index,
                    victim=victim,
                    interrupted_op=interrupted,
                    tiles_overwritten=tiles,
                    reload_bytes=reload_bytes,
                    redo_tiles=1,
                )
            )
        return plan
