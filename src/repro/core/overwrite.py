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

:func:`plan_overwrites` plans those events for one core's blocks from how far
a regular round overflows L1; the MAS-Attention scheduler
(:mod:`repro.schedulers.mas`) then materializes them as extra DMA reload
tasks and one redo MatMul tile.  For an interrupted ``C_{i+1}`` a dependency
also keeps the reload and the resumed MatMul behind the softmax that
triggered the overwrite; for an interrupted ``O_{i-1}`` the builder emits
``P_i`` after the MatMul, so there is no such dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costs import Block, TileCosts
from repro.utils.validation import ceil_div, require


class InfeasibleTilingError(ValueError):
    """Raised when a tiling cannot run on the device even with overwriting.

    The overwrite strategy can only evict K/V operand tiles; the two score
    blocks that must coexist (``P_i`` plus either ``P_{i-1}`` or ``C_{i+1}``)
    and the Q/O tiles are not evictable, so if those alone exceed the L1
    capacity the tiling is infeasible for MAS-Attention.
    """


@dataclass(frozen=True)
class OverwriteEvent:
    """One planned overwrite: which operand is dropped for which block.

    Dropping ``V`` interrupts the block's PV MatMul (Figure 2) and dropping
    ``K`` its QK MatMul (Figure 3); either way one tile is redone.
    """

    block_index: int
    victim: str                 # "K" or "V"
    reload_bytes: int

    def __post_init__(self) -> None:
        require(self.victim in ("K", "V"), f"victim must be 'K' or 'V', got {self.victim!r}")
        require(self.reload_bytes >= 0, "reload_bytes must be >= 0")


def plan_overwrites(blocks: list[Block], costs: TileCosts, overflow: int) -> list[OverwriteEvent]:
    """The overwrite events of one core's ``blocks`` when a regular round
    overflows L1 by ``overflow`` bytes (none when it fits).

    Each overflowing block overwrites as many K/V tiles as cover the
    overflow.  The victim alternates between the two cases of the paper: if
    the overflowing softmax ``P_{i-1}`` runs concurrently with ``O_{i-2}``
    (every regular round starts with a PV MatMul) the V tiles are
    overwritten; when it competes with the subsequent ``C_i`` the K tiles
    are overwritten.  Alternating per overflowing block matches the paper's
    description that both cases occur in practice.
    """
    if overflow <= 0:
        return []
    events = []
    for ordinal, block in enumerate(blocks):
        # Warm-up blocks (first two per core) have at most one score block
        # resident and never overflow before steady state.
        if block.index < 2:
            continue
        victim = "V" if ordinal % 2 == 0 else "K"
        tile_bytes = max(1, costs.kv_tile_bytes(block, 0))
        tiles = min(costs.num_kv_tiles, ceil_div(overflow, tile_bytes))
        events.append(
            OverwriteEvent(
                block_index=block.index,
                victim=victim,
                reload_bytes=sum(costs.kv_tile_bytes(block, t) for t in range(tiles)),
            )
        )
    return events
