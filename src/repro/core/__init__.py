"""MAS-Attention core: the paper's primary contribution.

* :mod:`repro.core.tiling` — the multi-tiered tiling scheme (Section 4.2):
  sub-matrix tiling factors for the MatMul operands, row-granularity tiling for
  softmax, footprint accounting against the on-chip buffer.
* :mod:`repro.core.stream` — the stream-processing scheme (Section 4.1,
  Algorithms 1-4): warm-up / regular / finalize rounds that pipeline the two
  MatMul streams on the MAC unit with the softmax stream on the VEC unit.
* :mod:`repro.core.overwrite` — the proactive buffer-overwrite strategy
  (Section 4.3): selectively overwrite resident K/V tiles to let softmax finish,
  then reload and redo the interrupted MatMul tiles.
* :mod:`repro.core.emit` — :class:`~repro.core.emit.CoreEmitter`, through which
  every dataflow builder (MAS-Attention and the baselines) emits its tile tasks.

:class:`repro.schedulers.mas.MASAttentionScheduler` assembles the three pieces
into a simulatable task graph, as each baseline scheduler builds its own.
"""

from repro.core.tiling import (
    TilingConfig,
    score_block_bytes,
    operand_tile_bytes,
    mas_footprint_bytes,
    flat_footprint_bytes,
    default_tiling,
)
from repro.core.overwrite import OverwriteEvent, plan_overwrites
from repro.core.stream import StreamRound, RoundKind, plan_rounds

__all__ = [
    "TilingConfig",
    "score_block_bytes",
    "operand_tile_bytes",
    "mas_footprint_bytes",
    "flat_footprint_bytes",
    "default_tiling",
    "OverwriteEvent",
    "plan_overwrites",
    "StreamRound",
    "RoundKind",
    "plan_rounds",
]
