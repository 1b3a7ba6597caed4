"""Multi-tiered tiling scheme (Section 4.2).

MAS-Attention tiles the attention computation at two granularities:

* **sub-matrix tiling** for the MatMul operands: ``K`` and ``V`` are split
  along the key/value sequence dimension into tiles of ``nkv`` rows, so that
  ``C_i = Q_i K^T`` and ``O_i = P_i V`` are computed as streams of small tile
  MatMuls that fit next to the other resident data;
* **row-granularity tiling** for softmax: ``Q`` (and hence ``C``/``P``/``O``)
  is split along the query sequence dimension into blocks of ``nq`` rows, the
  natural unit of the row-wise softmax.

On top of those, the batch and head dimensions are blocked by ``bb`` and
``hh`` and the resulting (batch, head) groups are distributed across cores.

This module defines the :class:`TilingConfig` dataclass plus the on-chip
footprint model used both to validate tilings against the L1 capacity and to
drive the proactive overwrite strategy and the sequence-length limit analysis
(Section 5.6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.config import HardwareConfig
from repro.utils.validation import ceil_div, check_positive_int, require
from repro.workloads.attention import AttentionWorkload


@dataclass(frozen=True)
class TilingConfig:
    """Tiling factors for one attention workload.

    Attributes
    ----------
    bb:
        Batch tile (number of batch elements per block).
    hh:
        Head tile (number of heads per block).
    nq:
        Query rows per row-block (row-granularity tiling for softmax).
    nkv:
        Key/value rows per sub-matrix tile (fine-grained MatMul tiling).
    kv_resident:
        Compute-ordering choice refined by the Genetic Algorithm: if true the
        K and V tiles of a (batch, head) group stay resident in L1 and are
        reused across its row-blocks (fewer DRAM reads, larger footprint);
        if false they are streamed from DRAM for every row-block.
    """

    bb: int = 1
    hh: int = 1
    nq: int = 64
    nkv: int = 64
    kv_resident: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.bb, "bb")
        check_positive_int(self.hh, "hh")
        check_positive_int(self.nq, "nq")
        check_positive_int(self.nkv, "nkv")

    # ------------------------------------------------------------------ #
    # Validation and derived iteration counts
    # ------------------------------------------------------------------ #
    def validate_for(self, workload: AttentionWorkload) -> None:
        """Check the factors do not exceed the workload dimensions."""
        require(self.bb <= workload.batch, f"bb={self.bb} exceeds batch={workload.batch}")
        require(self.hh <= workload.heads, f"hh={self.hh} exceeds heads={workload.heads}")
        require(self.nq <= workload.seq_q, f"nq={self.nq} exceeds seq_q={workload.seq_q}")
        require(self.nkv <= workload.seq_kv, f"nkv={self.nkv} exceeds seq_kv={workload.seq_kv}")

    def clamp_to(self, workload: AttentionWorkload) -> "TilingConfig":
        """Return a copy whose factors are clamped to the workload dimensions
        (``self`` when every factor already fits)."""
        if (
            self.bb <= workload.batch
            and self.hh <= workload.heads
            and self.nq <= workload.seq_q
            and self.nkv <= workload.seq_kv
        ):
            return self
        return replace(
            self,
            bb=min(self.bb, workload.batch),
            hh=min(self.hh, workload.heads),
            nq=min(self.nq, workload.seq_q),
            nkv=min(self.nkv, workload.seq_kv),
        )

    def num_head_groups(self, workload: AttentionWorkload) -> int:
        """Number of (batch, head) groups: ``ceil(B/bb) * ceil(H/hh)``."""
        return ceil_div(workload.batch, self.bb) * ceil_div(workload.heads, self.hh)

    def num_row_blocks(self, workload: AttentionWorkload) -> int:
        """Number of query row-blocks per head group: ``ceil(Nq/nq)``."""
        return ceil_div(workload.seq_q, self.nq)

    def num_kv_tiles(self, workload: AttentionWorkload) -> int:
        """Number of K/V sub-matrix tiles per head group: ``ceil(Nkv/nkv)``."""
        return ceil_div(workload.seq_kv, self.nkv)

    def num_blocks(self, workload: AttentionWorkload) -> int:
        """Total number of row-blocks across all head groups (the ``Tr`` of Algorithm 1)."""
        return self.num_head_groups(workload) * self.num_row_blocks(workload)

    @property
    def group_size(self) -> int:
        """Number of independent attention problems processed together per block."""
        return self.bb * self.hh

    def as_dict(self) -> dict[str, int | bool]:
        """Plain-dict view used for logging and serialization."""
        return {
            "bb": self.bb,
            "hh": self.hh,
            "nq": self.nq,
            "nkv": self.nkv,
            "kv_resident": self.kv_resident,
        }


# ---------------------------------------------------------------------- #
# Footprint model
# ---------------------------------------------------------------------- #
def operand_tile_bytes(workload: AttentionWorkload, tiling: TilingConfig) -> dict[str, int]:
    """Bytes of each on-chip operand tile for one (batch, head) group block.

    Returned keys: ``q`` (Q_i), ``k`` (one K tile), ``v`` (one V tile),
    ``k_full`` / ``v_full`` (all of K / V for the group, for kv_resident
    ordering), ``o`` (O_i accumulator).
    """
    g = tiling.group_size
    d = workload.dtype_bytes
    rows = min(tiling.nq, workload.seq_q)
    kv = min(tiling.nkv, workload.seq_kv)
    return {
        "q": g * rows * workload.emb * d,
        "k": g * kv * workload.emb * d,
        "v": g * kv * workload.emb * d,
        "k_full": g * workload.seq_kv * workload.emb * d,
        "v_full": g * workload.seq_kv * workload.emb * d,
        "o": g * rows * workload.emb * d,
    }


def score_block_bytes(workload: AttentionWorkload, tiling: TilingConfig) -> int:
    """Bytes of one score block ``C_i``/``P_i`` (``nq`` rows by the full KV length).

    Softmax is row-wise, so a score block always spans the entire key/value
    sequence regardless of the MatMul sub-tiling.
    """
    g = tiling.group_size
    rows = min(tiling.nq, workload.seq_q)
    return g * rows * workload.seq_kv * workload.dtype_bytes


def _kv_bytes(tiles: dict[str, int], tiling: TilingConfig) -> int:
    if tiling.kv_resident:
        return tiles["k_full"] + tiles["v_full"]
    return tiles["k"] + tiles["v"]


def score_tile_footprint_bytes(workload: AttentionWorkload, tiling: TilingConfig) -> int:
    """Peak L1 residency of a dataflow that holds scores as ``nq x nkv`` tiles.

    One Q tile, the K/V tiles, the O accumulator and two score tiles: the
    Layer-Wise and FuseMax dataflows never hold a full score block on chip.
    """
    tiles = operand_tile_bytes(workload, tiling)
    rows = min(tiling.nq, workload.seq_q)
    kv = min(tiling.nkv, workload.seq_kv)
    score_tile = tiling.group_size * rows * kv * workload.dtype_bytes
    return tiles["q"] + _kv_bytes(tiles, tiling) + tiles["o"] + 2 * score_tile


def flat_footprint_bytes(workload: AttentionWorkload, tiling: TilingConfig) -> int:
    """Peak L1 residency of the FLAT dataflow for one in-flight row-block.

    FLAT processes one row-block at a time and computes softmax in place, so
    only a single score block is ever resident.
    """
    tiles = operand_tile_bytes(workload, tiling)
    return tiles["q"] + _kv_bytes(tiles, tiling) + tiles["o"] + score_block_bytes(workload, tiling)


def mas_footprint_bytes(workload: AttentionWorkload, tiling: TilingConfig) -> int:
    """Peak L1 residency of the MAS-Attention pipeline.

    In a regular round the VEC unit produces ``P_{i-1}`` (in place over
    ``C_{i-1}``) while the MAC unit first consumes ``P_{i-2}`` and then
    produces ``C_i``; ``C_i`` is only allocated once ``P_{i-2}`` has been
    freed, so at most **two** score blocks are resident simultaneously
    (Section 5.6).  Two Q tiles are resident because ``Q_{i}`` is prefetched
    while ``Q_{i-1}``'s block is still in flight.
    """
    tiles = operand_tile_bytes(workload, tiling)
    return (
        2 * tiles["q"]
        + _kv_bytes(tiles, tiling)
        + 2 * tiles["o"]
        + 2 * score_block_bytes(workload, tiling)
    )


def mas_non_evictable_bytes(workload: AttentionWorkload, tiling: TilingConfig) -> int:
    """Bytes MAS-Attention can never overwrite: 2 score blocks + the Q/O tiles.

    This is the hard feasibility line of the proactive-overwrite strategy:
    the MAS scheduler's ``fits`` checks it, and its ``build`` raises
    :class:`~repro.core.overwrite.InfeasibleTilingError` when it exceeds L1.
    """
    tiles = operand_tile_bytes(workload, tiling)
    return 2 * score_block_bytes(workload, tiling) + 2 * tiles["q"] + 2 * tiles["o"]


def default_tiling(
    workload: AttentionWorkload,
    hardware: HardwareConfig,
    scheduler_footprint=mas_footprint_bytes,
) -> TilingConfig:
    """A reasonable untuned tiling used before (or instead of) search.

    The heuristic matches the MAC array and VEC lane widths (``nq``/``nkv``
    multiples of the PE array dimensions), prefers keeping K/V resident across
    a head group's row-blocks when the buffer allows it (the fused dataflows
    all rely on that reuse), and shrinks ``nq``/``nkv`` until the scheduler's
    footprint fits in L1.
    """
    nq = min(workload.seq_q, 4 * hardware.mac.rows)
    nkv = min(workload.seq_kv, 4 * hardware.mac.cols)
    tiling = TilingConfig(bb=1, hh=1, nq=nq, nkv=nkv)
    for kv_resident in (True, False):
        tiling = TilingConfig(bb=1, hh=1, nq=nq, nkv=nkv, kv_resident=kv_resident)
        tiling = tiling.clamp_to(workload)
        while scheduler_footprint(workload, tiling) > hardware.l1_bytes and tiling.nq > 1:
            tiling = replace(tiling, nq=max(1, tiling.nq // 2))
        while scheduler_footprint(workload, tiling) > hardware.l1_bytes and tiling.nkv > 1:
            tiling = replace(tiling, nkv=max(1, tiling.nkv // 2))
        if scheduler_footprint(workload, tiling) <= hardware.l1_bytes:
            return tiling
    return tiling
