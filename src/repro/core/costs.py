"""Shared tile-level cost accounting.

Every dataflow (MAS-Attention and all baselines) is built from the same four
kinds of tile tasks — Q/K/V/C/P/O DMA transfers, ``QK^T`` tile MatMuls,
row-wise softmax tiles, and ``PV`` tile MatMuls.  :class:`TileCosts` computes
the cycle counts and access counters of those tasks from the hardware
configuration, so all schedulers share exactly the same cost primitives and
differ only in *which* tasks they emit and *how* they are ordered and
overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.hardware.compute_units import (
    elementwise_cycles,
    elementwise_vec_ops,
    matmul_cycles,
    matmul_macs,
    softmax_cycles,
    softmax_vec_ops,
)
from repro.hardware.config import HardwareConfig
from repro.hardware.memory import dma_cycles
from repro.core.tiling import TilingConfig
from repro.sim.tasks import counter_tuple
from repro.utils.validation import ceil_div, check_positive_int, require
from repro.workloads.attention import AttentionWorkload


#: VEC operations per element of the output accumulator that one online-softmax
#: tile update pays (running-max update, rescale, running-sum update).
ONLINE_SOFTMAX_CORRECTION_OPS = 4


class Block(NamedTuple):
    """One (batch-head group, query row-block) unit of the outer iteration space.

    A named tuple, so that it is cheap to make: every build makes one for
    every block.
    """

    index: int
    core: int
    head_group: int
    row_block: int
    rows: int
    group_size: int
    first_in_group: bool

    def label(self) -> str:
        """Short label used in task names."""
        return f"g{self.head_group}r{self.row_block}"


def head_group_problems(
    workload: AttentionWorkload, tiling: TilingConfig, group: int
) -> tuple[slice, slice]:
    """Batch and head slices of the (batch, head) problems head group ``group`` covers.

    Groups are numbered batch-major: group ``i * ceil(H/hh) + j`` covers
    batches ``[i*bb, (i+1)*bb)`` and heads ``[j*hh, (j+1)*hh)``, both cut at
    the workload's edge, so an edge group covers
    ``min(bb, B - i*bb) * min(hh, H - j*hh)`` problems.
    """
    i, j = divmod(group, ceil_div(workload.heads, tiling.hh))
    return (
        slice(i * tiling.bb, min((i + 1) * tiling.bb, workload.batch)),
        slice(j * tiling.hh, min((j + 1) * tiling.hh, workload.heads)),
    )


def partition_blocks(
    workload: AttentionWorkload, tiling: TilingConfig, num_cores: int
) -> list[list[Block]]:
    """Split the outer iteration space into per-core block lists.

    Head groups (blocks of ``bb`` batches x ``hh`` heads, see
    :func:`head_group_problems`) are assigned to cores round-robin; all
    row-blocks of a head group stay on the same core so that resident K/V
    tiles can be reused across them.
    """
    check_positive_int(num_cores, "num_cores")
    num_groups = tiling.num_head_groups(workload)
    num_rows = tiling.num_row_blocks(workload)

    per_core: list[list[Block]] = [[] for _ in range(num_cores)]
    for group in range(num_groups):
        core = group % num_cores
        batches, heads = head_group_problems(workload, tiling, group)
        covered = (batches.stop - batches.start) * (heads.stop - heads.start)
        for row in range(num_rows):
            rows = min(tiling.nq, workload.seq_q - row * tiling.nq)
            per_core[core].append(
                Block(
                    index=len(per_core[core]),
                    core=core,
                    head_group=group,
                    row_block=row,
                    rows=rows,
                    group_size=covered,
                    first_in_group=(row == 0),
                )
            )
    return per_core


@dataclass(frozen=True)
class TaskCost:
    """Cycle count plus the eight access counters of one task.

    Made through :meth:`of`: ``counters`` holds the values of
    :data:`repro.sim.tasks.COUNTERS` in order, which
    :func:`~repro.sim.tasks.counter_tuple` checks to be known and
    non-negative; the cycles are checked here.
    """

    cycles: int
    counters: tuple[int, ...]

    def __post_init__(self) -> None:
        require(self.cycles >= 0, f"cycles must be >= 0, got {self.cycles}")

    @classmethod
    def of(cls, cycles: int, **counters: int) -> TaskCost:
        """A cost from named counters (the rest are zero)."""
        return cls(cycles, counter_tuple(**counters))


def _memoized(make: Callable[..., TaskCost]) -> Callable[..., TaskCost]:
    """Make each cost once per :class:`TileCosts` and distinct arguments."""
    name = make.__name__

    def cost(self: TileCosts, *args: int) -> TaskCost:
        key = (name, *args)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = make(self, *args)
        return found

    cost.__doc__ = make.__doc__
    return cost


class TileCosts:
    """Cost primitives for the tile tasks of one workload on one device and tiling.

    Each cost depends only on the device, the workload and a few sizes (bytes
    moved; MatMul shape and group; softmax rows and width), never on the
    tiling, and is made once per distinct value of them, then shared by every
    task that needs it.  ``memo`` holds those costs; pass the same dict to
    every :class:`TileCosts` of one device and workload (as
    :meth:`repro.schedulers.base.AttentionScheduler.costs` does) and the
    graphs of every tiling share them.  The per-tile lists of
    :meth:`tile_costs` depend on ``nkv`` and stay with this object.
    """

    def __init__(
        self,
        workload: AttentionWorkload,
        hardware: HardwareConfig,
        tiling: TilingConfig,
        memo: dict[tuple, TaskCost] | None = None,
    ) -> None:
        tiling.validate_for(workload)
        self.workload = workload
        self.hardware = hardware
        self.tiling = tiling
        self.dtype = workload.dtype_bytes
        # Actual row counts of every K/V sub-matrix tile.
        self.kv_tile_rows: list[int] = []
        remaining = workload.seq_kv
        while remaining > 0:
            rows = min(tiling.nkv, remaining)
            self.kv_tile_rows.append(rows)
            remaining -= rows
        self._memo: dict[tuple, TaskCost] = {} if memo is None else memo
        self._tiles: dict[tuple, tuple[list[int], list[tuple[int, ...]]]] = {}

    # ------------------------------------------------------------------ #
    # DMA transfers
    # ------------------------------------------------------------------ #
    @_memoized
    def load_bytes(self, num_bytes: int) -> TaskCost:
        """DMA load of ``num_bytes`` from DRAM into L1."""
        return TaskCost.of(
            dma_cycles(self.hardware, num_bytes),
            dram_bytes_read=num_bytes,
            l1_bytes_written=num_bytes,
        )

    @_memoized
    def _store(self, num_bytes: int) -> TaskCost:
        return TaskCost.of(
            dma_cycles(self.hardware, num_bytes),
            dram_bytes_written=num_bytes,
            l1_bytes_read=num_bytes,
        )

    def q_bytes(self, block: Block) -> int:
        """Bytes of the Q_i tile of ``block``."""
        return block.group_size * block.rows * self.workload.emb * self.dtype

    def kv_tile_bytes(self, block: Block, tile: int) -> int:
        """Bytes of the ``tile``-th K (or V) sub-matrix tile for ``block``'s group."""
        return block.group_size * self.kv_tile_rows[tile] * self.workload.emb * self.dtype

    def score_bytes(self, block: Block) -> int:
        """Bytes of the C_i / P_i score block of ``block`` (full KV width)."""
        return block.group_size * block.rows * self.workload.seq_kv * self.dtype

    def score_tile_bytes(self, block: Block, tile: int) -> int:
        """Bytes of the (rows x nkv) sub-tile of the score block."""
        return block.group_size * block.rows * self.kv_tile_rows[tile] * self.dtype

    def o_bytes(self, block: Block) -> int:
        """Bytes of the O_i output tile of ``block``."""
        return block.group_size * block.rows * self.workload.emb * self.dtype

    def load_q(self, block: Block) -> TaskCost:
        """DMA load of Q_i."""
        return self.load_bytes(self.q_bytes(block))

    def load_kv_tile(self, block: Block, tile: int) -> TaskCost:
        """DMA load of one K or V sub-matrix tile."""
        return self.load_bytes(self.kv_tile_bytes(block, tile))

    def load_score(self, block: Block) -> TaskCost:
        """DMA load of a full score block (used by Layer-Wise / Soft-Pipe)."""
        return self.load_bytes(self.score_bytes(block))

    def store_score(self, block: Block) -> TaskCost:
        """DMA store of a full score block (used by Layer-Wise / Soft-Pipe)."""
        return self._store(self.score_bytes(block))

    def store_score_tile(self, block: Block, tile: int) -> TaskCost:
        """DMA store of one score sub-tile (used by Layer-Wise stage 1)."""
        return self._store(self.score_tile_bytes(block, tile))

    def store_o(self, block: Block) -> TaskCost:
        """DMA store of O_i."""
        return self._store(self.o_bytes(block))

    # ------------------------------------------------------------------ #
    # Compute tasks
    # ------------------------------------------------------------------ #
    @_memoized
    def _matmul(self, m: int, k: int, n: int, group: int) -> TaskCost:
        cycles = group * matmul_cycles(self.hardware.mac, m, k, n)
        macs = group * matmul_macs(m, k, n)
        a_bytes = group * m * k * self.dtype
        b_bytes = group * k * n * self.dtype
        out_bytes = group * m * n * self.dtype
        return TaskCost.of(
            cycles,
            mac_ops=macs,
            l1_bytes_read=a_bytes + b_bytes,
            l1_bytes_written=out_bytes,
            l0_bytes_read=2 * macs * self.dtype,
            l0_bytes_written=macs * self.dtype,
        )

    def qk_tile(self, block: Block, tile: int) -> TaskCost:
        """MatMul of Q_i (rows x E) with one K tile (E x nkv) on the MAC unit."""
        return self._matmul(block.rows, self.workload.emb, self.kv_tile_rows[tile], block.group_size)

    def pv_tile(self, block: Block, tile: int) -> TaskCost:
        """MatMul of one P_i sub-tile (rows x nkv) with one V tile (nkv x E)."""
        return self._matmul(block.rows, self.kv_tile_rows[tile], self.workload.emb, block.group_size)

    def softmax(self, block: Block) -> TaskCost:
        """Row-wise softmax of the full score block on the VEC unit."""
        return self._softmax(block.group_size * block.rows)

    @_memoized
    def _softmax(self, rows: int) -> TaskCost:
        cols = self.workload.seq_kv
        cycles = softmax_cycles(self.hardware.vec, rows, cols)
        ops = softmax_vec_ops(rows, cols, self.hardware.vec)
        score = rows * cols * self.dtype
        return TaskCost.of(
            cycles,
            vec_ops=ops,
            l1_bytes_read=score,
            l1_bytes_written=score,
            l0_bytes_read=ops * self.dtype,
            l0_bytes_written=score,
        )

    def softmax_tile(self, block: Block, tile: int) -> TaskCost:
        """Online-softmax update for one score sub-tile (FuseMax-style).

        Besides the plain softmax work on the sub-tile, the online formulation
        pays :data:`ONLINE_SOFTMAX_CORRECTION_OPS` per element of the running
        output accumulator.
        """
        return self._softmax_tile(block.group_size * block.rows, self.kv_tile_rows[tile])

    @_memoized
    def _softmax_tile(self, rows: int, cols: int) -> TaskCost:
        base_cycles = softmax_cycles(self.hardware.vec, rows, cols)
        base_ops = softmax_vec_ops(rows, cols, self.hardware.vec)
        acc_elems = rows * self.workload.emb
        corr_cycles = elementwise_cycles(
            self.hardware.vec, acc_elems, ONLINE_SOFTMAX_CORRECTION_OPS
        )
        corr_ops = elementwise_vec_ops(acc_elems, ONLINE_SOFTMAX_CORRECTION_OPS)
        tile_bytes = rows * cols * self.dtype
        acc_bytes = acc_elems * self.dtype
        return TaskCost.of(
            base_cycles + corr_cycles,
            vec_ops=base_ops + corr_ops,
            l1_bytes_read=tile_bytes + acc_bytes,
            l1_bytes_written=tile_bytes + acc_bytes,
            l0_bytes_read=(base_ops + corr_ops) * self.dtype,
            l0_bytes_written=tile_bytes,
        )

    def output_normalize(self, block: Block) -> TaskCost:
        """Final O_i normalization by the softmax denominator (FuseMax epilogue)."""
        return self._output_normalize(block.group_size * block.rows * self.workload.emb)

    @_memoized
    def _output_normalize(self, elems: int) -> TaskCost:
        cycles = elementwise_cycles(self.hardware.vec, elems, 1)
        ops = elementwise_vec_ops(elems, 1)
        o_bytes = elems * self.dtype
        return TaskCost.of(
            cycles,
            vec_ops=ops,
            l1_bytes_read=o_bytes,
            l1_bytes_written=o_bytes,
            l0_bytes_read=ops * self.dtype,
            l0_bytes_written=o_bytes,
        )

    # ------------------------------------------------------------------ #
    # Per-tile streams
    # ------------------------------------------------------------------ #
    def tile_costs(
        self, cost: Callable[[Block, int], TaskCost], block: Block
    ) -> tuple[list[int], list[tuple[int, ...]]]:
        """Cycles and counters of ``cost`` (a per-tile method of this object,
        such as :meth:`qk_tile`) on every K/V tile of ``block``, in tile order.

        Made once per method and block shape (rows and group size).
        """
        key = (cost.__name__, block.rows, block.group_size)
        found = self._tiles.get(key)
        if found is None:
            costs = [cost(block, tile) for tile in range(self.num_kv_tiles)]
            found = self._tiles[key] = ([c.cycles for c in costs], [c.counters for c in costs])
        return found

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def num_kv_tiles(self) -> int:
        """Number of K/V sub-matrix tiles."""
        return len(self.kv_tile_rows)
