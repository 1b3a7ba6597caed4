"""Vectorized analytic cost layer for the candidate-evaluation hot path.

The tuner's inner loop evaluates thousands of tiling candidates per workload.
Building and simulating a task graph per candidate is exact but slow; this
module provides the batched companion: a :class:`BatchedCostModel` that takes
whole *vectors* of tiling factors ``(bb, hh, nq, nkv, kv_resident)`` and
returns per-candidate cycle and access-count vectors in a handful of numpy
expressions.

It is *not* an independent reimplementation of the cost model.  Its cycle
arithmetic goes through the same scalar/array-polymorphic primitives the
simulator uses (:mod:`repro.hardware.compute_units`,
:mod:`repro.hardware.memory`), so the analytic layer and the per-task
:class:`repro.core.costs.TileCosts` evaluate the same expressions and cannot
drift.

What the closed forms exploit: after clamping, a candidate's iteration space
contains at most four group coverages (``bb`` or ``B % bb`` batches times
``hh`` or ``H % hh`` heads), at most **two** distinct row-block heights
(``nq`` and ``seq_q % nq``), and at most **two** distinct K/V tile widths
(``nkv`` and ``seq_kv % nkv``).  Every per-task cost therefore takes at most a
few distinct values, and a whole graph's totals collapse to count-weighted
sums over ``<= 4 x 2 x 2`` shape combinations — each vectorized over the
candidate axis.

The totals become **provable lower bounds** on makespan cycles and energy
(see ``AttentionScheduler.analytic_bounds``): the shared DMA channel's total
busy time and each compute resource's total work divided by the core count
both bound the simulated makespan from below, and mandatory access counters
bound the energy.  Bounds are what makes the search's pruning safe: a
candidate whose *lower bound* already loses to the incumbent can be discarded
without simulating it.  Each bound depends on its own candidate alone, so one
call bounds a search's whole grid.  Feasibility is ``AttentionScheduler.fits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.costs import ONLINE_SOFTMAX_CORRECTION_OPS
from repro.core.tiling import TilingConfig
from repro.hardware.compute_units import (
    matmul_cycles_batch,
    softmax_cycles_batch,
)
from repro.hardware.config import HardwareConfig
from repro.hardware.energy import energy_breakdown
from repro.hardware.memory import dma_cycles_batch
from repro.utils.arrays import cdiv
from repro.workloads.attention import AttentionWorkload

__all__ = [
    "AnalyticBounds",
    "BatchedCostModel",
    "BlockStructure",
    "TilingBatch",
    "batched_cost_model",
]


@dataclass(frozen=True)
class TilingBatch:
    """A structure-of-arrays view over N tiling candidates: the fields of
    :class:`repro.core.tiling.TilingConfig`, as int64 / bool numpy arrays."""

    bb: np.ndarray
    hh: np.ndarray
    nq: np.ndarray
    nkv: np.ndarray
    kv_resident: np.ndarray

    def __len__(self) -> int:
        return int(self.bb.shape[0])

    @classmethod
    def from_tilings(cls, tilings: Sequence[TilingConfig]) -> "TilingBatch":
        """Pack a sequence of scalar tilings into one batch."""
        return cls.from_rows([(t.bb, t.hh, t.nq, t.nkv, t.kv_resident) for t in tilings])

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "TilingBatch":
        """Pack ``(bb, hh, nq, nkv, kv_resident)`` tuples into one batch.

        The search's grid points and memo keys are such tuples, so a whole
        grid packs without building a :class:`TilingConfig` per point.
        """
        bb, hh, nq, nkv, kv_resident = np.asarray(rows, dtype=np.int64).reshape(-1, 5).T.copy()
        return cls(bb=bb, hh=hh, nq=nq, nkv=nkv, kv_resident=kv_resident.astype(bool))

    def clamp_to(self, workload: AttentionWorkload) -> "TilingBatch":
        """Batched :meth:`TilingConfig.clamp_to`: clamp factors to the workload."""
        return TilingBatch(
            bb=np.minimum(self.bb, workload.batch),
            hh=np.minimum(self.hh, workload.heads),
            nq=np.minimum(self.nq, workload.seq_q),
            nkv=np.minimum(self.nkv, workload.seq_kv),
            kv_resident=self.kv_resident,
        )


@dataclass(frozen=True)
class BlockStructure:
    """Per-candidate counts describing the (clamped) block iteration space.

    All fields are int64 vectors over the candidate axis (``groups`` holds
    pairs of them).  ``indicator``
    fields are 0/1 counts so remainder terms can be masked by multiplication
    (several cost primitives are non-zero even for empty shapes — e.g. the
    MAC fill overhead with a zero reduction dimension — so remainder terms
    must never be *evaluated into* the sum unmasked).
    """

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]  # (coverage, count) per group shape
    num_row_blocks: np.ndarray   # Rq = ceil(Nq/nq) row-blocks per group
    num_full_rows: np.ndarray    # row-blocks of height nq
    rem_rows: np.ndarray         # height of the remainder row-block (Nq % nq)
    has_rem_rows: np.ndarray     # 1 iff a remainder row-block exists
    num_kv_tiles: np.ndarray     # T = ceil(Nkv/nkv) K/V tiles per group
    num_full_kv: np.ndarray      # tiles of width nkv
    rem_kv: np.ndarray           # width of the remainder tile (Nkv % nkv)
    has_rem_kv: np.ndarray       # 1 iff a remainder tile exists

    def block_combos(self):
        """(coverage, rows, count) triples enumerating the distinct block shapes."""
        for group, group_count in self.groups:
            for rows, row_count in (
                (None, self.num_full_rows),
                (self.rem_rows, self.has_rem_rows),
            ):
                yield group, rows, group_count * row_count


@dataclass(frozen=True)
class AnalyticBounds:
    """Provable lower bounds for one scheduler over N candidates.

    Attributes
    ----------
    cycles:
        Lower bound on the simulated makespan.
    energy_pj:
        Lower bound on the simulated total energy.
    """

    cycles: np.ndarray
    energy_pj: np.ndarray

    def __len__(self) -> int:
        return int(self.cycles.shape[0])


class BatchedCostModel:
    """Closed-form batched totals of the tile-task cost model.

    One instance is specific to a ``(workload, hardware)`` pair; everything
    that does not depend on the tiling candidate — workload dimensions, unit
    specs, the full-softmax per-row cycle cost, the mandatory DRAM floor — is
    computed once in ``__init__`` and reused across every batch of the sweep
    (see :func:`batched_cost_model` for the memoized constructor).
    """

    def __init__(self, workload: AttentionWorkload, hardware: HardwareConfig) -> None:
        self.workload = workload
        self.hardware = hardware
        self.batch_dim = workload.batch
        self.heads = workload.heads
        self.seq_q = workload.seq_q
        self.seq_kv = workload.seq_kv
        self.emb = workload.emb
        self.dtype = workload.dtype_bytes
        self.total_problems = workload.batch * workload.heads
        self.num_cores = hardware.num_cores
        # Per-workload constants: full-softmax cost is linear in its row count
        # (see softmax_cycles_batch), so one per-row figure covers every block.
        self.softmax_cycles_per_row = int(
            softmax_cycles_batch(hardware.vec, 1, workload.seq_kv)
        )
        self.softmax_ops_per_row = workload.seq_kv * hardware.vec.softmax_ops_per_element

    # ------------------------------------------------------------------ #
    # Iteration-space structure
    # ------------------------------------------------------------------ #
    def structure(self, batch: TilingBatch) -> BlockStructure:
        """Count the distinct block shapes of each candidate.

        Mirrors :func:`repro.core.costs.head_group_problems`: a group covers
        ``bb`` or ``B % bb`` batches times ``hh`` or ``H % hh`` heads, so there
        are at most four group shapes.  A shape whose count is zero for every
        candidate is dropped, so batch-1 workloads evaluate at most two.
        """
        cuts = []  # per dimension, (size, count) of its full cut and of its remainder
        for dim, tile in ((self.batch_dim, batch.bb), (self.heads, batch.hh)):
            rem = dim % tile
            cut = [(tile, dim // tile)]
            if np.count_nonzero(rem):
                cut.append((rem, (rem > 0).astype(np.int64)))
            cuts.append(cut)
        rem_rows = self.seq_q % batch.nq
        rem_kv = self.seq_kv % batch.nkv
        return BlockStructure(
            groups=tuple((b * h, nb * nh) for b, nb in cuts[0] for h, nh in cuts[1]),
            num_row_blocks=cdiv(self.seq_q, batch.nq),
            num_full_rows=self.seq_q // batch.nq,
            rem_rows=rem_rows,
            has_rem_rows=(rem_rows > 0).astype(np.int64),
            num_kv_tiles=cdiv(self.seq_kv, batch.nkv),
            num_full_kv=self.seq_kv // batch.nkv,
            rem_kv=rem_kv,
            has_rem_kv=(rem_kv > 0).astype(np.int64),
        )

    # ------------------------------------------------------------------ #
    # Compute totals
    # ------------------------------------------------------------------ #
    def mac_cycles(self, batch: TilingBatch, s: BlockStructure) -> np.ndarray:
        """Total MAC cycles of all QK and PV tile MatMuls, across all cores.

        Each block of coverage ``g`` and height ``rows`` pays
        ``g * matmul_cycles(...)`` per tile (see ``TileCosts._matmul``).
        """
        mac = self.hardware.mac

        def per_rows(rows: np.ndarray) -> np.ndarray:
            full = matmul_cycles_batch(mac, rows, self.emb, batch.nkv) + matmul_cycles_batch(
                mac, rows, batch.nkv, self.emb
            )
            rem = matmul_cycles_batch(mac, rows, self.emb, s.rem_kv) + matmul_cycles_batch(
                mac, rows, s.rem_kv, self.emb
            )
            return s.num_full_kv * full + s.has_rem_kv * rem

        total = np.zeros(len(batch), dtype=np.int64)
        full_rows = per_rows(batch.nq)
        rem_rows = per_rows(s.rem_rows)
        for group, rows, count in s.block_combos():
            total = total + count * group * (full_rows if rows is None else rem_rows)
        return total

    def vec_cycles_full_softmax(self, s: BlockStructure) -> np.ndarray:
        """Total VEC cycles when every block runs one full-width softmax.

        Exact for the full-softmax dataflows and a valid lower bound for the
        online-softmax (FuseMax) one: splitting the softmax into tiles only
        adds per-tile ceil losses, extra row overheads and correction work.
        """
        total = self.total_problems * self.seq_q * self.softmax_cycles_per_row
        return np.full_like(s.num_kv_tiles, total)  # the same for every candidate

    def vec_cycles_online_softmax(self, batch: TilingBatch, s: BlockStructure) -> np.ndarray:
        """Lower bound on the FuseMax online-softmax VEC cycles.

        Per block: one ``softmax_tile`` per K/V tile (a tile-width softmax
        that stays linear in the row count, plus the
        :data:`~repro.core.costs.ONLINE_SOFTMAX_CORRECTION_OPS` correction per
        output accumulator element) and one 1-op/element normalize epilogue.
        The ceil-per-task losses of the elementwise parts are bounded from
        below by one ceil over the batch total (``sum ceil(x_i) >= ceil(sum
        x_i)``).
        """
        vec = self.hardware.vec
        per_row_full = softmax_cycles_batch(vec, 1, batch.nkv)
        per_row_rem = softmax_cycles_batch(vec, 1, s.rem_kv)
        tile_row_cycles = s.num_full_kv * per_row_full + s.has_rem_kv * per_row_rem
        covered_rows = self.total_problems * self.seq_q
        acc_elems = covered_rows * self.emb
        correction = cdiv(
            acc_elems * ONLINE_SOFTMAX_CORRECTION_OPS * s.num_kv_tiles,
            vec.throughput_ops_per_cycle,
        )
        normalize = cdiv(acc_elems, vec.throughput_ops_per_cycle)
        return covered_rows * tile_row_cycles + correction + normalize

    # ------------------------------------------------------------------ #
    # DMA totals
    # ------------------------------------------------------------------ #
    def _dma(self, num_bytes: np.ndarray) -> np.ndarray:
        return dma_cycles_batch(self.hardware, num_bytes)

    def dma_cycles_common(self, batch: TilingBatch, s: BlockStructure) -> np.ndarray:
        """Total DMA-channel cycles every dataflow pays: Q in, K/V in, O out.

        Q loads and O stores move ``g * rows * E`` elements per block; K and
        V are loaded tile by tile once per head group when ``kv_resident``
        and once per row-block when streamed — exactly the caching rule of
        :meth:`repro.core.emit.CoreEmitter.kv_loads`, through which every
        graph builder loads K and V.
        """
        elem = self.emb * self.dtype
        q_and_o = np.zeros(len(batch), dtype=np.int64)
        for group, rows, count in s.block_combos():
            height = batch.nq if rows is None else rows
            q_and_o = q_and_o + count * 2 * self._dma(group * height * elem)

        kv_per_group = np.zeros(len(batch), dtype=np.int64)
        for group, count in s.groups:
            tiles = s.num_full_kv * self._dma(group * batch.nkv * elem) + s.has_rem_kv * self._dma(
                group * s.rem_kv * elem
            )
            kv_per_group = kv_per_group + count * 2 * tiles
        kv_total = kv_per_group * np.where(batch.kv_resident, 1, s.num_row_blocks)
        return q_and_o + kv_total

    def dma_cycles_score_block(self, batch: TilingBatch, s: BlockStructure) -> np.ndarray:
        """Total DMA cycles for one full-score-block transfer per block.

        Building block for the unfused baselines' extra traffic: Layer-Wise
        and Soft-Pipe round-trip ``C``/``P`` through DRAM as full blocks.
        """
        total = np.zeros(len(batch), dtype=np.int64)
        for group, rows, count in s.block_combos():
            height = batch.nq if rows is None else rows
            total = total + count * self._dma(group * height * self.seq_kv * self.dtype)
        return total

    def dma_cycles_score_tiles(self, batch: TilingBatch, s: BlockStructure) -> np.ndarray:
        """Total DMA cycles for one per-tile score transfer per block.

        Layer-Wise stages 1 and 3 move the score block one ``rows x nkv``
        sub-tile at a time (one DMA setup per tile).
        """
        total = np.zeros(len(batch), dtype=np.int64)
        for group, rows, count in s.block_combos():
            height = batch.nq if rows is None else rows
            tiles = s.num_full_kv * self._dma(
                group * height * batch.nkv * self.dtype
            ) + s.has_rem_kv * self._dma(group * height * s.rem_kv * self.dtype)
            total = total + count * tiles
        return total

    # ------------------------------------------------------------------ #
    # Access counters and energy
    # ------------------------------------------------------------------ #
    def counters_common(self, batch: TilingBatch, s: BlockStructure) -> dict[str, np.ndarray]:
        """Mandatory access counters every dataflow accumulates at least.

        Covers the tasks all graphs share — Q/K/V loads, O stores, the QK and
        PV tile MatMuls and the softmax work — with the same per-task counter
        definitions as :class:`repro.core.costs.TileCosts`.  Extra traffic
        (score round-trips, overwrite reloads) only adds on top, so these are
        valid per-counter lower bounds.
        """
        d = self.dtype
        covered = self.total_problems
        q_bytes = covered * self.seq_q * self.emb * d
        o_bytes = q_bytes
        kv_pass = np.where(batch.kv_resident, 1, s.num_row_blocks)
        kv_bytes = 2 * covered * self.seq_kv * self.emb * d * kv_pass
        mac_ops = 2 * covered * self.seq_q * self.emb * self.seq_kv
        vec_ops = covered * self.seq_q * self.softmax_ops_per_row
        score_bytes = covered * self.seq_q * self.seq_kv * d
        # MatMul operand/result traffic per TileCosts._matmul, summed in
        # closed form over all blocks and tiles.
        rq, t = s.num_row_blocks, s.num_kv_tiles
        matmul_l1_read = d * covered * (
            self.emb * self.seq_q * t
            + 2 * self.emb * self.seq_kv * rq
            + self.seq_q * self.seq_kv
        )
        matmul_l1_written = d * covered * (
            self.seq_q * self.seq_kv + self.seq_q * self.emb * t
        )
        return {
            "dram_bytes_read": q_bytes + kv_bytes,
            "dram_bytes_written": o_bytes,
            "l1_bytes_read": o_bytes + matmul_l1_read + score_bytes,
            "l1_bytes_written": q_bytes + kv_bytes + matmul_l1_written + score_bytes,
            "l0_bytes_read": 2 * mac_ops * d + vec_ops * d,
            "l0_bytes_written": mac_ops * d + score_bytes,
            "mac_ops": mac_ops,
            "vec_ops": vec_ops,
        }

    def energy_lower_bound(
        self, counters: dict[str, np.ndarray], cycles: np.ndarray
    ) -> np.ndarray:
        """Map counter lower bounds + a cycle lower bound to an energy bound.

        Evaluates :func:`repro.hardware.energy.energy_breakdown`, the
        expression the simulator's energy model evaluates; it is monotone in
        every input, so lower-bound counters and cycles yield a lower-bound
        energy.
        """
        return energy_breakdown(self.hardware, {**counters, "total_cycles": cycles}).total_pj

    # ------------------------------------------------------------------ #
    # Makespan bounds
    # ------------------------------------------------------------------ #
    def cycles_lower_bound(
        self,
        dma_cycles_total: np.ndarray,
        mac_cycles_total: np.ndarray,
        vec_cycles_total: np.ndarray,
        serial_compute: bool,
    ) -> np.ndarray:
        """Resource-sum makespan bound.

        The DMA channel is shared by all cores, so its total busy time bounds
        the makespan directly; MAC/VEC work is spread over ``num_cores``
        cores, so the busiest core does at least ``ceil(total / num_cores)``.
        When a scheduler serializes MAC and VEC per core (``serial_compute``)
        the two sums chain instead of overlapping.
        """
        if serial_compute:
            compute = cdiv(mac_cycles_total + vec_cycles_total, self.num_cores)
        else:
            compute = np.maximum(
                cdiv(mac_cycles_total, self.num_cores),
                cdiv(vec_cycles_total, self.num_cores),
            )
        return np.maximum(dma_cycles_total, compute)


@lru_cache(maxsize=128)
def batched_cost_model(
    workload: AttentionWorkload, hardware: HardwareConfig
) -> BatchedCostModel:
    """Memoized :class:`BatchedCostModel` constructor.

    Both arguments are frozen dataclasses, so repeated sweeps over the same
    workload/device reuse one model (and its precomputed constants) instead of
    rebuilding it per batch.
    """
    return BatchedCostModel(workload, hardware)
