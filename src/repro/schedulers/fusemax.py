"""FuseMax baseline, scaled down to the edge device.

FuseMax (Nayak et al., 2024) decomposes attention into a sequence of extended
einsum operators and runs them in a single pass with an *online* (running)
softmax: for every key/value sub-tile ``j`` the MAC unit computes the score
tile ``Q_i K_j^T``, the VEC unit folds it into the running maximum / running
sum and rescales the output accumulator, and the MAC unit then accumulates
``P_{i,j} V_j`` into ``O_i``.  All intermediate data stays on-chip and the MAC
and VEC streams are pipelined across sub-tiles, so — unlike FLAT — MatMul and
softmax work overlap.  The price of the online formulation is the per-tile
correction work on the output accumulator (captured by
:meth:`repro.core.costs.TileCosts.softmax_tile`) plus a final normalization
epilogue, which is why MAS-Attention still comes out ahead on cycles in the
paper while FuseMax is often more energy-frugal.

As in the paper, FuseMax uses manually selected tiling sizes rather than the
searched tilings (``searchable = False``); the scheduler still accepts any
:class:`~repro.core.tiling.TilingConfig`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.analytic import BatchedCostModel, BlockStructure, TilingBatch
from repro.core.costs import Block
from repro.core.emit import block_positions, emit_units, make_emitters, position_context
from repro.core.tiling import TilingConfig, score_tile_footprint_bytes
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.sim.tasks import TaskGraph
from repro.workloads.attention import AttentionWorkload

__all__ = ["FuseMaxScheduler"]


class FuseMaxScheduler(AttentionScheduler):
    """Single-pass online-softmax attention pipelined over key/value sub-tiles."""

    name = "fusemax"
    display_name = "FuseMax"
    searchable = False

    def default_tiling(self, workload: AttentionWorkload) -> TilingConfig:
        """FuseMax's manually selected tiling (the paper tunes it by hand, not by search).

        The single-pass formulation streams K/V exactly once per row-block, so
        the key lever is making row-blocks as tall as the on-chip buffer
        allows (fewer passes over K/V); the key/value sub-tile follows the MAC
        array width.
        """
        nkv = min(workload.seq_kv, 4 * self.hardware.mac.cols)
        nq = workload.seq_q
        tiling = TilingConfig(bb=1, hh=1, nq=nq, nkv=nkv).clamp_to(workload)
        while (
            self.footprint_bytes(workload, tiling) > self.hardware.l1_bytes and tiling.nq > 1
        ):
            tiling = TilingConfig(
                bb=tiling.bb,
                hh=tiling.hh,
                nq=max(1, tiling.nq // 2),
                nkv=tiling.nkv,
                kv_resident=tiling.kv_resident,
            )
        return tiling

    def footprint_bytes(self, workload: AttentionWorkload, tiling: TilingConfig) -> int:
        """One Q tile, one K and one V sub-tile, two score sub-tiles and the O accumulator.

        The online softmax never materializes a full ``nq x N_kv`` score block;
        only the current score sub-tile (``nq x nkv``) and the one being folded
        are resident, plus the running max/sum vectors (negligible) and the
        output accumulator.
        """
        return score_tile_footprint_bytes(workload, tiling)

    def _analytic_vec_cycles(
        self, model: BatchedCostModel, batch: TilingBatch, structure: BlockStructure
    ):
        """Online softmax does strictly more VEC work than one full-width pass."""
        return np.maximum(
            model.vec_cycles_full_softmax(structure),
            model.vec_cycles_online_softmax(batch, structure),
        )

    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        tiling = tiling.clamp_to(workload)
        costs = self.costs(workload, tiling)
        per_core = self.blocks(workload, tiling)
        graph = TaskGraph(name=self.name)
        emitters = make_emitters(graph, costs, per_core, self.name)

        # The output accumulator is a single buffer, so block b+1's
        # accumulation cannot start before block b's epilogue has drained:
        # each position returns its epilogue per core.
        def emit_block(core: int, block: Block, last_epilogue: list[int] | None) -> int:
            em = emitters[core]
            q_load = em.load_q(block)
            k_loads = em.kv_loads(block, "K")
            v_loads = em.kv_loads(block, "V")

            # Ping-pong scheduling across key/value sub-tiles: in steady state
            # the MAC unit issues ``QK_{j+1}`` followed by ``PV_j`` while the
            # VEC unit folds score tile ``j+1`` into the running max/sum.  The
            # MAC program order therefore interleaves ``QK`` one tile ahead of
            # ``PV`` so a PV accumulation never blocks the next score tile.
            updates: list[int] = []
            pv_tasks: list[int] = []

            def emit_qk(tile: int) -> int:
                deps: list[int] = [q_load, k_loads[tile]]
                if last_epilogue is not None:
                    deps.append(last_epilogue[core])
                return em.matmul_qk(block, tile, deps=deps)

            def emit_update(tile: int, qk: int) -> int:
                # The online-softmax update folds score tile ``tile`` into the
                # running max/sum and rescales the output accumulator; the
                # running state makes consecutive updates a serial chain.
                deps: list[int] = [qk]
                if updates:
                    deps.append(updates[-1])
                update = em.softmax_tile(block, tile, deps=deps)
                updates.append(update)
                return update

            def emit_pv(tile: int) -> int:
                # The PV accumulation of tile ``tile`` consumes the rescaled
                # accumulator, so it follows its own update and the previous
                # accumulation (single accumulator buffer).
                deps: list[int] = [updates[tile], v_loads[tile]]
                if pv_tasks:
                    deps.append(pv_tasks[-1])
                pv = em.matmul_pv(block, tile, deps=deps)
                pv_tasks.append(pv)
                return pv

            num_tiles = costs.num_kv_tiles
            emit_update(0, emit_qk(0))
            for tile in range(1, num_tiles):
                emit_update(tile, emit_qk(tile))
                emit_pv(tile - 1)
            emit_pv(num_tiles - 1)

            epilogue = em.output_normalize(block, deps=[pv_tasks[-1]])
            em.store_o(block, deps=[epilogue])
            return epilogue

        emit_units(
            graph,
            emitters,
            block_positions(per_core),
            partial(position_context, emitters, "KV"),
            lambda blocks, last: [emit_block(core, block, last) for core, block in blocks],
            self.direct_emission,
        )

        return BuildResult(graph=graph)
