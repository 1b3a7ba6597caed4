"""Layer-Wise baseline: unfused, fully sequential attention execution.

The Layer-Wise method (Section 5.1) computes ``C = QK^T`` entirely, writing
the intermediate scores back to DRAM, then reloads ``C`` to apply softmax and
writes ``P`` back to DRAM, and finally reloads ``P`` to compute ``O = PV``.
The three stages are separated by barriers; nothing is fused, so the method is
memory-bound on the DRAM round-trips of the ``N x N`` intermediate matrices.
"""

from __future__ import annotations

from repro.core.analytic import BatchedCostModel, BlockStructure, TilingBatch
from repro.core.costs import Block
from repro.core.emit import emit_stage, make_emitters
from repro.core.tiling import TilingConfig, score_tile_footprint_bytes
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.sim.tasks import TaskGraph
from repro.workloads.attention import AttentionWorkload


class LayerWiseScheduler(AttentionScheduler):
    """Unfused baseline: MatMul -> (DRAM) -> softmax -> (DRAM) -> MatMul."""

    name = "layerwise"
    display_name = "Layer-Wise"
    # The three barriered stages alternate between MAC-only and VEC-only work,
    # so MAC and VEC cycles chain rather than overlap.
    analytic_serial_compute = True

    def footprint_bytes(self, workload: AttentionWorkload, tiling: TilingConfig) -> int:
        """Only one operand tile of each kind is resident; scores stream to DRAM."""
        return score_tile_footprint_bytes(workload, tiling)

    def _analytic_extra_dma(
        self, model: BatchedCostModel, batch: TilingBatch, structure: BlockStructure
    ):
        """Score round-trips: C out per tile, C in, P out, P in per block."""
        return model.dma_cycles_score_tiles(batch, structure) + 3 * model.dma_cycles_score_block(
            batch, structure
        )

    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        tiling = tiling.clamp_to(workload)
        costs = self.costs(workload, tiling)
        per_core = self.blocks(workload, tiling)
        graph = TaskGraph(name=self.name)
        emitters = make_emitters(graph, costs, per_core, self.name)

        direct = self.direct_emission

        # ----------------------- stage 1: C = QK^T ----------------------- #
        def emit_qk(blocks: list[tuple[int, Block]]) -> list[int]:
            stores: list[int] = []
            for core, block in blocks:
                em = emitters[core]
                q_load = em.load_q(block)
                k_loads = em.kv_loads(block, "K")
                for tile, k_load in enumerate(k_loads):
                    mm = em.matmul_qk(block, tile, deps=[q_load, k_load])
                    stores.append(em.store_score_tile(block, tile, "C", deps=[mm]))
            return stores

        stage1_tasks = emit_stage(graph, emitters, "K", emit_qk, direct)
        barrier1 = graph.add_barrier("layerwise.barrier.stage1", deps=stage1_tasks).tid

        # ----------------------- stage 2: P = softmax(C) ----------------- #
        def emit_softmax(blocks: list[tuple[int, Block]]) -> list[int]:
            stores: list[int] = []
            for core, block in blocks:
                em = emitters[core]
                c_load = em.load_score(block, "C", deps=[barrier1])
                sm = em.softmax(block, deps=[c_load])
                stores.append(em.store_score(block, "P", deps=[sm]))
            return stores

        stage2_tasks = emit_stage(graph, emitters, "", emit_softmax, direct)
        barrier2 = graph.add_barrier("layerwise.barrier.stage2", deps=stage2_tasks).tid

        # ----------------------- stage 3: O = PV -------------------------- #
        def emit_pv(blocks: list[tuple[int, Block]]) -> list[int]:
            for core, block in blocks:
                em = emitters[core]
                p_load = em.load_score(block, "P", deps=[barrier2])
                v_loads = em.kv_loads(block, "V", deps=[barrier2])
                pv_tasks = em.pv_tiles(block, [(p_load, v_load) for v_load in v_loads])
                em.store_o(block, deps=pv_tasks)
            return []

        emit_stage(graph, emitters, "V", emit_pv, direct)

        return BuildResult(graph=graph)
