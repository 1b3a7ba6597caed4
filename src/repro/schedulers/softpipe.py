"""Soft-Pipe baseline: pipelines the first MatMul with softmax only.

Soft-Pipe (Section 5.1) fuses ``C_i = Q_i K^T`` with ``P_i = softmax(C_i)``
and pipelines them across row-blocks (the MAC computes ``C_{i+1}`` while the
VEC computes ``P_i``), but the resulting ``P`` matrix is written back to DRAM
and the final ``O = PV`` MatMul runs as a separate, sequential pass that
reloads ``P``.
"""

from __future__ import annotations

from repro.core.analytic import BatchedCostModel, BlockStructure, TilingBatch
from repro.core.costs import Block
from repro.core.emit import emit_stage, make_emitters
from repro.core.tiling import TilingConfig, operand_tile_bytes, score_block_bytes
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.sim.tasks import TaskGraph
from repro.workloads.attention import AttentionWorkload


class SoftPipeScheduler(AttentionScheduler):
    """Pipelined QK^T + softmax, sequential PV with a DRAM round-trip for P."""

    name = "softpipe"
    display_name = "Soft-Pipe"

    def footprint_bytes(self, workload: AttentionWorkload, tiling: TilingConfig) -> int:
        """Two score blocks are in flight (C_{i+1} being produced, P_i in softmax)."""
        tiles = operand_tile_bytes(workload, tiling)
        kv_bytes = tiles["k_full"] if tiling.kv_resident else tiles["k"]
        return 2 * tiles["q"] + kv_bytes + 2 * score_block_bytes(workload, tiling)

    def _analytic_extra_dma(
        self, model: BatchedCostModel, batch: TilingBatch, structure: BlockStructure
    ):
        """P round-trip: one full-block store (stage A) + load (stage B) per block."""
        return 2 * model.dma_cycles_score_block(batch, structure)

    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        tiling = tiling.clamp_to(workload)
        costs = self.costs(workload, tiling)
        per_core = self.blocks(workload, tiling)
        graph = TaskGraph(name=self.name)
        emitters = make_emitters(graph, costs, per_core, self.name)

        direct = self.direct_emission

        # ------------- fused stage A: C_i = Q_i K^T, P_i = softmax(C_i) --- #
        def emit_qk_softmax(blocks: list[tuple[int, Block]]) -> list[int]:
            stores: list[int] = []
            for core, block in blocks:
                em = emitters[core]
                q_load = em.load_q(block)
                k_loads = em.kv_loads(block, "K")
                qk_tasks = em.qk_tiles(block, [(q_load, k_load) for k_load in k_loads])
                sm = em.softmax(block, deps=qk_tasks)
                stores.append(em.store_score(block, "P", deps=[sm]))
            return stores

        stage_a_tasks = emit_stage(graph, emitters, "K", emit_qk_softmax, direct)
        barrier = graph.add_barrier("softpipe.barrier.stageA", deps=stage_a_tasks).tid

        # ------------- sequential stage B: O = PV -------------------------- #
        def emit_pv(blocks: list[tuple[int, Block]]) -> list[int]:
            for core, block in blocks:
                em = emitters[core]
                p_load = em.load_score(block, "P", deps=[barrier])
                v_loads = em.kv_loads(block, "V", deps=[barrier])
                pv_tasks = em.pv_tiles(block, [(p_load, v_load) for v_load in v_loads])
                em.store_o(block, deps=pv_tasks)
            return []

        emit_stage(graph, emitters, "V", emit_pv, direct)

        return BuildResult(graph=graph)
