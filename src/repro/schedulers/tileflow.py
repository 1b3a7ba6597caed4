"""TileFlow baseline: fused attention with tree-based, synchronous pipelining.

TileFlow (Zheng et al., 2023) models fusion dataflows as an analysis tree and
pipelines the fused operators.  The original paper does not publish enough
implementation detail for an exact port, so — like the MAS-Attention authors —
we reproduce its *intended operational characteristics*: all three attention
operators are fused on-chip (no DRAM round-trips for ``C``/``P``), the tiled
operators are pipelined across row-blocks on the MAC and VEC units, but the
pipeline is **synchronous**: each pipeline round is closed by a barrier, so a
round only starts once every operator of the previous round has drained.  This
is the key difference from MAS-Attention's *semi-synchronous* stream
processing, which lets tiles slide across round boundaries as soon as their
own data dependencies are met and which adds the proactive overwrite strategy
for overflowing rounds.  Both run the rounds of
:func:`repro.core.stream.plan_rounds`.
"""

from __future__ import annotations

from repro.core.emit import make_emitters
from repro.core.stream import OpKind, plan_rounds
from repro.core.tiling import TilingConfig, mas_footprint_bytes
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.sim.tasks import TaskGraph
from repro.workloads.attention import AttentionWorkload

__all__ = ["TileFlowScheduler"]


class TileFlowScheduler(AttentionScheduler):
    """Fused, pipelined attention with per-round synchronization barriers."""

    name = "tileflow"
    display_name = "TileFlow"

    def footprint_bytes(self, workload: AttentionWorkload, tiling: TilingConfig) -> int:
        """Two row-blocks are in flight per round, as in the MAS pipeline."""
        return mas_footprint_bytes(workload, tiling)

    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        tiling = tiling.clamp_to(workload)
        costs = self.costs(workload, tiling)
        per_core = self.blocks(workload, tiling)
        graph = TaskGraph(name=self.name)
        emitters = make_emitters(graph, costs, per_core, self.name)
        per_core_rounds = [plan_rounds(len(blocks)) if blocks else [] for blocks in per_core]

        qk: dict[tuple[int, int], list[int]] = {}  # (core, block) -> QK tiles
        softmax: dict[tuple[int, int], int] = {}
        barrier: list[int] = []  # the previous round's barrier, once there is one
        for position in range(max(map(len, per_core_rounds), default=0)):
            round_tasks: list[int] = []
            for core, rounds in enumerate(per_core_rounds):
                if position >= len(rounds):
                    continue
                em = emitters[core]
                # The VEC op first, then the MAC ops in program order.
                for op in rounds[position].vec_ops + rounds[position].mac_ops:
                    block = per_core[core][op.block - 1]
                    key = (core, block.index)
                    if op.kind is OpKind.QK:
                        q_load = em.load_q(block, deps=barrier)
                        k_loads = em.kv_loads(block, "K", deps=barrier)
                        qk[key] = em.qk_tiles(block, [(q_load, k, *barrier) for k in k_loads])
                        round_tasks += qk[key]
                    elif op.kind is OpKind.SOFTMAX:
                        softmax[key] = em.softmax(block, deps=[*qk[key], *barrier])
                        round_tasks.append(softmax[key])
                    else:
                        v_loads = em.kv_loads(block, "V", deps=barrier)
                        pv_tasks = em.pv_tiles(
                            block, [(softmax[key], v, *barrier) for v in v_loads]
                        )
                        round_tasks += [*pv_tasks, em.store_o(block, deps=pv_tasks)]
            name = f"tileflow.round{position}.barrier"
            barrier = [graph.add_barrier(name, deps=round_tasks).tid]

        return BuildResult(graph=graph, metadata={"fused": True, "synchronous_rounds": True})
