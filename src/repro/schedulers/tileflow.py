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

from repro.core.emit import block_positions, emit_units, make_emitters
from repro.core.stream import OpKind, RoundKind, StreamRound, plan_rounds
from repro.core.tiling import TilingConfig, mas_footprint_bytes
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.sim.tasks import TaskGraph
from repro.workloads.attention import AttentionWorkload

__all__ = ["TileFlowScheduler"]


def round_barrier(position: int, shift: int = 0) -> str:
    """Name of the barrier that closes round ``position`` (a stamped copy's moves by ``shift``)."""
    return f"tileflow.round{position + shift}.barrier"


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

        # Block b's QK runs in round b, its softmax in round b + 1 and its PV
        # in round b + 2, so each round reads only the previous round's QK
        # tiles and softmax per core, and its barrier.  Each round returns
        # (barrier, [(QK tiles, softmax) per core]).
        def emit(rounds: list[tuple[int, StreamRound]], previous: tuple | None) -> tuple:
            barrier = [] if previous is None else [previous[0]]
            round_tasks: list[int] = []
            made = []
            for core, stream_round in rounds:
                em = emitters[core]
                qk_prev, softmax_prev = (None, None) if previous is None else previous[1][core]
                qk = softmax = None
                # The VEC op first, then the MAC ops in program order.
                for op in stream_round.vec_ops + stream_round.mac_ops:
                    block = per_core[core][op.block - 1]
                    if op.kind is OpKind.QK:
                        q_load = em.load_q(block, deps=barrier)
                        k_loads = em.kv_loads(block, "K", deps=barrier)
                        qk = em.qk_tiles(block, [(q_load, k, *barrier) for k in k_loads])
                        round_tasks += qk
                    elif op.kind is OpKind.SOFTMAX:
                        softmax = em.softmax(block, deps=[*qk_prev, *barrier])
                        round_tasks.append(softmax)
                    else:
                        v_loads = em.kv_loads(block, "V", deps=barrier)
                        pv_deps = [(softmax_prev, v, *barrier) for v in v_loads]
                        pv_tasks = em.pv_tiles(block, pv_deps)
                        round_tasks += [*pv_tasks, em.store_o(block, deps=pv_tasks)]
                made.append((qk, softmax))
            name = (round_barrier, rounds[0][1].index)
            return graph.add_barrier(name, deps=round_tasks).tid, made

        def context(
            rounds: list[tuple[int, StreamRound]], start: int, reach: int, previous: tuple | None
        ):
            """Of a round regular on every core with one: its blocks and how far
            back what it reads lies."""
            if any(stream_round.kind is not RoundKind.REGULAR for _, stream_round in rounds):
                return None
            key: list[object] = [start - previous[0]]
            for core, stream_round in rounds:
                em = emitters[core]
                blocks = {kind: per_core[core][b] for kind, b in stream_round.op_blocks().items()}
                qk_prev, softmax_prev = previous[1][core]
                key.append((
                    em.context(blocks[OpKind.PV], start, reach, "V"),
                    em.context(blocks[OpKind.SOFTMAX], start, reach),
                    em.context(blocks[OpKind.QK], start, reach, "K"),
                    start - qk_prev[0],
                    start - softmax_prev,
                ))
            return tuple(key)

        per_core_rounds = [plan_rounds(len(blocks)) if blocks else [] for blocks in per_core]
        emit_units(
            graph,
            emitters,
            block_positions(per_core_rounds),
            context,
            emit,
            self.direct_emission,
        )

        return BuildResult(graph=graph)
