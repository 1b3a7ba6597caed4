"""FLAT baseline: row-granularity fused attention with sequential execution.

FLAT (Kao et al., 2023) loads a block of query rows on-chip, computes
``C_i = Q_i K^T``, ``P_i = softmax(C_i)`` and ``O_i = P_i V`` entirely
on-chip, and writes only ``O_i`` back to DRAM, eliminating the DRAM
round-trips of the intermediate matrices.  The three operators of a block are
however executed *sequentially* — the MAC unit idles while the VEC unit runs
softmax and vice-versa — and only one block's buffers are live at a time, so
blocks cannot overlap either.  This is the strongest published baseline and
the paper's main comparison point.
"""

from __future__ import annotations

from functools import partial

from repro.core.costs import Block
from repro.core.emit import block_positions, emit_units, make_emitters, position_context
from repro.core.tiling import TilingConfig, flat_footprint_bytes
from repro.hardware.config import HardwareConfig
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.sim.tasks import TaskGraph
from repro.utils.validation import require
from repro.workloads.attention import FP16_BYTES, AttentionWorkload


class FLATScheduler(AttentionScheduler):
    """Fused, on-chip, sequential attention dataflow (the FLAT baseline)."""

    name = "flat"
    display_name = "FLAT"
    # Each core's QK -> softmax -> PV chain (and the block-to-block serial
    # dependency below) never overlaps MAC and VEC work, so the analytic bound
    # may charge their sum instead of their max.
    analytic_serial_compute = True

    def footprint_bytes(self, workload: AttentionWorkload, tiling: TilingConfig) -> int:
        return flat_footprint_bytes(workload, tiling)

    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        tiling = tiling.clamp_to(workload)
        costs = self.costs(workload, tiling)
        per_core = self.blocks(workload, tiling)
        graph = TaskGraph(name=self.name)
        emitters = make_emitters(graph, costs, per_core, self.name)

        # FLAT keeps a single block in flight per core: the first MatMul of a
        # block cannot start before the previous block's last PV MatMul has
        # drained (its buffers are only then released).  Each position
        # returns its last PV per core.
        def emit(blocks: list[tuple[int, Block]], last_pv: list[int] | None) -> list[int]:
            made = []
            for core, block in blocks:
                em = emitters[core]
                serial = () if last_pv is None else (last_pv[core],)
                q_load = em.load_q(block)
                k_loads = em.kv_loads(block, "K")
                qk_tasks = em.qk_tiles(block, [(q_load, k_load, *serial) for k_load in k_loads])
                sm = em.softmax(block, deps=qk_tasks)
                v_loads = em.kv_loads(block, "V")
                pv_tasks = em.pv_tiles(block, [(sm, v_load) for v_load in v_loads])
                em.store_o(block, deps=pv_tasks)
                made.append(pv_tasks[-1])
            return made

        emit_units(
            graph,
            emitters,
            block_positions(per_core),
            partial(position_context, emitters, "KV"),
            emit,
            self.direct_emission,
        )
        return BuildResult(graph=graph)


def flat_max_seq_len(hardware: HardwareConfig, emb: int = 64) -> int:
    """Maximum FP16 sequence length FLAT can handle on ``hardware`` (Section 5.6).

    FLAT runs sequentially and computes softmax in place, so only a single
    score row must be resident at a time alongside minimal Q/O tiles.
    """
    require(emb > 0, "emb must be positive")
    reserved = 2 * emb * FP16_BYTES  # one-row Q and O tiles
    available = hardware.l1_bytes - reserved
    if available <= 0:
        return 0
    return available // FP16_BYTES
