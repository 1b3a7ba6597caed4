"""MAS-Attention: the paper's semi-synchronous MAC/VEC stream-processing dataflow.

Given an attention workload, a hardware configuration and a tiling, the
scheduler builds the pipeline of Algorithm 1 (with the fine-grained tile
dependencies of Algorithms 2-4) including, when the on-chip buffer would
overflow, the proactive overwrite events of Section 4.3
(:func:`repro.core.overwrite.plan_overwrites`).

The graph covers all cores: (batch, head) groups are distributed round-robin
over cores, each core runs its own MAC/VEC pipeline over the rounds of
:func:`repro.core.stream.plan_rounds`, and all cores share the DMA channel.
"""

from __future__ import annotations

from repro.core.costs import Block
from repro.core.emit import CoreEmitter, block_positions, emit_units
from repro.core.overwrite import InfeasibleTilingError, OverwriteEvent, plan_overwrites
from repro.core.stream import OpKind, RoundKind, StreamRound, plan_rounds
from repro.core.tiling import TilingConfig, mas_footprint_bytes, mas_non_evictable_bytes
from repro.hardware.config import HardwareConfig
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.sim.tasks import TaskGraph
from repro.utils.validation import require
from repro.workloads.attention import FP16_BYTES, AttentionWorkload

__all__ = ["MASAttentionScheduler", "mas_max_seq_len"]


#: What a MAS round returns per core: its QK tasks and its softmax, either
#: ``None`` when the round does not run that operator.
_Made = tuple[list[int] | None, int | None]


class _MASCoreEmitter:
    """One core's MAS pipeline: the rounds of Algorithm 1 emitted through a :class:`CoreEmitter`.

    It keeps only MAS state: the core's overwrite events, and the
    serialization that replaces overwriting when it is disabled and L1
    overflows.  Block b's QK runs in round b, its softmax in round b + 1 and
    its PV in round b + 2, so a round reads only the previous round's QK
    tasks and softmax; everything else it reads it emits itself.
    """

    def __init__(
        self,
        emit: CoreEmitter,
        blocks: list[Block],
        events: list[OverwriteEvent],
        serialize_on_overflow: bool,
    ) -> None:
        self.emit = emit
        self.blocks = blocks
        self.events = {event.block_index: event for event in events}
        self.serialize_on_overflow = serialize_on_overflow

    def emit_round(self, stream_round: StreamRound, previous: _Made) -> _Made:
        """Emit one round of :func:`plan_rounds` in the order PV, SM, QK.

        ``previous`` is what the previous round returned: its QK tasks and
        softmax, or ``None`` for each it did not run.  The PV phase comes
        first so that, when the overflow fallback serializes the pipeline,
        the round's softmax and QK can wait on it.
        """
        qk_prev, softmax_prev = previous
        blocks = {kind: self.blocks[b] for kind, b in stream_round.op_blocks().items()}
        pv = softmax = qk = None
        if OpKind.PV in blocks:
            pv = self._emit_pv(blocks[OpKind.PV], softmax_prev)
        if OpKind.SOFTMAX in blocks:
            softmax = self._emit_softmax(blocks[OpKind.SOFTMAX], qk_prev, pv)
        if OpKind.QK in blocks:
            qk = self._emit_qk(blocks[OpKind.QK], pv, softmax)
        return qk, softmax

    def context(
        self, stream_round: StreamRound, start: int, reach: int, previous: _Made
    ) -> tuple:
        """What emitting a regular round from task id ``start`` on reads.

        The shapes and resident K/V loads of its three blocks (see
        :meth:`CoreEmitter.context`), the overwrite events of its PV and QK
        blocks, and how far back the previous round's QK tasks and softmax
        lie.
        """
        blocks = {kind: self.blocks[b] for kind, b in stream_round.op_blocks().items()}
        pv, qk = blocks[OpKind.PV], blocks[OpKind.QK]
        qk_prev, softmax_prev = previous
        return (
            self.emit.context(pv, start, reach, "V"),
            self.emit.context(blocks[OpKind.SOFTMAX], start, reach),
            self.emit.context(qk, start, reach, "K"),
            self._event_context(pv, "V"),
            self._event_context(qk, "K"),
            # A run of consecutive QK tile ids, then any redo tile.
            (start - qk_prev[0], len(qk_prev), start - qk_prev[-1]),
            start - softmax_prev,
        )

    def _event(self, block: Block, victim: str) -> OverwriteEvent | None:
        """The block's overwrite event if it drops ``victim``."""
        event = self.events.get(block.index)
        return event if event is not None and event.victim == victim else None

    def _event_context(self, block: Block, victim: str) -> tuple | None:
        event = self._event(block, victim)
        return None if event is None else (event.victim, event.reload_bytes)

    def _emit_qk(self, block: Block, pv: list[int] | None, softmax: int | None) -> list[int]:
        """Loads of Q_b and K plus the stream of QK^T tile MatMuls (Algorithm 2).

        Without overwriting, an overflowing round degrades to sequential
        execution: the QK MatMul of block ``b`` then waits for the PV stream
        of block ``b - 2`` (``pv``, emitted earlier in the same round) to
        drain and free its score block.
        """
        q_load = self.emit.load_q(block)
        extra = [pv[-1]] if self.serialize_on_overflow and block.index >= 2 else []
        k_loads = self.emit.kv_loads(block, "K")
        tasks = self.emit.qk_tiles(block, [(q_load, k_load, *extra) for k_load in k_loads])
        return tasks + self._emit_overwrite(block, "QK", tasks[-1], softmax)

    def _emit_softmax(self, block: Block, qk: list[int], pv: list[int] | None) -> int:
        """Row-wise softmax of the block on the VEC unit (Algorithm 3)."""
        deps = list(qk)
        if self.serialize_on_overflow and block.index >= 1:
            # Overflow without the overwrite strategy: P_b has no buffer space
            # until the previous block's PV stream (``pv``, this round's) has
            # drained and freed its score block, so the softmax stalls behind
            # the MAC (FLAT-like).
            deps.append(pv[-1])
        return self.emit.softmax(block, deps)

    def _emit_pv(self, block: Block, softmax: int) -> list[int]:
        """Loads of V plus the PV tile MatMuls and the O_b store (Algorithm 4)."""
        v_loads = self.emit.kv_loads(block, "V")
        tasks = self.emit.pv_tiles(block, [(softmax, v_load) for v_load in v_loads])
        tasks += self._emit_overwrite(block, "PV", tasks[-1], None)
        self.emit.store_o(block, tasks)
        return tasks

    def _emit_overwrite(
        self, block: Block, op: str, interrupted: int, trigger: int | None
    ) -> list[int]:
        """Materialize the block's overwrite event if it interrupts ``op``.

        The victim (K for QK, V for PV) is reloaded and one tile of ``op`` is
        redone.  The softmax that triggered the overwrite runs in the same
        round as the interrupted MatMul: ``P_{b-1}`` when ``C_b`` is
        interrupted (Figure 3) and ``P_{b+1}`` when ``O_b`` is (Figure 2).
        Only ``P_{b-1}`` is emitted before its MatMul (``trigger``), so only a
        QK reload and redo wait on their trigger; a PV reload does not wait
        for ``P_{b+1}``.
        """
        event = self._event(block, "K" if op == "QK" else "V")
        if event is None:
            return []
        deps = [interrupted]
        if op == "QK":
            deps.append(trigger)
        reload = self.emit.reload(block, event.victim, event.reload_bytes, deps)
        return [self.emit.redo(block, op, [reload, *deps])]


class MASAttentionScheduler(AttentionScheduler):
    """Semi-synchronous MAC/VEC stream-processing attention dataflow (MAS-Attention).

    Parameters
    ----------
    hardware:
        Target device.
    enable_overwrite:
        Whether the proactive buffer-overwrite strategy (Section 4.3) is
        active.  Disabling it gives the ablation baseline in which an
        overflowing round degrades to sequential execution.
    direct_emission:
        Emit every round directly instead of stamping repeats; the oracle
        only tests select (see :class:`AttentionScheduler`).
    """

    name = "mas"
    display_name = "MAS-Attention"

    def __init__(
        self, hardware, enable_overwrite: bool = True, *, direct_emission: bool = False
    ) -> None:
        super().__init__(hardware, direct_emission=direct_emission)
        self.enable_overwrite = enable_overwrite

    def footprint_bytes(self, workload: AttentionWorkload, tiling: TilingConfig) -> int:
        return mas_footprint_bytes(workload, tiling)

    def fits(self, workload: AttentionWorkload, tiling: TilingConfig) -> bool:
        """Whether the non-evictable residency fits L1.

        Proactive overwriting absorbs any other overflow (at extra DRAM
        cost), so this is the only limit: :meth:`build` raises
        :class:`~repro.core.overwrite.InfeasibleTilingError` when it fails.
        """
        return mas_non_evictable_bytes(workload, tiling) <= self.hardware.l1_bytes

    def graph_key(self, workload: AttentionWorkload, tiling: TilingConfig) -> tuple:
        """The default key, keeping ``kv_resident`` whenever the resident
        footprint overflows L1: the overwrite plan and the
        serialize-on-overflow fallback read it then."""
        key = super().graph_key(workload, tiling)
        if tiling.kv_resident and self.footprint_bytes(workload, tiling) > self.hardware.l1_bytes:
            return (*key[:4], True)
        return key

    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        """The MAS pipeline's graph, with the overwrite events' count and
        reload bytes and the number of blocks the no-overwrite fallback
        serializes as metadata."""
        tiling = tiling.clamp_to(workload)
        if not self.fits(workload, tiling):
            raise InfeasibleTilingError(
                f"tiling {tiling.as_dict()} needs {mas_non_evictable_bytes(workload, tiling)} B "
                f"of non-evictable residency but L1 is only {self.hardware.l1_bytes} B"
            )
        costs = self.costs(workload, tiling)
        per_core = self.blocks(workload, tiling)
        overflow = self.footprint_bytes(workload, tiling) - self.hardware.l1_bytes
        serialize = not self.enable_overwrite and overflow > 0
        graph = TaskGraph(name="mas-attention")
        emitters = [
            _MASCoreEmitter(
                CoreEmitter(graph, costs, core, self.name, blocks),
                blocks,
                plan_overwrites(blocks, costs, overflow) if self.enable_overwrite else [],
                serialize,
            )
            for core, blocks in enumerate(per_core)
        ]

        def emit(
            rounds: list[tuple[int, StreamRound]], previous: list[_Made] | None
        ) -> list[_Made]:
            if previous is None:
                previous = [(None, None)] * len(rounds)
            return [
                emitters[core].emit_round(stream_round, previous[core])
                for core, stream_round in rounds
            ]

        def context(
            rounds: list[tuple[int, StreamRound]],
            start: int,
            reach: int,
            previous: list[_Made] | None,
        ):
            """Rounds that are regular on every core with one are stamped; warm-up
            and finalize rounds are not."""
            if any(stream_round.kind is not RoundKind.REGULAR for _, stream_round in rounds):
                return None
            return tuple(
                [
                    emitters[core].context(stream_round, start, reach, previous[core])
                    for core, stream_round in rounds
                ]
            )

        per_core_rounds = [plan_rounds(len(blocks)) if blocks else [] for blocks in per_core]
        emit_units(
            graph,
            [emitter.emit for emitter in emitters],
            block_positions(per_core_rounds),
            context,
            emit,
            self.direct_emission,
        )

        events = [event for emitter in emitters for event in emitter.events.values()]
        # Serialized, each core's QK of every block from the third on waits on
        # a PV stream, and so does its softmax of every block from the second on.
        serialized = sum(max(len(b) - 2, 0) + max(len(b) - 1, 0) for b in per_core)
        return BuildResult(
            graph=graph,
            metadata={
                "num_overwrites": len(events),
                "extra_dram_bytes": sum(event.reload_bytes for event in events),
                "serialized_blocks": serialized if serialize else 0,
            },
        )


def mas_max_seq_len(hardware: HardwareConfig, emb: int = 64) -> int:
    """Maximum FP16 self-attention sequence length MAS-Attention can handle (Section 5.6).

    With row-granularity softmax at least one full row of ``P_i`` plus one full
    row of either ``P_{i-1}`` or ``C_{i+1}`` must fit on-chip simultaneously
    (two score rows), alongside minimal Q/O tiles.
    """
    require(emb > 0, "emb must be positive")
    reserved = 4 * emb * FP16_BYTES  # one-row Q and O tiles, double buffered
    available = hardware.l1_bytes - reserved
    if available <= 0:
        return 0
    return available // (2 * FP16_BYTES)
