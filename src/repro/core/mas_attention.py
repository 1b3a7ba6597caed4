"""MAS-Attention task-graph builder.

This is the paper's primary contribution assembled into an executable form:
given an attention workload, a hardware configuration and a tiling, build the
semi-synchronous MAC/VEC pipeline of Algorithm 1 (with the fine-grained tile
dependencies of Algorithms 2-4) including, when the on-chip buffer would
overflow, the proactive overwrite events of Section 4.3.

The builder emits one :class:`~repro.sim.tasks.TaskGraph` covering all cores:
(batch, head) groups are distributed round-robin over cores, each core runs
its own MAC/VEC pipeline, and all cores share the DMA channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costs import Block, TileCosts, partition_blocks
from repro.core.emit import CoreEmitter, block_positions, emit_units
from repro.core.overwrite import OverwriteEvent, OverwritePlan, OverwritePlanner
from repro.core.stream import OpKind, RoundKind, StreamRound, plan_rounds
from repro.core.tiling import TilingConfig, default_tiling, mas_footprint_bytes
from repro.hardware.config import HardwareConfig
from repro.sim.tasks import TaskGraph
from repro.utils.validation import require
from repro.workloads.attention import AttentionWorkload


#: What a MAS round returns per core: its QK tasks and its softmax, either
#: ``None`` when the round does not run that operator.
_Made = tuple[list[int] | None, int | None]


@dataclass
class MASBuildInfo:
    """Metadata about one built MAS-Attention graph."""

    tiling: TilingConfig
    footprint_bytes: int
    l1_bytes: int
    overwrite_enabled: bool
    overwrite_events: list[OverwriteEvent] = field(default_factory=list)
    extra_dram_bytes: int = 0
    blocks_per_core: list[int] = field(default_factory=list)
    serialized_blocks: int = 0

    @property
    def num_overwrites(self) -> int:
        return len(self.overwrite_events)

    @property
    def overflowed(self) -> bool:
        """Whether the steady-state residency exceeded the L1 capacity."""
        return self.footprint_bytes > self.l1_bytes


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
        plan: OverwritePlan,
        serialize_on_overflow: bool,
    ) -> None:
        self.emit = emit
        self.blocks = blocks
        self.events = {event.block_index: event for event in plan.events}
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
            self._event_context(pv, "PV"),
            self._event_context(qk, "QK"),
            # QK tiles, then any redo tiles, each a run of consecutive ids.
            (start - qk_prev[0], len(qk_prev), start - qk_prev[-1]),
            start - softmax_prev,
        )

    def _event_context(self, block: Block, op: str) -> tuple | None:
        event = self.events.get(block.index)
        if event is None or event.interrupted_op != op:
            return None
        return event.victim, event.reload_bytes, event.redo_tiles

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

        The victim is reloaded and the event's redo tiles are recomputed.  The
        softmax that triggered the overwrite runs in the same round as the
        interrupted MatMul: ``P_{b-1}`` when ``C_b`` is interrupted (Figure 3)
        and ``P_{b+1}`` when ``O_b`` is (Figure 2).  Only ``P_{b-1}`` is
        emitted before its MatMul (``trigger``), so only a QK reload and redo
        wait on their trigger; a PV reload does not wait for ``P_{b+1}``.
        """
        event = self.events.get(block.index)
        if event is None or event.interrupted_op != op:
            return []
        deps = [interrupted]
        if op == "QK":
            deps.append(trigger)
        reload = self.emit.reload(block, event.victim, event.reload_bytes, deps)
        return [self.emit.redo(block, op, r, [reload, *deps]) for r in range(event.redo_tiles)]


def build_mas_graph(
    workload: AttentionWorkload,
    hardware: HardwareConfig,
    tiling: TilingConfig | None = None,
    enable_overwrite: bool = True,
    costs: TileCosts | None = None,
    direct_emission: bool = False,
) -> tuple[TaskGraph, MASBuildInfo]:
    """Build the MAS-Attention pipeline task graph for one attention layer.

    Parameters
    ----------
    workload:
        Attention shape to schedule.
    hardware:
        Target device (clock, PE arrays, memory hierarchy).
    tiling:
        Tiling factors; when omitted a heuristic default is used (the search
        module finds better ones).
    enable_overwrite:
        Whether the proactive buffer-overwrite strategy is active.  When
        disabled and the steady-state residency overflows L1, overflowing
        rounds are serialized instead (the ablation baseline).
    costs:
        Tile costs for this workload, hardware and (clamped) tiling; by
        default new ones.  :meth:`repro.schedulers.mas.MASAttentionScheduler.build`
        passes its scheduler's, whose costs every tiling shares.
    direct_emission:
        Emit every round directly instead of stamping the repeated regular
        rounds (:func:`repro.core.emit.emit_units`); the oracle tests use.

    Returns
    -------
    (graph, info):
        The task graph ready for :func:`repro.sim.simulate` and build metadata
        (footprint, overwrite events, extra DRAM traffic).
    """
    if tiling is None:
        tiling = default_tiling(workload, hardware, mas_footprint_bytes)
    tiling = tiling.clamp_to(workload)
    if costs is None:
        costs = TileCosts(workload, hardware, tiling)
    require(costs.tiling == tiling, "costs were made for another tiling")
    planner = OverwritePlanner(workload, hardware, tiling, enabled=enable_overwrite)
    planner.check_feasible()
    serialize = (not enable_overwrite) and planner.overflow_bytes() > 0

    per_core_blocks = partition_blocks(workload, tiling, hardware.num_cores)
    graph = TaskGraph(name="mas-attention")

    emitters: list[_MASCoreEmitter] = []
    all_events: list[OverwriteEvent] = []
    for core, blocks in enumerate(per_core_blocks):
        plan = planner.plan(blocks, costs) if enable_overwrite else OverwritePlan()
        all_events.extend(plan.events)
        emitters.append(
            _MASCoreEmitter(
                CoreEmitter(graph, costs, core, "mas", blocks),
                blocks,
                plan,
                serialize_on_overflow=serialize,
            )
        )

    def emit(rounds: list[tuple[int, StreamRound]], previous: list[_Made] | None) -> list[_Made]:
        if previous is None:
            previous = [(None, None)] * len(rounds)
        return [
            emitters[core].emit_round(stream_round, previous[core])
            for core, stream_round in rounds
        ]

    def context(
        rounds: list[tuple[int, StreamRound]], start: int, reach: int, previous: list[_Made] | None
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

    per_core_rounds = [plan_rounds(len(blocks)) if blocks else [] for blocks in per_core_blocks]
    emit_units(
        graph,
        [emitter.emit for emitter in emitters],
        block_positions(per_core_rounds),
        context,
        emit,
        direct_emission,
    )

    # Serialized, each core's QK of every block from the third on waits on a
    # PV stream, and so does its softmax of every block from the second on.
    blocks_per_core = [len(blocks) for blocks in per_core_blocks]
    info = MASBuildInfo(
        tiling=tiling,
        footprint_bytes=planner.steady_state_bytes(),
        l1_bytes=hardware.l1_bytes,
        overwrite_enabled=enable_overwrite,
        overwrite_events=all_events,
        extra_dram_bytes=sum(event.reload_bytes for event in all_events),
        blocks_per_core=blocks_per_core,
        serialized_blocks=sum(max(n - 2, 0) + max(n - 1, 0) for n in blocks_per_core)
        if serialize
        else 0,
    )
    return graph, info


def mas_max_seq_len(hardware: HardwareConfig, emb: int = 64, dtype_bytes: int = 2) -> int:
    """Maximum self-attention sequence length MAS-Attention can handle (Section 5.6).

    With row-granularity softmax at least one full row of ``P_i`` plus one full
    row of either ``P_{i-1}`` or ``C_{i+1}`` must fit on-chip simultaneously
    (two score rows), alongside minimal Q/O tiles.
    """
    require(emb > 0, "emb must be positive")
    require(dtype_bytes > 0, "dtype_bytes must be positive")
    reserved = 4 * emb * dtype_bytes  # one-row Q and O tiles, double buffered
    available = hardware.l1_bytes - reserved
    if available <= 0:
        return 0
    return available // (2 * dtype_bytes)
