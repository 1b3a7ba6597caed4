"""Graph-level golden check: run a scheduler's simulated task graph on numpy tiles.

:func:`replay` builds and simulates one scheduler's
:class:`~repro.sim.tasks.TaskGraph`, then runs its tasks in simulated start
order on numpy tiles held in named slots.  The tags every task carries
(``core``, ``operand`` or ``op``, ``block``, ``tile``) name the slots:

* a LOAD copies a Q, K or V tile (or a stored score block) from DRAM into an
  L1 slot, and a STORE moves an L1 slot to DRAM;
* QK, SM and PV compute on L1 slots, and so do FuseMax's online-softmax
  update SMU and its NORM epilogue; each PV tile writes a new version of the
  block's output accumulator;
* barriers and MAS's overwrite ``reload``/``redo`` tasks change no value.

K and V slots are per head group under ``kv_resident`` and per block when
streamed.  A task that reads a slot whose latest write has not finished by
the task's start raises :class:`ReplayError` naming both tasks and the slot.
A task that reads a slot with no value yet is set aside, and the slot's next
write raises the same error.  Each slot is written once while it holds a
value: a second write (a duplicated task stream, say) raises
:class:`ReplayError` naming both writers by task id and name.  The output is what the ``store_O`` tasks left
in DRAM.  ``docs/cost_model.md`` ("Golden check") gives each task kind's
semantics.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import Block, head_group_problems
from repro.core.tiling import TilingConfig
from repro.numerics.reference import attention_scores, stable_softmax
from repro.schedulers.base import AttentionScheduler
from repro.sim.engine import simulate_graph
from repro.sim.tasks import TaskGraph, TaskKind
from repro.sim.trace import TaskRecord
from repro.workloads.attention import AttentionWorkload

__all__ = ["ReplayError", "replay"]


class ReplayError(RuntimeError):
    """A task read a slot before its latest write finished or before any write,
    or wrote a slot that still holds a value."""


class _Unwritten(Exception):
    """A read of a slot that holds no value yet (the reader is set aside)."""

    def __init__(self, slot: str) -> None:
        super().__init__(slot)
        self.slot = slot


class _Replay:
    """Slot state of one replay: each slot's value and the record of its latest write."""

    def __init__(
        self,
        scheduler: AttentionScheduler,
        workload: AttentionWorkload,
        tiling: TilingConfig,
        graph: TaskGraph,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
    ) -> None:
        self.scheduler = scheduler.name
        self.workload = workload
        self.tiling = tiling
        self.blocks = scheduler.blocks(workload, tiling)
        self.inputs = {"Q": q, "K": k, "V": v}
        self.num_tiles = tiling.num_kv_tiles(workload)
        # (core, block) pairs whose softmax is online (FuseMax's SMU tiles).
        self.online = {(t.tags["core"], t.tags["block"]) for t in graph if t.tags.get("op") == "SMU"}
        self.slots: dict[str, tuple[np.ndarray, TaskRecord]] = {}
        self.early: dict[str, TaskRecord] = {}  # slot with no value -> the first task that read it
        self.record: TaskRecord

    # ------------------------------------------------------------------ #
    # Slots and the readiness rule
    # ------------------------------------------------------------------ #
    def read(self, slot: str) -> np.ndarray:
        if slot not in self.slots:
            raise _Unwritten(slot)
        value, writer = self.slots[slot]
        if writer.finish > self.record.start:
            raise self.error(
                self.record,
                f"{slot}, whose latest write {writer.task.name} finishes at cycle {writer.finish}",
            )
        return value

    def write(self, slot: str, value: np.ndarray) -> None:
        record = self.record
        if slot in self.early:
            raise self.error(
                self.early[slot], f"{slot} before {record.task.name} writes it at cycle {record.start}"
            )
        if slot in self.slots:
            writer = self.slots[slot][1].task
            raise ReplayError(
                f"{self.scheduler}: task {record.task.tid} {record.task.name} writes {slot} at "
                f"cycle {record.start}, which still holds the write of task {writer.tid} "
                f"{writer.name}"
            )
        self.slots[slot] = (value, record)

    def error(self, reader: TaskRecord, what: str) -> ReplayError:
        return ReplayError(
            f"{self.scheduler}: {reader.task.name} starts at cycle {reader.start} and reads {what}"
        )

    @staticmethod
    def l1(name: str, block: Block, tile: int | None = None) -> str:
        return f"L1[c{block.core}].{name}[b{block.index}" + ("]" if tile is None else f",t{tile}]")

    def l1_kv(self, name: str, block: Block, tile: int) -> str:
        unit = f"g{block.head_group}" if self.tiling.kv_resident else f"b{block.index}"
        return f"L1[c{block.core}].{name}[{unit},t{tile}]"

    @staticmethod
    def dram(name: str, block: Block, tile: int | None = None) -> str:
        return f"DRAM.{name}[c{block.core},b{block.index}" + ("]" if tile is None else f",t{tile}]")

    @staticmethod
    def acc(block: Block, tile: int) -> str:
        """The output accumulator holding the sum of PV tiles ``0..tile``."""
        return f"L1[c{block.core}].O[b{block.index},PV0..{tile}]"

    def output_slot(self, block: Block) -> str:
        """What ``store_O`` stores: NORM's output under online softmax, else the full sum."""
        if (block.core, block.index) in self.online:
            return self.l1("O", block)
        return self.acc(block, self.num_tiles - 1)

    # ------------------------------------------------------------------ #
    # Tiles of the inputs
    # ------------------------------------------------------------------ #
    def rows(self, block: Block) -> slice:
        start = block.row_block * self.tiling.nq
        return slice(start, start + block.rows)

    def cols(self, tile: int) -> slice:
        return slice(tile * self.tiling.nkv, min((tile + 1) * self.tiling.nkv, self.workload.seq_kv))

    def input_tile(self, name: str, block: Block, tile: int | None) -> np.ndarray:
        batches, heads = head_group_problems(self.workload, self.tiling, block.head_group)
        seq = self.rows(block) if tile is None else self.cols(tile)
        return self.inputs[name][batches, heads, seq]

    # ------------------------------------------------------------------ #
    # Task semantics
    # ------------------------------------------------------------------ #
    def run(self, record: TaskRecord) -> None:
        task = record.task
        tags = task.tags
        if task.kind is TaskKind.BARRIER or tags.get("overwrite") or tags.get("redo"):
            return
        self.record = record
        block = self.blocks[int(tags["core"])][int(tags["block"])]
        tile = tags.get("tile")
        name = str(tags.get("op") or tags["operand"])
        try:
            _RULES[task.kind, name](self, block, None if tile is None else int(tile), name)
        except _Unwritten as unwritten:
            # Set the reader aside: its slot's next write, if any, raises.
            self.early.setdefault(unwritten.slot, record)

    def load(self, block: Block, tile: int | None, name: str) -> None:
        if name == "Q":
            self.write(self.l1("Q", block), self.input_tile("Q", block, None))
        elif name in ("K", "V"):
            self.write(self.l1_kv(name, block, tile), self.input_tile(name, block, tile))
        else:  # a score block stored by an earlier stage
            for t in range(self.num_tiles):
                self.write(self.l1(name, block, t), self.read(self.dram(name, block, t)))

    def store(self, block: Block, tile: int | None, name: str) -> None:
        if name == "O":
            moves = [(self.output_slot(block), self.dram("O", block))]
        else:
            tiles = range(self.num_tiles) if tile is None else (tile,)
            moves = [(self.l1(name, block, t), self.dram(name, block, t)) for t in tiles]
        for source, target in moves:
            self.write(target, self.read(source))
            del self.slots[source]  # the tile leaves L1; a later reader waits for a reload

    def qk(self, block: Block, tile: int, name: str) -> None:
        q = self.read(self.l1("Q", block))
        k = self.read(self.l1_kv("K", block, tile))
        self.write(self.l1("C", block, tile), attention_scores(q, k))

    def softmax(self, block: Block, tile: int | None, name: str) -> None:
        scores = [self.read(self.l1("C", block, t)) for t in range(self.num_tiles)]
        probs = stable_softmax(np.concatenate(scores, axis=-1), axis=-1)
        for t in range(self.num_tiles):
            self.write(self.l1("P", block, t), probs[..., self.cols(t)])

    def pv(self, block: Block, tile: int, name: str) -> None:
        p = self.read(self.l1("P", block, tile))
        out = np.einsum("...qk,...ke->...qe", p, self.read(self.l1_kv("V", block, tile)))
        if tile > 0:
            acc = self.read(self.acc(block, tile - 1))
            if (block.core, block.index) in self.online:
                # Rescale the accumulator to P_t's running max.
                previous = self.read(self.l1("m", block, tile - 1))
                acc = acc * np.exp(previous - self.read(self.l1("m", block, tile)))[..., None]
            out = acc + out
        self.write(self.acc(block, tile), out)

    def softmax_tile(self, block: Block, tile: int, name: str) -> None:
        """Fold score tile ``tile`` into the running max ``m`` and sum ``l``."""
        scores = self.read(self.l1("C", block, tile))
        new_max = scores.max(axis=-1)
        total = 0.0
        if tile > 0:
            old_max = self.read(self.l1("m", block, tile - 1))
            new_max = np.maximum(old_max, new_max)
            total = self.read(self.l1("l", block, tile - 1)) * np.exp(old_max - new_max)
        probs = np.exp(scores - new_max[..., None])
        self.write(self.l1("P", block, tile), probs)
        self.write(self.l1("m", block, tile), new_max)
        self.write(self.l1("l", block, tile), total + probs.sum(axis=-1))

    def normalize(self, block: Block, tile: int | None, name: str) -> None:
        acc = self.read(self.acc(block, self.num_tiles - 1))
        total = self.read(self.l1("l", block, self.num_tiles - 1))
        self.write(self.l1("O", block), acc / total[..., None])

    # ------------------------------------------------------------------ #
    def output(self) -> np.ndarray:
        for slot, reader in self.early.items():
            raise self.error(reader, f"{slot}, which no later task writes")
        q, k, v = self.inputs["Q"], self.inputs["K"], self.inputs["V"]
        out = np.empty(q.shape, dtype=np.result_type(q, k, v))
        for blocks in self.blocks:
            for block in blocks:
                slot = self.dram("O", block)
                if slot not in self.slots:
                    raise ReplayError(f"{self.scheduler}: no task stored {slot}")
                batches, heads = head_group_problems(self.workload, self.tiling, block.head_group)
                out[batches, heads, self.rows(block)] = self.slots[slot][0]
        return out


_RULES = {
    (TaskKind.LOAD, "Q"): _Replay.load,
    (TaskKind.LOAD, "K"): _Replay.load,
    (TaskKind.LOAD, "V"): _Replay.load,
    (TaskKind.LOAD, "C"): _Replay.load,
    (TaskKind.LOAD, "P"): _Replay.load,
    (TaskKind.STORE, "C"): _Replay.store,
    (TaskKind.STORE, "P"): _Replay.store,
    (TaskKind.STORE, "O"): _Replay.store,
    (TaskKind.MATMUL, "QK"): _Replay.qk,
    (TaskKind.MATMUL, "PV"): _Replay.pv,
    (TaskKind.SOFTMAX, "SM"): _Replay.softmax,
    (TaskKind.VECOP, "SMU"): _Replay.softmax_tile,
    (TaskKind.VECOP, "NORM"): _Replay.normalize,
}


def replay(
    scheduler: AttentionScheduler,
    workload: AttentionWorkload,
    tiling: TilingConfig,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    graph: TaskGraph | None = None,
) -> np.ndarray:
    """Run ``scheduler``'s simulated task graph on ``q``/``k``/``v`` and return its output.

    ``q`` has the workload's ``(B, H, N_q, E)`` shape and ``k``/``v`` its
    ``(B, H, N_kv, E)`` shape.  ``graph`` stands in for the scheduler's own
    build of ``workload`` under ``tiling`` (tests drop a dependency from it).
    Raises :class:`ReplayError` when a task reads a slot before its latest
    write finishes, or before any task has written it.
    """
    w = workload
    kv_shape = (w.batch, w.heads, w.seq_kv, w.emb)
    for label, array, shape in (
        ("q", q, (w.batch, w.heads, w.seq_q, w.emb)), ("k", k, kv_shape), ("v", v, kv_shape)
    ):
        if array.shape != shape:
            raise ValueError(f"{label} has shape {array.shape}; {w.describe()} needs {shape}")
    tiling = tiling.clamp_to(workload)
    if graph is None:
        graph = scheduler.build(workload, tiling).graph
    state = _Replay(scheduler, workload, tiling, graph, q, k, v)
    for record in sorted(simulate_graph(graph).records, key=lambda r: (r.start, r.task.tid)):
        state.run(record)
    return state.output()
