"""Tile-task emission shared by all six dataflow builders.

The six schedulers (:mod:`repro.schedulers`), MAS-Attention and the five
baselines, add every tile task to their :class:`~repro.sim.tasks.TaskGraph`
through :class:`CoreEmitter`; only the zero-cost stage and round barriers
are added to the graph directly.  Builders walk their cores position-major
(:func:`block_positions`) and emit the positions through :func:`emit_units`,
which emits a position directly only the first time its context appears and
stamps every repeat.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Sequence, TypeVar

from repro.core.costs import Block, TaskCost, TileCosts
from repro.sim.tasks import TaskGraph, TaskKind, dma_resource, mac_resource, vec_resource

T = TypeVar("T")
U = TypeVar("U")
R = TypeVar("R")


def task_name(
    head: str, stem: str, index: int | None, blocks: Sequence[Block], block: int, shift: int = 0
) -> str:
    """Name of an emitted task, ``<prefix>.c<core>.<stem><index>.<block label>``.

    ``blocks`` are the core's blocks and ``block`` the task's block index.  A
    graph keeps each emitted name as these parts and formats it only when the
    name is read; a stamped copy formats its template's parts with ``shift``,
    the number of blocks it moved by (see :meth:`TaskGraph.stamp`).
    """
    return f"{head}.{stem}{'' if index is None else index}.{blocks[block + shift].label()}"


def task_tags(
    core: int,
    key: str,
    value: str,
    block: int,
    tile: int | None = None,
    flag: str | None = None,
    shift: int = 0,
) -> dict[str, object]:
    """Tags of an emitted task: ``core``, ``key`` (``"operand"`` for a DMA
    transfer, ``"op"`` for compute) set to ``value``, ``block``, then ``tile``
    if given and ``flag`` (``"overwrite"`` or ``"redo"``) set to ``True``.

    Like names, a graph keeps these parts and makes the dict when it is read,
    with the block moved by a stamped copy's ``shift``.
    """
    tags: dict[str, object] = {"core": core, key: value, "block": block + shift}
    if tile is not None:
        tags["tile"] = tile
    if flag is not None:
        tags[flag] = True
    return tags


class CoreEmitter:
    """Per-core helper that emits the tile tasks of an attention dataflow.

    It wraps a :class:`TaskGraph` and a :class:`TileCosts` and provides typed
    ``load_* / matmul_* / softmax / store_*`` methods, plus MAS's overwrite
    ``reload`` / ``redo`` tasks, with consistent naming, tags, costs and the
    K/V residency caching implied by ``TilingConfig.kv_resident``.  Every
    method takes dependency task ids and returns the new task's id, or a list
    of ids for the per-tile streams (:meth:`kv_loads`, :meth:`qk_tiles`,
    :meth:`pv_tiles`), which append one task per K/V tile through
    :meth:`TaskGraph.extend`.  ``blocks`` are the core's blocks, which every
    task names by index.
    """

    def __init__(
        self, graph: TaskGraph, costs: TileCosts, core: int, prefix: str, blocks: Sequence[Block]
    ) -> None:
        self.graph = graph
        self.costs = costs
        self.core = core
        self.blocks = blocks
        self.head = f"{prefix}.c{core}"
        self.mac = graph.resource_id(mac_resource(core))
        self.vec = graph.resource_id(vec_resource(core))
        self.dma = graph.resource_id(dma_resource())
        self.resident = costs.tiling.kv_resident
        self._group_kv_loads: dict[tuple[str, int], list[int]] = {}
        # (K or V, block index, loads) of each resident load stream, in emission order.
        self._kv_made: list[tuple[str, int, list[int]]] = []

    # ------------------------------------------------------------------ #
    def _add(
        self,
        kind: TaskKind,
        resource: int,
        cost: TaskCost,
        deps: Sequence[int],
        stem: str,
        index: int | None,
        block: Block,
        tags: tuple,
    ) -> int:
        return self.graph.append(
            kind,
            resource,
            cost.cycles,
            tuple(deps),
            cost.counters,
            (task_name, self.head, stem, index, self.blocks, block.index),
            (task_tags, self.core, *tags),
        )

    def _stream(
        self,
        kind: TaskKind,
        resource: int,
        cost: Callable[[Block, int], TaskCost],
        block: Block,
        deps: Sequence[tuple[int, ...]],
        stem: str,
        key: str,
        value: str,
    ) -> list[int]:
        """One task per K/V tile of ``block``; ``deps[tile]`` are tile ``tile``'s dependencies."""
        cycles, counters = self.costs.tile_costs(cost, block)
        head, core, blocks, index = self.head, self.core, self.blocks, block.index
        tiles = range(len(cycles))
        first = self.graph.extend(
            kind,
            resource,
            cycles,
            counters,
            deps,
            [(task_name, head, stem, tile, blocks, index) for tile in tiles],
            [(task_tags, core, key, value, index, tile) for tile in tiles],
        )
        return list(range(first, first + len(cycles)))

    # ------------------------------------------------------------------ #
    # DMA
    # ------------------------------------------------------------------ #
    def load_q(self, block: Block, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.LOAD, self.dma, self.costs.load_q(block), deps, "load_Q", None, block,
            ("operand", "Q", block.index),
        )

    def kv_loads(self, block: Block, which: str, deps: Sequence[int] = ()) -> list[int]:
        """Load all K or V tiles for ``block`` (cached per head group if resident)."""
        key = (which, block.head_group)
        if self.resident and key in self._group_kv_loads:
            return self._group_kv_loads[key]
        loads = self._stream(
            TaskKind.LOAD, self.dma, self.costs.load_kv_tile, block,
            [tuple(deps)] * self.costs.num_kv_tiles, f"load_{which}", "operand", which,
        )
        if self.resident:
            self._group_kv_loads[key] = loads
            self._kv_made.append((which, block.index, loads))
        return loads

    # ------------------------------------------------------------------ #
    # Stamping
    # ------------------------------------------------------------------ #
    def context(self, block: Block, start: int, reach: int, which: str = "") -> object:
        """What emitting ``block``'s tasks from task id ``start`` on reads here.

        That is the block's rows and group size and, under ``kv_resident``,
        for each of ``which`` (``"K"``, ``"V"``) where the group's resident
        loads begin: ``None`` when the block loads them anew, their id when
        it lies before ``reach`` (a stamp keeps such a dependency), and
        their id minus ``start`` when it does not (a stamp moves it).
        """
        if not self.resident:
            return block.rows, block.group_size
        key = [block.rows, block.group_size]
        for w in which:
            loads = self._group_kv_loads.get((w, block.head_group))
            if loads is None:
                key.append(None)
            else:
                key.append(loads[0] if loads[0] < reach else loads[0] - start)
        return tuple(key)

    def stamped(self, first: int, stop: int, offset: int, shift: int) -> None:
        """Keep the resident loads that a stamp of rows ``[first, stop)`` copied.

        Each load stream the template rows made for a block now also exists
        ``offset`` ids later for the block ``shift`` positions on, and later
        blocks of that block's head group reuse it.
        """
        copied = []
        for made in reversed(self._kv_made):
            if made[2][0] < first:
                break
            if made[2][0] < stop:
                copied.append(made)
        for which, index, loads in reversed(copied):
            block = self.blocks[index + shift]
            moved = [load + offset for load in loads]
            self._group_kv_loads[(which, block.head_group)] = moved
            self._kv_made.append((which, block.index, moved))

    def load_score(self, block: Block, label: str, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.LOAD, self.dma, self.costs.load_score(block), deps, f"load_{label}", None,
            block, ("operand", label, block.index),
        )

    def store_score(self, block: Block, label: str, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.STORE, self.dma, self.costs.store_score(block), deps, f"store_{label}", None,
            block, ("operand", label, block.index),
        )

    def store_score_tile(
        self, block: Block, tile: int, label: str, deps: Sequence[int] = ()
    ) -> int:
        return self._add(
            TaskKind.STORE, self.dma, self.costs.store_score_tile(block, tile), deps,
            f"store_{label}", tile, block, ("operand", label, block.index, tile),
        )

    def store_o(self, block: Block, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.STORE, self.dma, self.costs.store_o(block), deps, "store_O", None, block,
            ("operand", "O", block.index),
        )

    def reload(self, block: Block, victim: str, num_bytes: int, deps: Sequence[int]) -> int:
        """Refetch ``num_bytes`` of the K or V tiles an overwrite dropped (Section 4.3)."""
        return self._add(
            TaskKind.LOAD, self.dma, self.costs.load_bytes(num_bytes), deps, f"reload_{victim}",
            None, block, ("operand", victim, block.index, None, "overwrite"),
        )

    # ------------------------------------------------------------------ #
    # Compute
    # ------------------------------------------------------------------ #
    def qk_tiles(self, block: Block, deps: Sequence[tuple[int, ...]]) -> list[int]:
        """The QK^T tile MatMuls of ``block``; ``deps[tile]`` are tile ``tile``'s dependencies."""
        return self._stream(
            TaskKind.MATMUL, self.mac, self.costs.qk_tile, block, deps, "QK", "op", "QK"
        )

    def pv_tiles(self, block: Block, deps: Sequence[tuple[int, ...]]) -> list[int]:
        """The PV tile MatMuls of ``block``; ``deps[tile]`` are tile ``tile``'s dependencies."""
        return self._stream(
            TaskKind.MATMUL, self.mac, self.costs.pv_tile, block, deps, "PV", "op", "PV"
        )

    def matmul_qk(self, block: Block, tile: int, deps: Sequence[int]) -> int:
        """One QK^T tile MatMul, for dataflows that interleave it with other tasks."""
        return self._add(
            TaskKind.MATMUL, self.mac, self.costs.qk_tile(block, tile), deps, "QK", tile, block,
            ("op", "QK", block.index, tile),
        )

    def matmul_pv(self, block: Block, tile: int, deps: Sequence[int]) -> int:
        """One PV tile MatMul, for dataflows that interleave it with other tasks."""
        return self._add(
            TaskKind.MATMUL, self.mac, self.costs.pv_tile(block, tile), deps, "PV", tile, block,
            ("op", "PV", block.index, tile),
        )

    def redo(self, block: Block, op: str, deps: Sequence[int]) -> int:
        """Redo the tile of the ``"QK"`` or ``"PV"`` MatMul an overwrite interrupted (Section 4.3)."""
        cost = self.costs.qk_tile(block, 0) if op == "QK" else self.costs.pv_tile(block, 0)
        return self._add(
            TaskKind.MATMUL, self.mac, cost, deps, f"redo_{op}", 0, block,
            ("op", op, block.index, None, "redo"),
        )

    def softmax(self, block: Block, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.SOFTMAX, self.vec, self.costs.softmax(block), deps, "SM", None, block,
            ("op", "SM", block.index),
        )

    def softmax_tile(self, block: Block, tile: int, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.VECOP, self.vec, self.costs.softmax_tile(block, tile), deps, "SMU", tile,
            block, ("op", "SMU", block.index, tile),
        )

    def output_normalize(self, block: Block, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.VECOP, self.vec, self.costs.output_normalize(block), deps, "NORM", None,
            block, ("op", "NORM", block.index),
        )


def make_emitters(
    graph: TaskGraph, costs: TileCosts, per_core_blocks: Sequence[Sequence[Block]], prefix: str
) -> list[CoreEmitter]:
    """One :class:`CoreEmitter` per core."""
    return [
        CoreEmitter(graph, costs, core, prefix, blocks)
        for core, blocks in enumerate(per_core_blocks)
    ]


def block_positions(per_core: Sequence[Sequence[T]]) -> list[list[tuple[int, T]]]:
    """The (core, item) pairs of each position, position by position.

    The items are each core's blocks, or its rounds for the round-structured
    builders.  Emitting in this order keeps the shared DMA channel's program
    order fair across cores instead of serializing one core's transfers
    behind another's.
    """
    return [
        [(core, items[position]) for core, items in enumerate(per_core) if position < len(items)]
        for position in range(max((len(items) for items in per_core), default=0))
    ]


def position_context(
    emitters: Sequence[CoreEmitter],
    which: str,
    blocks: Sequence[tuple[int, Block]],
    start: int,
    reach: int,
    last: Sequence[int] | None = None,
) -> tuple:
    """Context of a block position emitted from task id ``start`` on.

    Per core with a block there, :meth:`CoreEmitter.context` of the block
    for the resident loads ``which`` (``"K"``, ``"V"``, both or neither)
    and, when ``last`` holds one task per core from the previous position,
    how far before ``start`` the core's task lies.
    """
    if last is None:
        return tuple([emitters[core].context(block, start, reach, which) for core, block in blocks])
    return tuple([
        (emitters[core].context(block, start, reach, which), start - last[core])
        for core, block in blocks
    ])


def _moved(ids, offset: int):
    """``ids`` moved by ``offset``: a task id, ``None``, a list of ids, a list
    of non-ids, or a tuple of any of these."""
    if isinstance(ids, int):
        return ids + offset
    if ids is None:
        return None
    if isinstance(ids, tuple):
        return tuple([_moved(item, offset) for item in ids])
    if not ids or isinstance(ids[0], int):
        return [task + offset for task in ids]
    return [_moved(item, offset) for item in ids]


def emit_units(
    graph: TaskGraph,
    emitters: Sequence[CoreEmitter],
    units: Sequence[U],
    context: Callable[[U, int, int, R | None], Hashable | None],
    emit: Callable[[U, R | None], R],
    direct: bool = False,
) -> list[R]:
    """Emit one stage of a builder unit by unit, stamping every repeated unit.

    A unit is one position of :func:`block_positions`: a block position, or a
    round of :func:`repro.core.stream.plan_rounds`, on every core.
    ``emit(unit, previous)`` emits it directly and returns the task ids
    later units read (see :func:`_moved`), where ``previous`` is what the
    previous unit returned (``None`` for the first).  A unit depends only on
    its own tasks, the previous unit's, resident K/V loads and tasks before
    the stage (the barrier that closed the previous one).

    ``context(unit, start, reach, previous)`` is every input that emission
    reads, with ``start`` the unit's first task id: the shapes of the blocks
    it touches, how far before ``start`` the previous unit's tasks it
    depends on lie, where its resident loads are relative to ``reach`` (see
    :meth:`CoreEmitter.context`), and whatever else the builder emits
    differently (MAS's overwrite events); ``None`` emits the unit directly.

    Under ``kv_resident`` a unit has two contexts: one with ``reach`` the
    previous unit's first id, whose stamps keep every dependency before it
    (loads of the same head group), and one with ``reach`` the stage's first
    id, whose stamps move every dependency after it (loads of another head
    group, made as far back).

    The first unit of each context is emitted directly.  Each later one is a
    :meth:`TaskGraph.stamp` of the latest unit with that context, which gives
    the very tasks direct emission would, and returns the template's ids
    moved to the copies.  Dependencies before the stage (its opening
    barrier) always stay.  ``direct=True`` emits every unit directly: the
    oracle that tests compare stamped graphs against.  Returns what each
    unit returned, in order.
    """
    stage = len(graph)
    resident = [emitter for emitter in emitters if emitter.resident]
    # (kept below the previous unit, context) -> the latest unit with it:
    # (first task, stop, the dependencies kept below, position, what it returned)
    latest: dict[tuple[bool, Hashable], tuple[int, int, int, int, R]] = {}
    made: list[R] = []
    previous: R | None = None
    reach = stage
    for position, unit in enumerate(units):
        first = len(graph)
        keys = []
        found = None
        if not direct:
            keys.append((False, context(unit, first, stage, previous)))
            if resident:
                keys.append((True, context(unit, first, reach, previous)))
            for key in keys:
                if key in latest:
                    found = latest[key]
                    break
        if found is None:
            previous = emit(unit, previous)
        else:
            template, stop, kept_below, template_position, template_ids = found
            shift = position - template_position
            offset = graph.stamp(template, stop, kept_below, shift) - template
            for emitter in resident:
                emitter.stamped(template, stop, offset, shift)
            previous = _moved(template_ids, offset)
        for key in keys:
            if key[1] is not None:
                latest[key] = (first, len(graph), reach if key[0] else stage, position, previous)
        made.append(previous)
        reach = first
    return made


def emit_stage(
    graph: TaskGraph,
    emitters: Sequence[CoreEmitter],
    which: str,
    emit: Callable[[list[tuple[int, Block]]], list[int]],
    direct: bool = False,
) -> list[int]:
    """One stage of a staged dataflow (Layer-Wise, Soft-Pipe) through :func:`emit_units`.

    ``emit(blocks)`` emits one block position of the stage, whose blocks
    read the resident loads ``which``, and returns the tasks the stage's
    closing barrier waits on; the result is those of every position, in
    order.
    """
    made = emit_units(
        graph,
        emitters,
        block_positions([emitter.blocks for emitter in emitters]),
        lambda blocks, start, reach, _: position_context(emitters, which, blocks, start, reach),
        lambda blocks, _: emit(blocks),
        direct,
    )
    return list(chain.from_iterable(made))
