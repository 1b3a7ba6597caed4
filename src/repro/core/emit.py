"""Tile-task emission shared by all six dataflow builders.

MAS-Attention (:mod:`repro.core.mas_attention`) and the five baselines
(:mod:`repro.schedulers`) add every tile task to their
:class:`~repro.sim.tasks.TaskGraph` through :class:`CoreEmitter`; only the
zero-cost stage and round barriers are added to the graph directly.  Builders
walk their cores position-major with :func:`interleave_block_positions`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.costs import Block, TaskCost, TileCosts
from repro.sim.tasks import TaskGraph, TaskKind, dma_resource, mac_resource, vec_resource

T = TypeVar("T")


def task_name(head: str, stem: str, index: int | None, block: Block) -> str:
    """Name of an emitted task, ``<prefix>.c<core>.<stem><index>.<block label>``.

    A graph keeps each emitted name as these parts and formats it only when
    the name is read.
    """
    return f"{head}.{stem}{'' if index is None else index}.{block.label()}"


def task_tags(
    core: int,
    key: str,
    value: str,
    block: int,
    tile: int | None = None,
    flag: str | None = None,
) -> dict[str, object]:
    """Tags of an emitted task: ``core``, ``key`` (``"operand"`` for a DMA
    transfer, ``"op"`` for compute) set to ``value``, ``block``, then ``tile``
    if given and ``flag`` (``"overwrite"`` or ``"redo"``) set to ``True``.

    Like names, a graph keeps these parts and makes the dict when it is read.
    """
    tags: dict[str, object] = {"core": core, key: value, "block": block}
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
    :meth:`TaskGraph.extend`.
    """

    def __init__(self, graph: TaskGraph, costs: TileCosts, core: int, prefix: str) -> None:
        self.graph = graph
        self.costs = costs
        self.core = core
        self.head = f"{prefix}.c{core}"
        self.mac = graph.resource_id(mac_resource(core))
        self.vec = graph.resource_id(vec_resource(core))
        self.dma = graph.resource_id(dma_resource())
        self._group_kv_loads: dict[tuple[str, int], list[int]] = {}

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
            (task_name, self.head, stem, index, block),
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
        head, core, index = self.head, self.core, block.index
        tiles = range(len(cycles))
        first = self.graph.extend(
            kind,
            resource,
            cycles,
            counters,
            deps,
            [(task_name, head, stem, tile, block) for tile in tiles],
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
        if self.costs.tiling.kv_resident and key in self._group_kv_loads:
            return self._group_kv_loads[key]
        loads = self._stream(
            TaskKind.LOAD, self.dma, self.costs.load_kv_tile, block,
            [tuple(deps)] * self.costs.num_kv_tiles, f"load_{which}", "operand", which,
        )
        if self.costs.tiling.kv_resident:
            self._group_kv_loads[key] = loads
        return loads

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

    def redo(self, block: Block, op: str, index: int, deps: Sequence[int]) -> int:
        """Redo a tile of the ``"QK"`` or ``"PV"`` MatMul an overwrite interrupted (Section 4.3)."""
        cost = self.costs.qk_tile(block, 0) if op == "QK" else self.costs.pv_tile(block, 0)
        return self._add(
            TaskKind.MATMUL, self.mac, cost, deps, f"redo_{op}", index, block,
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
    return [CoreEmitter(graph, costs, core, prefix) for core in range(len(per_core_blocks))]


def interleave_block_positions(per_core: Sequence[Sequence[T]]) -> Iterable[tuple[int, T]]:
    """Yield (core, item) pairs interleaved across cores, position by position.

    The items are each core's blocks, or its rounds for the round-structured
    builders.  Emitting in this order keeps the shared DMA channel's program
    order fair across cores instead of serializing one core's transfers
    behind another's.
    """
    max_len = max((len(items) for items in per_core), default=0)
    for position in range(max_len):
        for core, items in enumerate(per_core):
            if position < len(items):
                yield core, items[position]
