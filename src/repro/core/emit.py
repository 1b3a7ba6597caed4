"""Tile-task emission shared by all six dataflow builders.

MAS-Attention (:mod:`repro.core.mas_attention`) and the five baselines
(:mod:`repro.schedulers`) add every tile task to their
:class:`~repro.sim.tasks.TaskGraph` through :class:`CoreEmitter`; only the
zero-cost stage and round barriers are added to the graph directly.  Builders
walk their cores position-major with :func:`interleave_block_positions`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from repro.core.costs import Block, TaskCost, TileCosts
from repro.sim.tasks import TaskGraph, TaskKind, dma_resource, mac_resource, vec_resource

T = TypeVar("T")


def task_name(head: str, stem: str, index: int | None, block: Block) -> str:
    """Name of an emitted task, ``<prefix>.c<core>.<stem><index>.<block label>``.

    A graph keeps each emitted name as these parts and formats it only when
    the name is read.
    """
    return f"{head}.{stem}{'' if index is None else index}.{block.label()}"


class CoreEmitter:
    """Per-core helper that emits the tile tasks of an attention dataflow.

    It wraps a :class:`TaskGraph` and a :class:`TileCosts` and provides typed
    ``load_* / matmul_* / softmax / store_*`` methods, plus MAS's overwrite
    ``reload`` / ``redo`` tasks, with consistent naming, tags, costs and the
    K/V residency caching implied by ``TilingConfig.kv_resident``.  Every
    method takes dependency task ids and returns the new task's id.
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
        tags: dict[str, object],
    ) -> int:
        return self.graph.append(
            kind,
            resource,
            cost.cycles,
            tuple(deps),
            cost.counters,
            (task_name, self.head, stem, index, block),
            tags,
        )

    # ------------------------------------------------------------------ #
    # DMA
    # ------------------------------------------------------------------ #
    def load_q(self, block: Block, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.LOAD, self.dma, self.costs.load_q(block), deps, "load_Q", None, block,
            {"core": self.core, "operand": "Q", "block": block.index},
        )

    def kv_loads(self, block: Block, which: str, deps: Sequence[int] = ()) -> list[int]:
        """Load all K or V tiles for ``block`` (cached per head group if resident)."""
        key = (which, block.head_group)
        if self.costs.tiling.kv_resident and key in self._group_kv_loads:
            return self._group_kv_loads[key]
        stem = f"load_{which}"
        loads = [
            self._add(
                TaskKind.LOAD, self.dma, self.costs.load_kv_tile(block, tile), deps, stem, tile,
                block, {"core": self.core, "operand": which, "block": block.index, "tile": tile},
            )
            for tile in range(self.costs.num_kv_tiles)
        ]
        if self.costs.tiling.kv_resident:
            self._group_kv_loads[key] = loads
        return loads

    def load_score(self, block: Block, label: str, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.LOAD, self.dma, self.costs.load_score(block), deps, f"load_{label}", None,
            block, {"core": self.core, "operand": label, "block": block.index},
        )

    def store_score(self, block: Block, label: str, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.STORE, self.dma, self.costs.store_score(block), deps, f"store_{label}", None,
            block, {"core": self.core, "operand": label, "block": block.index},
        )

    def store_score_tile(
        self, block: Block, tile: int, label: str, deps: Sequence[int] = ()
    ) -> int:
        return self._add(
            TaskKind.STORE, self.dma, self.costs.store_score_tile(block, tile), deps,
            f"store_{label}", tile, block,
            {"core": self.core, "operand": label, "block": block.index, "tile": tile},
        )

    def store_o(self, block: Block, deps: Sequence[int] = ()) -> int:
        return self._add(
            TaskKind.STORE, self.dma, self.costs.store_o(block), deps, "store_O", None, block,
            {"core": self.core, "operand": "O", "block": block.index},
        )

    def reload(self, block: Block, victim: str, num_bytes: int, deps: Sequence[int]) -> int:
        """Refetch ``num_bytes`` of the K or V tiles an overwrite dropped (Section 4.3)."""
        return self._add(
            TaskKind.LOAD, self.dma, self.costs.load_bytes(num_bytes), deps, f"reload_{victim}",
            None, block,
            {"core": self.core, "operand": victim, "block": block.index, "overwrite": True},
        )

    # ------------------------------------------------------------------ #
    # Compute
    # ------------------------------------------------------------------ #
    def matmul_qk(self, block: Block, tile: int, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.MATMUL, self.mac, self.costs.qk_tile(block, tile), deps, "QK", tile, block,
            {"core": self.core, "op": "QK", "block": block.index, "tile": tile},
        )

    def matmul_pv(self, block: Block, tile: int, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.MATMUL, self.mac, self.costs.pv_tile(block, tile), deps, "PV", tile, block,
            {"core": self.core, "op": "PV", "block": block.index, "tile": tile},
        )

    def redo(self, block: Block, op: str, index: int, deps: Sequence[int]) -> int:
        """Redo a tile of the ``"QK"`` or ``"PV"`` MatMul an overwrite interrupted (Section 4.3)."""
        cost = self.costs.qk_tile(block, 0) if op == "QK" else self.costs.pv_tile(block, 0)
        return self._add(
            TaskKind.MATMUL, self.mac, cost, deps, f"redo_{op}", index, block,
            {"core": self.core, "op": op, "block": block.index, "redo": True},
        )

    def softmax(self, block: Block, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.SOFTMAX, self.vec, self.costs.softmax(block), deps, "SM", None, block,
            {"core": self.core, "op": "SM", "block": block.index},
        )

    def softmax_tile(self, block: Block, tile: int, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.VECOP, self.vec, self.costs.softmax_tile(block, tile), deps, "SMU", tile,
            block, {"core": self.core, "op": "SMU", "block": block.index, "tile": tile},
        )

    def output_normalize(self, block: Block, deps: Sequence[int]) -> int:
        return self._add(
            TaskKind.VECOP, self.vec, self.costs.output_normalize(block), deps, "NORM", None,
            block, {"core": self.core, "op": "NORM", "block": block.index},
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
