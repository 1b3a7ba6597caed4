"""Abstract base class shared by all attention dataflow schedulers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from repro.core.analytic import (
    AnalyticBounds,
    BatchedCostModel,
    BlockStructure,
    TilingBatch,
    batched_cost_model,
)
from repro.core.costs import TaskCost, TileCosts, partition_blocks
from repro.core.tiling import TilingConfig, default_tiling
from repro.hardware.config import HardwareConfig
from repro.sim.executor import simulate
from repro.sim.tasks import TaskGraph
from repro.sim.trace import SimulationResult
from repro.workloads.attention import AttentionWorkload


@dataclass
class BuildResult:
    """A built task graph plus scheduler-specific metadata."""

    graph: TaskGraph
    metadata: dict[str, object] = field(default_factory=dict)


class AttentionScheduler(ABC):
    """One attention dataflow: builds task graphs and simulates them.

    Subclasses define ``name`` / ``display_name`` class attributes, the
    on-chip footprint model used to validate tilings, and the graph builder.
    Builders emit each repeated unit of their graph once and stamp the rest
    (:func:`repro.core.emit.emit_units`); ``direct_emission=True`` emits every
    unit directly instead, the oracle that only tests select.
    """

    name: ClassVar[str] = "abstract"
    display_name: ClassVar[str] = "Abstract"
    #: Whether the tiling search should explore this scheduler's tiling space
    #: (FuseMax uses manually selected tiling sizes and is excluded).
    searchable: ClassVar[bool] = True
    #: Whether the dataflow serializes MAC and VEC work per core (no overlap),
    #: letting the analytic bound chain the two sums instead of taking the max.
    analytic_serial_compute: ClassVar[bool] = False

    def __init__(self, hardware: HardwareConfig, *, direct_emission: bool = False) -> None:
        self.hardware = hardware
        self.direct_emission = direct_emission
        # Tile costs made so far, per workload (see :meth:`costs`).
        self._cost_memos: dict[AttentionWorkload, dict[tuple, TaskCost]] = {}

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        """Build the task graph for ``workload`` under ``tiling``."""

    @abstractmethod
    def footprint_bytes(self, workload: AttentionWorkload, tiling: TilingConfig) -> int:
        """Peak on-chip residency (bytes) of this dataflow under ``tiling``."""

    # ------------------------------------------------------------------ #
    # Shared behaviour
    # ------------------------------------------------------------------ #
    def default_tiling(self, workload: AttentionWorkload) -> TilingConfig:
        """Heuristic tiling used when no searched tiling is supplied."""
        return default_tiling(workload, self.hardware, self.footprint_bytes)

    def fits(self, workload: AttentionWorkload, tiling: TilingConfig) -> bool:
        """Whether this dataflow can run ``tiling``: the search's one feasibility rule.

        A baseline must fit its whole footprint into L1; MAS-Attention
        overrides this with the weaker limit its overwrite strategy leaves.
        """
        return self.footprint_bytes(workload, tiling) <= self.hardware.l1_bytes

    def graph_key(self, workload: AttentionWorkload, tiling: TilingConfig) -> tuple:
        """The part of the clamped ``tiling`` that :meth:`build` reads.

        Tilings with equal keys build identical graphs, so a search simulates
        each key once (:class:`repro.search.objective.SchedulerObjective`).
        ``kv_resident`` only lets a head group's later row blocks reuse its
        first block's K/V loads, so with one row block per group it changes
        nothing.
        """
        return (
            tiling.bb,
            tiling.hh,
            tiling.nq,
            tiling.nkv,
            tiling.kv_resident and tiling.num_row_blocks(workload) > 1,
        )

    def costs(self, workload: AttentionWorkload, tiling: TilingConfig) -> TileCosts:
        """Tile cost helper bound to this scheduler's hardware.

        No cost depends on the tiling, so every tiling of one workload shares
        the costs this scheduler has made for it: a search's candidates make
        each cost once.
        """
        memo = self._cost_memos.get(workload)
        if memo is None:
            memo = self._cost_memos[workload] = {}
        return TileCosts(workload, self.hardware, tiling, memo)

    def blocks(self, workload: AttentionWorkload, tiling: TilingConfig):
        """Per-core block partition of the outer iteration space."""
        return partition_blocks(workload, tiling, self.hardware.num_cores)

    # ------------------------------------------------------------------ #
    # Vectorized analytic bounds
    # ------------------------------------------------------------------ #
    def analytic_bounds(
        self, workload: AttentionWorkload, tilings: Sequence[TilingConfig] | TilingBatch
    ) -> AnalyticBounds:
        """Provable cycle and energy lower bounds for a batch of candidates.

        Evaluates every candidate of ``tilings`` (tilings, or one packed
        :class:`~repro.core.analytic.TilingBatch`) at once through the
        :class:`~repro.core.analytic.BatchedCostModel`: resource-sum lower
        bounds on what :meth:`simulate` would report.  Candidates are clamped
        to the workload exactly as :meth:`simulate` clamps its tiling.  The
        bounds say nothing about feasibility; that is :meth:`fits`.
        """
        if not isinstance(tilings, TilingBatch):
            tilings = TilingBatch.from_tilings(tilings)
        batch = tilings.clamp_to(workload)
        model = batched_cost_model(workload, self.hardware)
        structure = model.structure(batch)
        dma = model.dma_cycles_common(batch, structure) + self._analytic_extra_dma(
            model, batch, structure
        )
        mac = model.mac_cycles(batch, structure)
        vec = self._analytic_vec_cycles(model, batch, structure)
        cycles = model.cycles_lower_bound(dma, mac, vec, self.analytic_serial_compute)
        counters = model.counters_common(batch, structure)
        return AnalyticBounds(
            cycles=cycles, energy_pj=model.energy_lower_bound(counters, cycles)
        )

    def _analytic_vec_cycles(
        self, model: BatchedCostModel, batch: TilingBatch, structure: BlockStructure
    ) -> np.ndarray:
        """Total VEC work; default is the full-width softmax every baseline runs."""
        return model.vec_cycles_full_softmax(structure)

    def _analytic_extra_dma(
        self, model: BatchedCostModel, batch: TilingBatch, structure: BlockStructure
    ) -> np.ndarray:
        """Mandatory DMA traffic beyond Q/K/V/O (e.g. score round-trips)."""
        return np.zeros(len(batch), dtype=np.int64)

    def simulate(
        self, workload: AttentionWorkload, tiling: TilingConfig | None = None
    ) -> SimulationResult:
        """Build and simulate this dataflow, returning cycles/energy/traffic."""
        if tiling is None:
            tiling = self.default_tiling(workload)
        tiling = tiling.clamp_to(workload)
        build = self.build(workload, tiling)
        return simulate(
            build.graph,
            self.hardware,
            scheduler=self.name,
            workload_name=workload.name or workload.describe(),
            metadata=build.metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(hardware={self.hardware.name!r})"
