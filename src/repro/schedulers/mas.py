"""MAS-Attention scheduler: the paper's contribution wrapped in the scheduler interface.

The graph builder lives in :mod:`repro.core.mas_attention` and emits through
the same :class:`~repro.core.emit.CoreEmitter` as the baselines.  This class
adapts it to the :class:`~repro.schedulers.base.AttentionScheduler` interface
used by the search and analysis layers, and exposes the build metadata
(overwrite count, footprint, serialized blocks) through
``BuildResult.metadata``.
"""

from __future__ import annotations

from repro.core.mas_attention import build_mas_graph, mas_max_seq_len
from repro.core.tiling import TilingConfig, mas_footprint_bytes, mas_non_evictable_bytes
from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.workloads.attention import AttentionWorkload

__all__ = ["MASAttentionScheduler", "mas_max_seq_len"]


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
        cost), so this is the only limit: the one
        :meth:`repro.core.overwrite.OverwritePlanner.check_feasible` raises
        on during every build.
        """
        return mas_non_evictable_bytes(workload, tiling) <= self.hardware.l1_bytes

    def graph_key(self, workload: AttentionWorkload, tiling: TilingConfig) -> tuple:
        """The default key, keeping ``kv_resident`` whenever the resident
        footprint overflows L1: the overwrite planner and the
        serialize-on-overflow fallback read it then."""
        key = super().graph_key(workload, tiling)
        if tiling.kv_resident and self.footprint_bytes(workload, tiling) > self.hardware.l1_bytes:
            return (*key[:4], True)
        return key

    def build(self, workload: AttentionWorkload, tiling: TilingConfig) -> BuildResult:
        tiling = tiling.clamp_to(workload)
        graph, info = build_mas_graph(
            workload,
            self.hardware,
            tiling=tiling,
            enable_overwrite=self.enable_overwrite,
            costs=self.costs(workload, tiling),
            direct_emission=self.direct_emission,
        )
        return BuildResult(
            graph=graph,
            metadata={
                "footprint_bytes": info.footprint_bytes,
                "l1_bytes": info.l1_bytes,
                "overwrite_enabled": info.overwrite_enabled,
                "num_overwrites": info.num_overwrites,
                "extra_dram_bytes": info.extra_dram_bytes,
                "serialized_blocks": info.serialized_blocks,
                "blocks_per_core": info.blocks_per_core,
                "overflowed": info.overflowed,
            },
        )
