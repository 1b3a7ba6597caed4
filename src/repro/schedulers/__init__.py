"""Attention dataflow schedulers.

Each scheduler turns an :class:`~repro.workloads.attention.AttentionWorkload`
plus a :class:`~repro.core.tiling.TilingConfig` into a simulatable
:class:`~repro.sim.tasks.TaskGraph`.  The library ships the paper's five
baselines (Layer-Wise, Soft-Pipe, FLAT, TileFlow, FuseMax) and the
MAS-Attention dataflow itself.
"""

from repro.schedulers.base import AttentionScheduler, BuildResult
from repro.schedulers.layerwise import LayerWiseScheduler
from repro.schedulers.softpipe import SoftPipeScheduler
from repro.schedulers.flat import FLATScheduler, flat_max_seq_len
from repro.schedulers.tileflow import TileFlowScheduler
from repro.schedulers.fusemax import FuseMaxScheduler
from repro.schedulers.mas import MASAttentionScheduler, mas_max_seq_len
from repro.schedulers.registry import (
    ALL_SCHEDULERS,
    BASELINE_SCHEDULERS,
    get_scheduler,
    list_schedulers,
    make_scheduler,
)

__all__ = [
    "AttentionScheduler",
    "BuildResult",
    "LayerWiseScheduler",
    "SoftPipeScheduler",
    "FLATScheduler",
    "flat_max_seq_len",
    "TileFlowScheduler",
    "FuseMaxScheduler",
    "MASAttentionScheduler",
    "mas_max_seq_len",
    "ALL_SCHEDULERS",
    "BASELINE_SCHEDULERS",
    "get_scheduler",
    "list_schedulers",
    "make_scheduler",
]
