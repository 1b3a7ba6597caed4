"""MAS-Attention reproduction library.

This package reproduces *MAS-Attention: Memory-Aware Stream Processing for
Attention Acceleration on Resource-Constrained Edge Devices* (MLSys 2025) as a
pure-Python analytical simulation stack:

* :mod:`repro.hardware` — the edge-accelerator hardware model (MAC/VEC units,
  memory hierarchy, Accelergy-style energy model, named presets);
* :mod:`repro.workloads` — attention workload shapes, the Table-1 network
  registry and the Stable Diffusion 1.5 reduced-UNet workload;
* :mod:`repro.sim` — the tile-granularity dependency/resource simulator;
* :mod:`repro.numerics` — NumPy reference attention and the "golden data
  check", which replays every scheduler's simulated task graph on numpy tiles;
* :mod:`repro.schedulers` — the baseline dataflows (Layer-Wise, Soft-Pipe,
  FLAT, TileFlow, FuseMax) and the MAS-Attention dataflow;
* :mod:`repro.core` — the paper's contribution: stream processing, the
  multi-tiered tiling scheme and the proactive buffer-overwrite strategy;
* :mod:`repro.search` — tiling auto-tuning (grid / random / MCTS / GA);
* :mod:`repro.analysis` — experiment harnesses for every table and figure.

Quickstart
----------
>>> from repro import quick_compare
>>> rows = quick_compare("BERT-Base")
>>> sorted(rows, key=lambda r: r["cycles"])[0]["scheduler"]
'mas'
"""

from __future__ import annotations

__version__ = "0.1.0"

from repro.hardware import (
    HardwareConfig,
    davinci_like_npu,
    get_preset,
    simulated_edge_device,
)
from repro.workloads import AttentionWorkload, get_network, list_networks
from repro.core import TilingConfig
from repro.schedulers import make_scheduler, list_schedulers
from repro.sim import simulate

__all__ = [
    "__version__",
    "HardwareConfig",
    "AttentionWorkload",
    "TilingConfig",
    "simulated_edge_device",
    "davinci_like_npu",
    "get_preset",
    "get_network",
    "list_networks",
    "make_scheduler",
    "list_schedulers",
    "simulate",
    "quick_compare",
]


def quick_compare(
    network: str = "BERT-Base",
    hardware: HardwareConfig | None = None,
    schedulers: list[str] | None = None,
) -> list[dict[str, object]]:
    """Simulate every dataflow on one Table-1 network with default tilings.

    This is the five-line quickstart: it returns one summary dict per
    scheduler (cycles, energy, DRAM traffic).  For the paper's numbers use the
    experiment harnesses in :mod:`repro.analysis`, which additionally run the
    tiling search.

    Parameters
    ----------
    network:
        Table-1 network name (prefix match allowed, e.g. ``"BERT-Base"``).
    hardware:
        Device to simulate on; defaults to the paper's simulated edge device.
    schedulers:
        Scheduler short names; defaults to all registered dataflows.
    """
    hw = hardware or simulated_edge_device()
    workload = get_network(network).workload()
    names = schedulers or list_schedulers()
    return [make_scheduler(name, hw).simulate(workload).summary() for name in names]
