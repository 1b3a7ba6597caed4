"""Edge-accelerator hardware model.

This package models the resource-constrained edge accelerator described in the
MAS-Attention paper (Figure 4): a small number of cores, each containing a MAC
(matrix) unit and a VEC (vector) unit, a shared L1 on-chip buffer per core, an
L0 register file next to the PE arrays, and an off-chip DRAM reached through a
bandwidth-limited DMA channel.
"""

from repro.hardware.config import (
    DmaSpec,
    HardwareConfig,
    MacUnitSpec,
    MemoryLevelSpec,
    VecUnitSpec,
)
from repro.hardware.compute_units import (
    matmul_cycles,
    matmul_macs,
    softmax_cycles,
    softmax_vec_ops,
    elementwise_cycles,
)
from repro.hardware.memory import dma_cycles
from repro.hardware.energy import EnergyModel, EnergyBreakdown
from repro.hardware.presets import (
    simulated_edge_device,
    davinci_like_npu,
    constrained_edge_device,
    PRESETS,
    get_preset,
)

__all__ = [
    "DmaSpec",
    "HardwareConfig",
    "MacUnitSpec",
    "MemoryLevelSpec",
    "VecUnitSpec",
    "matmul_cycles",
    "matmul_macs",
    "softmax_cycles",
    "softmax_vec_ops",
    "elementwise_cycles",
    "dma_cycles",
    "EnergyModel",
    "EnergyBreakdown",
    "simulated_edge_device",
    "davinci_like_npu",
    "constrained_edge_device",
    "PRESETS",
    "get_preset",
]
