"""Named hardware presets used by the experiments.

``simulated_edge_device``
    The paper's simulated edge accelerator (Section 5.1, Figure 4): 3.75 GHz,
    two cores each with a 16x16 MAC array and a 256-lane VEC unit, 5 MB L1,
    6 GB DRAM at 30 GB/s (8 bytes per cycle), and an L0 register file next to
    the PEs.  The model holds the parts of it a simulation reads
    (:mod:`repro.hardware.config`).

``davinci_like_npu``
    A stand-in for the Huawei MatePad Pro 13.2 DaVinci NPU (Kirin 990): three
    cores (2x Ascend Lite + 1x Ascend Tiny are approximated as three identical
    cores with a smaller per-core buffer), lower clock, wider MAC array.  We do
    not have the real device; this preset exists so the Figure 5 experiment
    exercises the same code path on different hardware parameters with grid
    search, exactly as the paper varies only hardware + search algorithm.

``constrained_edge_device``
    A deliberately small-L1 variant used by the DRAM-access analysis (Section
    5.4) and the overwrite ablation, where the proactive overwrite strategy
    actually triggers for the Table-1 sequence lengths.
"""

from __future__ import annotations

from repro.hardware.config import DmaSpec, HardwareConfig, MacUnitSpec, MemoryLevelSpec, VecUnitSpec
from repro.utils.units import GHZ, KB, MB


def simulated_edge_device() -> HardwareConfig:
    """The paper's simulated edge accelerator (Figure 4)."""
    return HardwareConfig(name="edge-sim")


def davinci_like_npu() -> HardwareConfig:
    """A DaVinci-NPU-like preset standing in for the Huawei MatePad Pro 13.2."""
    return HardwareConfig(
        name="davinci-like",
        frequency_hz=1.0 * GHZ,
        num_cores=3,
        mac=MacUnitSpec(rows=16, cols=16, fill_overhead_cycles=16),
        vec=VecUnitSpec(
            throughput_ops_per_cycle=24,
            softmax_ops_per_element=12,
            row_overhead_cycles=24,
        ),
        l1_bytes=1 * MB,
        dram=MemoryLevelSpec(read_pj_per_byte=80.0, write_pj_per_byte=80.0),
        l1=MemoryLevelSpec(read_pj_per_byte=2.5, write_pj_per_byte=2.8),
        l0=MemoryLevelSpec(read_pj_per_byte=0.2, write_pj_per_byte=0.25),
        dma=DmaSpec(bytes_per_cycle=16.0, setup_cycles=16),
        mac_pj_per_op=0.9,
        vec_pj_per_op=0.7,
    )


def constrained_edge_device(l1_bytes: int = 256 * KB) -> HardwareConfig:
    """The simulated edge device with a deliberately small L1 buffer.

    With the default 5 MB L1 and the 512-token Table-1 sequences the on-chip
    working set of MAS-Attention almost always fits, so the proactive
    overwrite strategy never fires.  The DRAM-access analysis and the
    overwrite ablation use this preset to exercise that code path at the
    paper's workload sizes.
    """
    return simulated_edge_device().with_l1_bytes(l1_bytes)


PRESETS = {
    "edge-sim": simulated_edge_device,
    "davinci-like": davinci_like_npu,
    "edge-constrained": constrained_edge_device,
}


def get_preset(name: str) -> HardwareConfig:
    """Look up a hardware preset by name."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown hardware preset {name!r}; available: {sorted(PRESETS)}") from None
    return factory()
