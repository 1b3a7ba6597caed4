"""Hardware configuration dataclasses for the edge accelerator model.

The configuration holds what a simulation reads of the paper's simulated
device (Section 5.1 and Figure 4): a 3.75 GHz, 16 nm accelerator with two
cores, each with a 16x16 MAC PE array, a VEC unit and a 5 MB L1 buffer, one
DMA channel to DRAM, and the access energy of DRAM, L1 and the L0 register
file that feeds the PEs.  The paper's 30 GB/s DRAM channel is 8 bytes per
cycle at 3.75 GHz.  Two more figures of that device, its 6 GB of DRAM and the
VEC unit's 256 lanes, bound no simulated quantity: no attention working set
comes near 6 GB, and the VEC unit retires its effective
``throughput_ops_per_cycle``, not one operation per lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.units import GHZ, MB
from repro.utils.validation import check_positive_int, require


@dataclass(frozen=True)
class MacUnitSpec:
    """A MAC (multiply-accumulate) matrix unit modelled as an output-stationary PE array.

    Attributes
    ----------
    rows, cols:
        Shape of the PE array; one output tile of ``rows x cols`` elements is
        produced per pass.
    fill_overhead_cycles:
        Pipeline fill/drain overhead added per output-tile pass (systolic wave
        entering and leaving the array).
    macs_per_pe_per_cycle:
        Number of multiply-accumulates each PE retires per cycle.
    """

    rows: int = 16
    cols: int = 16
    fill_overhead_cycles: int = 0
    macs_per_pe_per_cycle: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.rows, "rows")
        check_positive_int(self.cols, "cols")
        check_positive_int(self.macs_per_pe_per_cycle, "macs_per_pe_per_cycle")
        require(self.fill_overhead_cycles >= 0, "fill_overhead_cycles must be >= 0")


@dataclass(frozen=True)
class VecUnitSpec:
    """A SIMD vector unit used for element-wise / reduction work (softmax).

    Attributes
    ----------
    throughput_ops_per_cycle:
        Effective element-operations retired per cycle. This is lower than the
        lane count (256 on the paper's device) because transcendental ops (exp)
        and divisions occupy a lane for several cycles on edge vector units.
    softmax_ops_per_element:
        Element-operations charged per softmax input element (max-scan,
        subtract, exponentiate, sum, divide).
    row_overhead_cycles:
        Fixed per-row overhead for reduction latency and loop control.
    """

    throughput_ops_per_cycle: int = 32
    softmax_ops_per_element: int = 16
    row_overhead_cycles: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.throughput_ops_per_cycle, "throughput_ops_per_cycle")
        check_positive_int(self.softmax_ops_per_element, "softmax_ops_per_element")
        require(self.row_overhead_cycles >= 0, "row_overhead_cycles must be >= 0")


@dataclass(frozen=True)
class MemoryLevelSpec:
    """Accelergy-style access energy of one memory level (DRAM, L1 or L0).

    Only the DRAM bandwidth constrains the simulator, and it is the DMA
    channel's (:class:`DmaSpec`); on-chip levels are modelled as keeping up
    with the compute units, which matches the analytical model used by the
    paper's toolchain.
    """

    read_pj_per_byte: float
    write_pj_per_byte: float

    def __post_init__(self) -> None:
        require(self.read_pj_per_byte >= 0, "read_pj_per_byte must be >= 0")
        require(self.write_pj_per_byte >= 0, "write_pj_per_byte must be >= 0")


@dataclass(frozen=True)
class DmaSpec:
    """DRAM <-> L1 DMA channel shared by all cores; its rate is the DRAM bandwidth."""

    bytes_per_cycle: float = 8.0
    setup_cycles: int = 8

    def __post_init__(self) -> None:
        require(self.bytes_per_cycle > 0, "bytes_per_cycle must be positive")
        require(self.setup_cycles >= 0, "setup_cycles must be >= 0")


@dataclass(frozen=True)
class HardwareConfig:
    """Complete description of an edge accelerator for the simulator.

    The default values correspond to the paper's simulated edge device; use
    :mod:`repro.hardware.presets` for the named configurations used in the
    experiments.  ``l1_bytes`` is each core's L1 buffer capacity.
    """

    name: str = "edge-sim"
    frequency_hz: float = 3.75 * GHZ
    num_cores: int = 2
    mac: MacUnitSpec = field(default_factory=MacUnitSpec)
    vec: VecUnitSpec = field(default_factory=VecUnitSpec)
    l1_bytes: int = 5 * MB
    dram: MemoryLevelSpec = field(default_factory=lambda: MemoryLevelSpec(60.0, 60.0))
    l1: MemoryLevelSpec = field(default_factory=lambda: MemoryLevelSpec(2.0, 2.2))
    l0: MemoryLevelSpec = field(default_factory=lambda: MemoryLevelSpec(0.15, 0.18))
    dma: DmaSpec = field(default_factory=DmaSpec)
    mac_pj_per_op: float = 0.8
    vec_pj_per_op: float = 0.6
    leakage_pj_per_cycle: float = 250.0

    def __post_init__(self) -> None:
        require(bool(self.name), "hardware name must be non-empty")
        require(self.frequency_hz > 0, "frequency_hz must be positive")
        check_positive_int(self.num_cores, "num_cores")
        check_positive_int(self.l1_bytes, "l1_bytes")
        require(self.mac_pj_per_op >= 0, "mac_pj_per_op must be >= 0")
        require(self.vec_pj_per_op >= 0, "vec_pj_per_op must be >= 0")
        require(self.leakage_pj_per_cycle >= 0, "leakage_pj_per_cycle must be >= 0")

    def with_l1_bytes(self, size_bytes: int) -> "HardwareConfig":
        """Return a copy of this configuration with a different L1 capacity."""
        return replace(self, l1_bytes=size_bytes)
