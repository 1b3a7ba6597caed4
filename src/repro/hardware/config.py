"""Hardware configuration dataclasses for the edge accelerator model.

The configuration mirrors the simulated architecture in the paper (Section 5.1
and Figure 4): a 3.75 GHz, 16 nm accelerator with two cores, each holding a
16x16 MAC PE array and a 256-lane VEC unit, a 5 MB L1 buffer connected to a
6 GB DRAM over a 30 GB/s channel, and an L0 register file feeding the PEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.units import GB, GHZ, KB, MB
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

    @property
    def num_pes(self) -> int:
        """Number of processing elements in the array."""
        return self.rows * self.cols

    @property
    def peak_macs_per_cycle(self) -> int:
        """Peak MAC throughput of the unit in MACs/cycle."""
        return self.num_pes * self.macs_per_pe_per_cycle


@dataclass(frozen=True)
class VecUnitSpec:
    """A SIMD vector unit used for element-wise / reduction work (softmax).

    Attributes
    ----------
    lanes:
        Number of SIMD lanes (the paper's VEC unit is a 256-wide mesh).
    throughput_ops_per_cycle:
        Effective element-operations retired per cycle. This is lower than the
        lane count because transcendental ops (exp) and divisions occupy a lane
        for several cycles on edge vector units.
    softmax_ops_per_element:
        Element-operations charged per softmax input element (max-scan,
        subtract, exponentiate, sum, divide).
    row_overhead_cycles:
        Fixed per-row overhead for reduction latency and loop control.
    """

    lanes: int = 256
    throughput_ops_per_cycle: int = 32
    softmax_ops_per_element: int = 16
    row_overhead_cycles: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.lanes, "lanes")
        check_positive_int(self.throughput_ops_per_cycle, "throughput_ops_per_cycle")
        check_positive_int(self.softmax_ops_per_element, "softmax_ops_per_element")
        require(self.row_overhead_cycles >= 0, "row_overhead_cycles must be >= 0")


@dataclass(frozen=True)
class MemoryLevelSpec:
    """One level of the on-chip / off-chip memory hierarchy.

    Attributes
    ----------
    name:
        Human-readable level name ("DRAM", "L1", "L0").
    size_bytes:
        Capacity of the level. ``None`` means effectively unbounded (DRAM is
        bounded in the paper at 6 GB; attention working sets never approach it
        but the bound is still checked).
    read_pj_per_byte / write_pj_per_byte:
        Accelergy-style access energy coefficients.
    bandwidth_bytes_per_cycle:
        Sustained bandwidth of the level. Only DRAM bandwidth constrains the
        simulator (DMA cycles); on-chip levels are modelled as keeping up with
        the compute units, which matches the analytical model used by the
        paper's toolchain.
    """

    name: str
    size_bytes: int | None
    read_pj_per_byte: float
    write_pj_per_byte: float
    bandwidth_bytes_per_cycle: float

    def __post_init__(self) -> None:
        require(bool(self.name), "memory level name must be non-empty")
        if self.size_bytes is not None:
            check_positive_int(self.size_bytes, f"{self.name}.size_bytes")
        require(self.read_pj_per_byte >= 0, f"{self.name}.read_pj_per_byte must be >= 0")
        require(self.write_pj_per_byte >= 0, f"{self.name}.write_pj_per_byte must be >= 0")
        require(
            self.bandwidth_bytes_per_cycle > 0,
            f"{self.name}.bandwidth_bytes_per_cycle must be positive",
        )


@dataclass(frozen=True)
class DmaSpec:
    """DRAM <-> L1 DMA channel shared by all cores."""

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
    experiments.
    """

    name: str = "edge-sim"
    frequency_hz: float = 3.75 * GHZ
    num_cores: int = 2
    mac: MacUnitSpec = field(default_factory=MacUnitSpec)
    vec: VecUnitSpec = field(default_factory=VecUnitSpec)
    dram: MemoryLevelSpec = field(
        default_factory=lambda: MemoryLevelSpec(
            name="DRAM",
            size_bytes=6 * GB,
            read_pj_per_byte=60.0,
            write_pj_per_byte=60.0,
            bandwidth_bytes_per_cycle=8.0,
        )
    )
    l1: MemoryLevelSpec = field(
        default_factory=lambda: MemoryLevelSpec(
            name="L1",
            size_bytes=5 * MB,
            read_pj_per_byte=2.0,
            write_pj_per_byte=2.2,
            bandwidth_bytes_per_cycle=256.0,
        )
    )
    l0: MemoryLevelSpec = field(
        default_factory=lambda: MemoryLevelSpec(
            name="L0",
            size_bytes=64 * KB,
            read_pj_per_byte=0.15,
            write_pj_per_byte=0.18,
            bandwidth_bytes_per_cycle=1024.0,
        )
    )
    dma: DmaSpec = field(default_factory=DmaSpec)
    mac_pj_per_op: float = 0.8
    vec_pj_per_op: float = 0.6
    leakage_pj_per_cycle: float = 250.0
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        require(bool(self.name), "hardware name must be non-empty")
        require(self.frequency_hz > 0, "frequency_hz must be positive")
        check_positive_int(self.num_cores, "num_cores")
        check_positive_int(self.dtype_bytes, "dtype_bytes")
        require(self.mac_pj_per_op >= 0, "mac_pj_per_op must be >= 0")
        require(self.vec_pj_per_op >= 0, "vec_pj_per_op must be >= 0")
        require(self.leakage_pj_per_cycle >= 0, "leakage_pj_per_cycle must be >= 0")
        require(self.l1.size_bytes is not None, "L1 must have a finite size")
        require(self.l0.size_bytes is not None, "L0 must have a finite size")

    # ------------------------------------------------------------------ #
    # Derived properties
    # ------------------------------------------------------------------ #
    @property
    def l1_bytes(self) -> int:
        """Per-core L1 buffer capacity in bytes."""
        assert self.l1.size_bytes is not None
        return self.l1.size_bytes

    @property
    def peak_macs_per_cycle(self) -> int:
        """Aggregate peak MAC throughput across all cores."""
        return self.num_cores * self.mac.peak_macs_per_cycle

    def with_l1_bytes(self, size_bytes: int) -> "HardwareConfig":
        """Return a copy of this configuration with a different L1 capacity."""
        check_positive_int(size_bytes, "size_bytes")
        return replace(self, l1=replace(self.l1, size_bytes=size_bytes))
