"""Accelergy-style energy model.

The paper uses Accelergy to convert simulated access counts into energy.  We
reproduce the same structure: every simulated task accumulates access counters
(bytes moved per memory level, MAC/VEC operations), and the energy model maps
those counters to per-component energy using pJ/byte and pJ/op coefficients
from the :class:`~repro.hardware.config.HardwareConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

from repro.hardware.config import HardwareConfig
from repro.utils.validation import require


@dataclass
class AccessCounters:
    """Aggregate access/operation counters produced by a simulation trace."""

    dram_bytes_read: int = 0
    dram_bytes_written: int = 0
    l1_bytes_read: int = 0
    l1_bytes_written: int = 0
    l0_bytes_read: int = 0
    l0_bytes_written: int = 0
    mac_ops: int = 0
    vec_ops: int = 0
    total_cycles: int = 0

    def __post_init__(self) -> None:
        for name in _ACCESS_COUNTERS:
            require(getattr(self, name) >= 0, f"{name} must be >= 0")


#: The field names of :class:`AccessCounters`, read once rather than on
#: every simulation.
_ACCESS_COUNTERS: tuple[str, ...] = tuple(f.name for f in fields(AccessCounters))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (picojoules) split by hardware component, as in Figure 6."""

    dram_pj: float = 0.0
    l1_pj: float = 0.0
    l0_pj: float = 0.0
    mac_pe_pj: float = 0.0
    vec_pe_pj: float = 0.0
    leakage_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Total energy in picojoules."""
        return (
            self.dram_pj
            + self.l1_pj
            + self.l0_pj
            + self.mac_pe_pj
            + self.vec_pe_pj
            + self.leakage_pj
        )

    @property
    def pe_pj(self) -> float:
        """Combined MAC+VEC processing-element energy."""
        return self.mac_pe_pj + self.vec_pe_pj


def energy_breakdown(cfg: HardwareConfig, counts: Mapping) -> EnergyBreakdown:
    """The energy of ``counts`` (the :class:`AccessCounters` fields by name)
    on ``cfg``, per component.

    The one energy expression: :meth:`EnergyModel.compute` applies it to a
    simulation's counters, and the analytic layer to arrays of lower-bound
    counts per candidate.  It is monotone in every count, so lower-bound
    counts give a lower-bound :attr:`EnergyBreakdown.total_pj`, exactly in
    floating point.
    """
    return EnergyBreakdown(
        dram_pj=counts["dram_bytes_read"] * cfg.dram.read_pj_per_byte
        + counts["dram_bytes_written"] * cfg.dram.write_pj_per_byte,
        l1_pj=counts["l1_bytes_read"] * cfg.l1.read_pj_per_byte
        + counts["l1_bytes_written"] * cfg.l1.write_pj_per_byte,
        l0_pj=counts["l0_bytes_read"] * cfg.l0.read_pj_per_byte
        + counts["l0_bytes_written"] * cfg.l0.write_pj_per_byte,
        mac_pe_pj=counts["mac_ops"] * cfg.mac_pj_per_op,
        vec_pe_pj=counts["vec_ops"] * cfg.vec_pj_per_op,
        leakage_pj=counts["total_cycles"] * cfg.leakage_pj_per_cycle,
    )


@dataclass(frozen=True)
class EnergyModel:
    """Maps :class:`AccessCounters` to an :class:`EnergyBreakdown` for a device."""

    config: HardwareConfig

    def compute(self, counters: AccessCounters) -> EnergyBreakdown:
        """Convert access counters to per-component energy in picojoules."""
        return energy_breakdown(self.config, vars(counters))
