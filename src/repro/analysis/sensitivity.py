"""Hardware sensitivity analysis: where does MAS-Attention's advantage come from?

The paper evaluates one simulated device (Section 5.1) and one NPU; a natural
follow-up question — and the basis of its Section 5.6 discussion — is how the
MAS-vs-FLAT advantage moves with the hardware parameters.  This module sweeps
one parameter at a time around the paper's simulated edge device:

* **L1 capacity** — below the pipeline's working set the proactive overwrite
  strategy (or, without it, serialization) eats into the gain;
* **DRAM bandwidth** — when the mandatory Q/K/V/O traffic dominates, every
  fused dataflow converges to the bandwidth bound and the gap closes;
* **VEC throughput** — the speedup peaks when softmax time matches MatMul time
  and shrinks toward 1 when either unit strongly dominates.

Each sweep point tunes both dataflows (small budget) and reports cycles and
speedup; the result feeds ``tests/test_paper_shape.py`` and the
``mas-attention sweep`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.report import format_table
from repro.hardware.config import HardwareConfig
from repro.hardware.presets import simulated_edge_device
from repro.schedulers.registry import make_scheduler
from repro.search.autotuner import AutoTuner
from repro.utils.units import MB, bytes_to_human
from repro.utils.validation import require
from repro.workloads.networks import get_network

__all__ = ["SweepPoint", "SensitivityResult", "run_sensitivity", "SWEEPABLE_PARAMETERS"]

#: Parameters the sweep knows how to vary.
SWEEPABLE_PARAMETERS: tuple[str, ...] = ("l1_bytes", "dram_bytes_per_cycle", "vec_throughput")


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: a parameter value and the tuned cycles of both dataflows."""

    parameter: str
    value: float
    flat_cycles: int
    mas_cycles: int

    @property
    def speedup(self) -> float:
        """MAS-Attention speedup over FLAT at this point."""
        return self.flat_cycles / self.mas_cycles if self.mas_cycles else 1.0


@dataclass
class SensitivityResult:
    """All sweep points for one parameter on one network."""

    network: str
    parameter: str
    baseline_value: float
    points: list[SweepPoint] = field(default_factory=list)

    def speedups(self) -> list[float]:
        return [p.speedup for p in self.points]

    def as_rows(self) -> list[list[object]]:
        rows = []
        for p in self.points:
            value = (
                bytes_to_human(p.value) if self.parameter == "l1_bytes" else round(p.value, 2)
            )
            rows.append([value, p.flat_cycles, p.mas_cycles, p.speedup])
        return rows

    def format(self) -> str:
        return format_table(
            [self.parameter, "FLAT cycles", "MAS cycles", "MAS speedup"],
            self.as_rows(),
            precision=3,
            title=f"Sensitivity of MAS vs FLAT to {self.parameter} ({self.network})",
        )


def _apply(base: HardwareConfig, parameter: str, value: float) -> HardwareConfig:
    """Return a copy of ``base`` with ``parameter`` set to ``value``."""
    if parameter == "l1_bytes":
        return base.with_l1_bytes(int(value))
    if parameter == "dram_bytes_per_cycle":
        return replace(base, dma=replace(base.dma, bytes_per_cycle=float(value)))
    if parameter == "vec_throughput":
        return replace(base, vec=replace(base.vec, throughput_ops_per_cycle=int(value)))
    raise KeyError(f"unknown sweep parameter {parameter!r}; options: {SWEEPABLE_PARAMETERS}")


def _baseline_value(base: HardwareConfig, parameter: str) -> float:
    if parameter == "l1_bytes":
        return float(base.l1_bytes)
    if parameter == "dram_bytes_per_cycle":
        return float(base.dma.bytes_per_cycle)
    return float(base.vec.throughput_ops_per_cycle)


def default_sweep_values(parameter: str, base: HardwareConfig) -> list[float]:
    """A sensible sweep range around the paper's device for ``parameter``."""
    if parameter == "l1_bytes":
        return [0.25 * MB, 0.5 * MB, 1 * MB, 2 * MB, float(base.l1_bytes), 10 * MB]
    if parameter == "dram_bytes_per_cycle":
        return [1.0, 2.0, 4.0, base.dma.bytes_per_cycle, 16.0, 32.0]
    vec = float(base.vec.throughput_ops_per_cycle)
    return [vec / 4, vec / 2, vec, vec * 2, vec * 4]


def run_sensitivity(
    parameter: str = "l1_bytes",
    network: str = "BERT-Base",
    values: list[float] | None = None,
    hardware: HardwareConfig | None = None,
    search_budget: int = 30,
    use_search: bool = True,
) -> SensitivityResult:
    """Sweep one hardware parameter and report tuned FLAT/MAS cycles per point."""
    require(parameter in SWEEPABLE_PARAMETERS, f"unknown parameter {parameter!r}")
    base = hardware or simulated_edge_device()
    config = get_network(network)
    workload = config.workload()
    values = values or default_sweep_values(parameter, base)

    result = SensitivityResult(
        network=config.name,
        parameter=parameter,
        baseline_value=_baseline_value(base, parameter),
    )
    for value in values:
        device = _apply(base, parameter, value)
        cycles: dict[str, int] = {}
        for method in ("flat", "mas"):
            scheduler = make_scheduler(method, device)
            if use_search:
                tuning = AutoTuner(device, budget=search_budget, seed=0).tune(scheduler, workload)
                tiling = tuning.best_tiling
            else:
                tiling = scheduler.default_tiling(workload)
            cycles[method] = scheduler.simulate(workload, tiling).cycles
        result.points.append(
            SweepPoint(
                parameter=parameter,
                value=float(value),
                flat_cycles=cycles["flat"],
                mas_cycles=cycles["mas"],
            )
        )
    return result
