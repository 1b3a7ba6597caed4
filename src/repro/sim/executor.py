"""High-level facade: simulate a task graph on a hardware configuration."""

from __future__ import annotations

from repro.hardware.config import HardwareConfig
from repro.hardware.energy import EnergyModel
from repro.sim.engine import simulate_graph
from repro.sim.tasks import TaskGraph
from repro.sim.trace import SimulationResult, make_result


def simulate(
    graph: TaskGraph,
    hardware: HardwareConfig,
    scheduler: str = "",
    workload_name: str = "",
    metadata: dict[str, object] | None = None,
) -> SimulationResult:
    """Run the scheduling engine and the energy model on ``graph``.

    Parameters
    ----------
    graph:
        The task graph produced by a dataflow scheduler.
    hardware:
        Device the graph was built for (used for the energy coefficients and
        the clock frequency).
    scheduler, workload_name, metadata:
        Labels propagated into the :class:`SimulationResult`.
    """
    trace = simulate_graph(graph)
    counters = trace.counters()
    return make_result(
        scheduler=scheduler or graph.name,
        workload_name=workload_name,
        hardware=hardware,
        trace=trace,
        counters=counters,
        energy=EnergyModel(hardware).compute(counters),
        metadata=metadata,
    )
