"""Tile-granularity analytical simulator.

Every attention dataflow in this library (the MAS-Attention core and all
baselines) compiles its schedule into a :class:`~repro.sim.tasks.TaskGraph`:
a DAG of tile-level tasks (DMA loads/stores, MatMul tiles on the MAC unit,
softmax tiles on the VEC unit) with explicit data dependencies and a resource
assignment.  The simulator computes start/finish times per task respecting

* data dependencies (a task starts only after all its dependencies finish), and
* per-resource serialization (tasks bound to the same MAC/VEC/DMA resource run
  one at a time, in program order),

which is exactly the first-order behaviour the paper's Timeloop/TileFlow
toolchain models.  The resulting :class:`~repro.sim.trace.Trace` carries cycle
counts, per-resource utilization, per-level access counters and (through the
:class:`~repro.hardware.energy.EnergyModel`) the energy breakdown.
"""

from repro.sim.tasks import Task, TaskGraph, TaskKind, dma_resource, mac_resource, vec_resource
from repro.sim.trace import SimulationResult, TaskRecord, Trace
from repro.sim.engine import simulate_graph
from repro.sim.executor import simulate

__all__ = [
    "Task",
    "TaskGraph",
    "TaskKind",
    "dma_resource",
    "mac_resource",
    "vec_resource",
    "SimulationResult",
    "TaskRecord",
    "Trace",
    "simulate_graph",
    "simulate",
]
