"""Simulation trace and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.config import HardwareConfig
from repro.hardware.energy import AccessCounters, EnergyBreakdown
from repro.sim.tasks import COUNTERS, Task, TaskGraph, TaskKind
from repro.utils.units import cycles_to_seconds


@dataclass(frozen=True)
class TaskRecord:
    """Scheduled timing of one task."""

    task: Task
    start: int
    finish: int

    @property
    def duration(self) -> int:
        return self.finish - self.start


class Trace:
    """Full schedule produced by the simulator.

    It holds the simulated :class:`~repro.sim.tasks.TaskGraph` and two
    columns indexed by task id, ``start`` and ``finish``.  The makespan, the
    per-resource figures and :meth:`counters` read the columns and the
    graph's counter totals; :attr:`records` builds one :class:`TaskRecord`
    per task on first use.  The graph must not grow after it is simulated.
    """

    def __init__(
        self,
        graph: TaskGraph | None = None,
        start: list[int] | None = None,
        finish: list[int] | None = None,
    ) -> None:
        self.graph = graph if graph is not None else TaskGraph()
        self.start = start if start is not None else []
        self.finish = finish if finish is not None else []
        self._total_cycles = max(self.finish, default=0)
        self._records: list[TaskRecord] | None = None

    def __getstate__(self) -> dict[str, object]:
        return {**self.__dict__, "_records": None}

    @property
    def records(self) -> list[TaskRecord]:
        """One record per task, in task-id order."""
        if self._records is None:
            self._records = [
                TaskRecord(Task(self.graph, tid), start, finish)
                for tid, (start, finish) in enumerate(zip(self.start, self.finish))
            ]
        return self._records

    @property
    def total_cycles(self) -> int:
        """Makespan of the schedule in cycles."""
        return self._total_cycles

    def _on(self, resource: str) -> list[int]:
        """Ids of the tasks bound to ``resource``, ordered by start time (then id)."""
        return sorted(self.graph.ids_on(resource), key=self.start.__getitem__)

    def records_on(self, resource: str) -> list[TaskRecord]:
        """Records of tasks bound to ``resource``, ordered by start time."""
        records = self.records
        return [records[tid] for tid in self._on(resource)]

    def busy_cycles(self, resource: str) -> int:
        """Total occupied cycles of ``resource``."""
        return sum(self.finish[tid] - self.start[tid] for tid in self.graph.ids_on(resource))

    def utilization(self, resource: str) -> float:
        """Busy fraction of ``resource`` over the makespan (0 if the trace is empty)."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.busy_cycles(resource) / total

    def resources(self) -> list[str]:
        """Distinct non-empty resources appearing in the trace."""
        return self.graph.resources()

    def counters(self) -> AccessCounters:
        """Aggregate access/operation counters over the whole trace."""
        totals = dict(zip(COUNTERS, self.graph.counter_totals()))
        return AccessCounters(**totals, total_cycles=self.total_cycles)

    def count_kind(self, kind: TaskKind) -> int:
        """Number of tasks of ``kind`` in the trace."""
        return self.graph.kinds.count(kind)

    def overlap_cycles(self, resource_a: str, resource_b: str) -> int:
        """Cycles during which both resources are simultaneously busy.

        Used to verify that MAS-Attention actually overlaps MAC and VEC work
        while FLAT does not.
        """
        start, finish = self.start, self.finish
        intervals_a = [(start[t], finish[t]) for t in self._on(resource_a) if finish[t] > start[t]]
        intervals_b = [(start[t], finish[t]) for t in self._on(resource_b) if finish[t] > start[t]]
        overlap = 0
        i = j = 0
        while i < len(intervals_a) and j < len(intervals_b):
            a_start, a_end = intervals_a[i]
            b_start, b_end = intervals_b[j]
            overlap += max(0, min(a_end, b_end) - max(a_start, b_start))
            if a_end <= b_end:
                i += 1
            else:
                j += 1
        return overlap


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one dataflow on one workload and device."""

    scheduler: str
    workload_name: str
    hardware_name: str
    trace: Trace
    counters: AccessCounters
    energy: EnergyBreakdown
    frequency_hz: float
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Total execution cycles (makespan)."""
        return self.counters.total_cycles

    @property
    def latency_seconds(self) -> float:
        """Wall-clock latency in seconds at the device clock."""
        return cycles_to_seconds(self.cycles, self.frequency_hz)

    @property
    def energy_pj(self) -> float:
        """Total energy in picojoules."""
        return self.energy.total_pj

    @property
    def dram_reads(self) -> int:
        return self.counters.dram_bytes_read

    @property
    def dram_writes(self) -> int:
        return self.counters.dram_bytes_written

    def summary(self) -> dict[str, object]:
        """Compact dictionary summary used by reports and benches."""
        return {
            "scheduler": self.scheduler,
            "workload": self.workload_name,
            "hardware": self.hardware_name,
            "cycles": self.cycles,
            "latency_ms": self.latency_seconds * 1e3,
            "energy_pj": self.energy_pj,
            "dram_bytes_read": self.dram_reads,
            "dram_bytes_written": self.dram_writes,
            "mac_ops": self.counters.mac_ops,
            "vec_ops": self.counters.vec_ops,
        }


def make_result(
    scheduler: str,
    workload_name: str,
    hardware: HardwareConfig,
    trace: Trace,
    counters: AccessCounters,
    energy: EnergyBreakdown,
    metadata: dict[str, object] | None = None,
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a trace, its counters and their energy."""
    return SimulationResult(
        scheduler=scheduler,
        workload_name=workload_name,
        hardware_name=hardware.name,
        trace=trace,
        counters=counters,
        energy=energy,
        frequency_hz=hardware.frequency_hz,
        metadata=dict(metadata or {}),
    )
