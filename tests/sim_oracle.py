"""The object-based scheduling engine, kept as the oracle of :mod:`repro.sim.engine`.

``simulate_graph`` and ``Trace`` below are the engine and trace the simulator
used before its core became columnar, unchanged: the engine walks
:class:`~repro.sim.tasks.Task` objects and builds one
:class:`~repro.sim.trace.TaskRecord` per task, and ``Trace.counters`` sums
the counters record by record.  :func:`assert_matches_oracle` runs a graph
through the oracle and requires the columnar engine's trace to give every
task the same (start, finish), the graph the same makespan and eight
counters, and every resource the same figures.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from repro.hardware.energy import AccessCounters
from repro.sim.tasks import TaskGraph, TaskKind
from repro.sim.trace import TaskRecord
from repro.sim.trace import Trace as ColumnarTrace


@dataclass
class Trace:
    """Full schedule produced by the simulator."""

    records: list[TaskRecord] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        """Makespan of the schedule in cycles."""
        return max((r.finish for r in self.records), default=0)

    def records_on(self, resource: str) -> list[TaskRecord]:
        """Records of tasks bound to ``resource``, ordered by start time."""
        return sorted(
            (r for r in self.records if r.task.resource == resource), key=lambda r: r.start
        )

    def busy_cycles(self, resource: str) -> int:
        """Total occupied cycles of ``resource``."""
        return sum(r.duration for r in self.records if r.task.resource == resource)

    def utilization(self, resource: str) -> float:
        """Busy fraction of ``resource`` over the makespan (0 if the trace is empty)."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.busy_cycles(resource) / total

    def resources(self) -> list[str]:
        """Distinct non-empty resources appearing in the trace."""
        seen: dict[str, None] = {}
        for r in self.records:
            if r.task.resource and r.task.resource not in seen:
                seen[r.task.resource] = None
        return list(seen)

    def counters(self) -> AccessCounters:
        """Aggregate access/operation counters over the whole trace."""
        acc = AccessCounters(total_cycles=self.total_cycles)
        for record in self.records:
            t = record.task
            acc.dram_bytes_read += t.dram_bytes_read
            acc.dram_bytes_written += t.dram_bytes_written
            acc.l1_bytes_read += t.l1_bytes_read
            acc.l1_bytes_written += t.l1_bytes_written
            acc.l0_bytes_read += t.l0_bytes_read
            acc.l0_bytes_written += t.l0_bytes_written
            acc.mac_ops += t.mac_ops
            acc.vec_ops += t.vec_ops
        return acc

    def count_kind(self, kind: TaskKind) -> int:
        """Number of tasks of ``kind`` in the trace."""
        return sum(1 for r in self.records if r.task.kind == kind)

    def overlap_cycles(self, resource_a: str, resource_b: str) -> int:
        """Cycles during which both resources are simultaneously busy.

        Used to verify that MAS-Attention actually overlaps MAC and VEC work
        while FLAT does not.
        """
        intervals_a = [(r.start, r.finish) for r in self.records_on(resource_a) if r.duration > 0]
        intervals_b = [(r.start, r.finish) for r in self.records_on(resource_b) if r.duration > 0]
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


#: Resource names served out of order (readiness order) rather than program order.
OUT_OF_ORDER_RESOURCES: tuple[str, ...] = ("dma",)


def simulate_graph(
    graph: TaskGraph, out_of_order_resources: tuple[str, ...] = OUT_OF_ORDER_RESOURCES
) -> Trace:
    """Schedule ``graph`` and return the resulting :class:`Trace`."""
    graph.validate()
    n = len(graph)
    if n == 0:
        return Trace(records=[])

    ooo = set(out_of_order_resources)
    remaining_deps = [len(set(t.deps)) for t in graph]
    ready_time = [0] * n          # max finish over resolved deps
    finish = [0] * n
    start = [0] * n
    scheduled = [False] * n
    dependents: list[list[int]] = [[] for _ in range(n)]
    for task in graph:
        for dep in set(task.deps):
            dependents[dep].append(task.tid)

    # Per-resource issue structures.
    inorder_queue: dict[str, deque[int]] = {}
    ooo_ready: dict[str, list[tuple[int, int]]] = {}  # heap of (ready_time, tid)
    resource_free: dict[str, int] = {}
    for task in graph:
        res = task.resource
        if not res:
            continue
        resource_free.setdefault(res, 0)
        if res in ooo:
            ooo_ready.setdefault(res, [])
        else:
            inorder_queue.setdefault(res, deque()).append(task.tid)

    # Barrier (resource-less) tasks and newly dependency-free tasks are
    # resolved eagerly; compute/DMA tasks wait for dispatch.
    zero_dep_ready: deque[int] = deque(t.tid for t in graph if remaining_deps[t.tid] == 0)
    done_count = [0]  # mutable so the nested helpers can update it

    def resolve(tid: int) -> None:
        """Mark ``tid`` as dependency-free: barriers complete, DMA tasks become issuable."""
        task = graph[tid]
        if not task.resource:
            # Zero-cost barrier: completes at its ready time.
            start[tid] = ready_time[tid]
            finish[tid] = ready_time[tid] + task.cycles
            scheduled[tid] = True
            done_count[0] += 1
            propagate(tid)
        elif task.resource in ooo:
            heapq.heappush(ooo_ready[task.resource], (ready_time[tid], tid))
        # In-order tasks stay in their program-order queue; readiness is
        # checked when they reach the queue head.

    def propagate(tid: int) -> None:
        """Update dependents after ``tid`` finished (or was resolved as a barrier)."""
        for dep_tid in dependents[tid]:
            ready_time[dep_tid] = max(ready_time[dep_tid], finish[tid])
            remaining_deps[dep_tid] -= 1
            if remaining_deps[dep_tid] == 0:
                resolve(dep_tid)

    while zero_dep_ready:
        resolve(zero_dep_ready.popleft())

    while done_count[0] < n:
        # Gather one candidate per resource and dispatch the earliest-startable.
        best: tuple[int, int, str] | None = None  # (start, tid, resource)
        for res, queue in inorder_queue.items():
            while queue and scheduled[queue[0]]:
                queue.popleft()
            if not queue:
                continue
            tid = queue[0]
            if remaining_deps[tid] > 0:
                continue
            candidate_start = max(ready_time[tid], resource_free[res])
            if best is None or (candidate_start, tid) < (best[0], best[1]):
                best = (candidate_start, tid, res)
        for res, heap in ooo_ready.items():
            while heap and scheduled[heap[0][1]]:
                heapq.heappop(heap)
            if not heap:
                continue
            task_ready, tid = heap[0]
            candidate_start = max(task_ready, resource_free[res])
            if best is None or (candidate_start, tid) < (best[0], best[1]):
                best = (candidate_start, tid, res)

        if best is None:
            unscheduled = [t.name for t in graph if not scheduled[t.tid]][:5]
            raise RuntimeError(
                "scheduling deadlock: no issuable task among "
                f"{n - done_count[0]} unscheduled (first: {unscheduled})"
            )

        task_start, tid, res = best
        task = graph[tid]
        start[tid] = task_start
        finish[tid] = task_start + task.cycles
        resource_free[res] = finish[tid]
        scheduled[tid] = True
        done_count[0] += 1
        if res in ooo:
            # The dispatched task is the heap head by construction (stale
            # entries were popped during candidate gathering).
            if ooo_ready[res] and ooo_ready[res][0][1] == tid:
                heapq.heappop(ooo_ready[res])
        else:
            if inorder_queue[res] and inorder_queue[res][0] == tid:
                inorder_queue[res].popleft()
        propagate(tid)

    records = [TaskRecord(task=task, start=start[task.tid], finish=finish[task.tid]) for task in graph]
    return Trace(records=records)


def assert_matches_oracle(graph: TaskGraph, found: ColumnarTrace) -> None:
    """``found``, the columnar engine's trace of ``graph``, equals the oracle's.

    Besides every task's (start, finish), the makespan and the counters, the
    per-resource figures reports and perfbench read must agree: resources,
    task counts per kind, busy cycles, utilization, records by start time and
    the overlap of every pair of resources.
    """
    expected = simulate_graph(graph)

    def rows(records: list[TaskRecord]) -> list[tuple[int, int, int]]:
        return [(record.task.tid, record.start, record.finish) for record in records]

    assert list(zip(found.start, found.finish)) == [(r.start, r.finish) for r in expected.records]
    assert rows(found.records) == rows(expected.records)
    assert found.total_cycles == expected.total_cycles
    assert found.counters() == expected.counters()
    assert found.resources() == expected.resources()
    for kind in TaskKind:
        assert found.count_kind(kind) == expected.count_kind(kind)
    for resource in expected.resources():
        assert found.busy_cycles(resource) == expected.busy_cycles(resource)
        assert found.utilization(resource) == expected.utilization(resource)
        assert rows(found.records_on(resource)) == rows(expected.records_on(resource))
    for a, b in combinations(expected.resources(), 2):
        assert found.overlap_cycles(a, b) == expected.overlap_cycles(a, b)
