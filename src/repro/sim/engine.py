"""Dependency- and resource-aware scheduling engine.

The engine computes, for every task of a :class:`~repro.sim.tasks.TaskGraph`,
its start and finish cycle under the constraints:

1. a task starts no earlier than the finish of all its data dependencies;
2. every resource executes one task at a time (non-preemptive, single server);
3. **compute units** (MAC, VEC) issue their tasks strictly in program order —
   the order the scheduler emitted them — modelling the in-order instruction
   streams of the accelerator's engines;
4. the **DMA channel** services whichever enqueued descriptor is ready first:
   a store whose producing compute has not finished never blocks an
   independent load that was enqueued later.  Ties are broken by program
   order, so the behaviour is deterministic.

The schedule is produced by an event-driven list scheduler: at every step the
earliest-startable candidate across all resources is dispatched, the smallest
(start, task id) winning.  Candidates are the head of the program-order queue
for in-order resources, once its dependencies are done, and the earliest-ready
enqueued task for out-of-order resources; zero-cost barrier tasks (no
resource) complete as soon as their dependencies do.

The engine reads the graph's columns and keeps one candidate per resource,
updated when that resource dispatches or when its next task becomes ready;
``tests/sim_oracle.py`` keeps the object-based engine it replaced, and the
differential tests require both to agree on every task.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.sim.tasks import TaskGraph
from repro.sim.trace import Trace

__all__ = ["simulate_graph", "critical_path_cycles", "OUT_OF_ORDER_RESOURCES"]

#: Resource names served out of order (readiness order) rather than program order.
OUT_OF_ORDER_RESOURCES: tuple[str, ...] = ("dma",)


def simulate_graph(graph: TaskGraph) -> Trace:
    """Schedule ``graph`` and return the resulting :class:`Trace`."""
    graph.validate()
    n = len(graph)
    if n == 0:
        return Trace(graph, [], [])

    cycles = graph.cycles
    resource_of = graph.resource_ids
    num_resources = len(graph.resource_names)
    # Resource id 0 is "no resource": its tasks are barriers.
    out_of_order = [rid > 0 and name in OUT_OF_ORDER_RESOURCES
                    for rid, name in enumerate(graph.resource_names)]

    # A dependency listed twice is counted, and released, twice.
    remaining = list(map(len, graph.deps))
    dependents: list[list[int]] = [[] for _ in range(n)]
    for tid, deps in enumerate(graph.deps):
        for dep in deps:
            dependents[dep].append(tid)
    queues: list[list[int]] = [[] for _ in range(num_resources)]
    for tid, rid in enumerate(resource_of):
        queues[rid].append(tid)

    ready = [0] * n  # max finish over resolved deps
    start = [-1] * n
    finish = [0] * n
    free = [0] * num_resources
    head = [0] * num_resources  # position of each in-order queue's next task
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(num_resources)]
    # Each resource's candidate (start, tid, resource), or (never, n, resource)
    # when it has none: no start reaches the sum of all cycles.
    never = sum(cycles) + 1
    candidates = [(never, n, rid) for rid in range(num_resources)]
    # Tasks whose last dependency has finished, still to be resolved.
    released = [tid for tid in range(n) if not remaining[tid]]
    done = 0
    while True:
        # Resolve the released tasks: a barrier completes at once and releases
        # its dependents; any other task may become its resource's candidate.
        while released:
            tid = released.pop()
            rid = resource_of[tid]
            time = ready[tid]
            if not rid:
                start[tid] = time
                finish[tid] = end = time + cycles[tid]
                done += 1
                for dependent in dependents[tid]:
                    if ready[dependent] < end:
                        ready[dependent] = end
                    remaining[dependent] -= 1
                    if not remaining[dependent]:
                        released.append(dependent)
            elif out_of_order[rid]:
                heap = heaps[rid]
                heappush(heap, (time, tid))
                if heap[0][1] == tid:
                    candidates[rid] = (max(time, free[rid]), tid, rid)
            elif queues[rid][head[rid]] == tid:
                candidates[rid] = (max(time, free[rid]), tid, rid)
        if done == n:
            break

        task_start, tid, rid = min(candidates)
        if tid == n:
            unscheduled = [graph.task_name(t) for t in range(n) if start[t] < 0][:5]
            raise RuntimeError(
                "scheduling deadlock: no issuable task among "
                f"{n - done} unscheduled (first: {unscheduled})"
            )
        end = task_start + cycles[tid]
        start[tid] = task_start
        finish[tid] = end
        free[rid] = end
        done += 1
        # The resource's next candidate.
        if out_of_order[rid]:
            heap = heaps[rid]
            heappop(heap)
            if heap:
                time, next_tid = heap[0]
                candidates[rid] = (max(time, end), next_tid, rid)
            else:
                candidates[rid] = (never, n, rid)
        else:
            queue = queues[rid]
            position = head[rid] = head[rid] + 1
            if position < len(queue) and not remaining[queue[position]]:
                next_tid = queue[position]
                candidates[rid] = (max(ready[next_tid], end), next_tid, rid)
            else:
                candidates[rid] = (never, n, rid)
        for dependent in dependents[tid]:
            if ready[dependent] < end:
                ready[dependent] = end
            remaining[dependent] -= 1
            if not remaining[dependent]:
                released.append(dependent)

    return Trace(graph, start, finish)


def critical_path_cycles(graph: TaskGraph) -> int:
    """Length of the pure data-dependency critical path, ignoring resource contention.

    Useful as an idealized lower bound: a schedule can never beat the critical
    path even with infinitely many compute units.
    """
    graph.validate()
    finish: list[int] = []
    for deps, cycles in zip(graph.deps, graph.cycles):
        finish.append(max((finish[d] for d in deps), default=0) + cycles)
    return max(finish, default=0)
