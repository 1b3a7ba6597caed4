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

Call a task's *ready* time the latest finish of its dependencies.  Only the
DMA's order depends on what else runs, so only the DMA is event-driven:

* a barrier (no resource) is resolved as soon as its last dependency is: it
  starts and finishes at its ready time;
* a MAC/VEC task is resolved as soon as its last dependency and its unit's
  previous task in program order are: it starts at max(ready, the unit's
  previous finish);
* when nothing more can resolve, the DMA serves, among the descriptors whose
  dependencies are resolved, the one with the smallest (ready, task id), at
  max(ready, the DMA's previous finish).

A descriptor ready at cycle 0 precedes every other, so the engine serves
those as it meets them, in program order, while it walks the graph in
program order; the walk resolves every task that does not wait on a later
DMA serve.  What waits is resolved as the DMA serves the rest.

The walk stops at a barrier that cannot resolve yet, and the DMA serves
everything before it.  If that barrier closed its phase — nothing before it
is left waiting and the DMA is free by the barrier's finish F — every
descriptor after it that waits on it is ready at F or later, and one ready
at F precedes every other, so the walk goes on from F exactly as it starts
from cycle 0.  If the barrier did not close its phase, or the next phase's
walk meets a descriptor ready before F, the engine schedules the graph again
in one walk that no barrier stops.  Every stage or round barrier of
Layer-Wise, Soft-Pipe and TileFlow that stops the walk closes its phase;
FLAT, MAS and FuseMax emit no barrier.
``tests/sim_oracle.py`` keeps the event-driven list scheduler this replaced
(dispatch the smallest (start, task id) over all resources), and the
differential tests require both to agree on every task.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.sim.tasks import TaskGraph
from repro.sim.trace import Trace

__all__ = ["simulate_graph", "critical_path_cycles", "OUT_OF_ORDER_RESOURCES"]

#: Resource names served out of order (readiness order) rather than program
#: order.  The engine serves one such resource.
OUT_OF_ORDER_RESOURCES: tuple[str, ...] = ("dma",)


def simulate_graph(graph: TaskGraph) -> Trace:
    """Schedule ``graph`` and return the resulting :class:`Trace`.

    Every dependency id of ``graph`` names an earlier task: the graph's
    writers check that (see :meth:`TaskGraph.validate`).
    """
    if len(graph) == 0:
        return Trace(graph, [], [])
    trace = _schedule(graph, phased=True)
    return trace if trace is not None else _schedule(graph, phased=False)


def _schedule(graph: TaskGraph, phased: bool) -> Trace | None:
    """The schedule of a non-empty ``graph``.

    With ``phased``, the walk stops at each barrier that cannot resolve yet,
    and ``None`` means the graph has to be scheduled in one walk: a barrier
    did not close its phase, a phase met a descriptor ready before its start,
    or a task never resolved.
    """
    n = len(graph)
    cycles = graph.cycles
    resource_of = graph.resource_ids
    all_deps = graph.deps
    names = graph.resource_names
    num_resources = len(names)
    # Resource id 0 is "no resource": its tasks are barriers.  The engine
    # serves one out-of-order resource, the DMA (id -1 when no task uses it).
    (dma_name,) = OUT_OF_ORDER_RESOURCES
    dma = names.index(dma_name) if dma_name in names else -1

    # An unresolved task finishes at ``never``, beyond any real finish.
    never = sum(cycles) + 1
    start = [0] * n
    finish = [never] * n
    unit_free = [0] * num_resources
    # The tasks of a MAC/VEC unit whose head waits, in program order.
    queued: list[deque[int] | None] = [None] * num_resources
    # A waiting task's unresolved dependencies, and the tasks waiting on each.
    missing = [0] * n
    waiters: dict[int, list[int]] = {}
    served: list[tuple[int, int]] = []  # (ready, tid) of released descriptors
    dma_free = 0
    # The finish of the barrier that closed the last phase, and the task after it.
    phase_start = 0
    phase_first = 0

    def wait(tid: int, deps: tuple[int, ...]) -> None:
        count = 0
        for dep in deps:
            if finish[dep] == never:
                found = waiters.get(dep)
                if found is None:
                    waiters[dep] = [tid]
                else:
                    found.append(tid)
                count += 1
        missing[tid] = count

    while True:
        # The walk in program order.  Nothing it leaves waiting resolves
        # before the walk ends: each waits, directly or not, on a descriptor
        # ready after the phase's start.  A dependency listed twice is
        # counted, and released, twice.
        barrier = n
        for tid in range(phase_first, n):
            rid = resource_of[tid]
            deps = all_deps[tid]
            # A plain loop: ``max(map(...))`` costs several times as much on
            # the short dependency tuples that builders emit.
            ready = 0
            for dep in deps:
                if finish[dep] > ready:
                    ready = finish[dep]
            if rid == dma:
                # A descriptor ready before the phase's start sorts among an
                # earlier phase's descriptors: the graph needs one walk.
                if ready == never:
                    wait(tid, deps)
                elif ready > phase_start:
                    heappush(served, (ready, tid))
                elif ready < phase_start:
                    return None
                else:
                    start[tid] = dma_free
                    finish[tid] = dma_free = dma_free + cycles[tid]
                continue
            unit = queued[rid]
            if unit is not None:
                unit.append(tid)
                continue
            if ready == never:
                wait(tid, deps)
                if rid:
                    queued[rid] = deque((tid,))
                elif phased:
                    barrier = tid
                    break
                continue
            if rid:
                if ready < unit_free[rid]:
                    ready = unit_free[rid]
                unit_free[rid] = finish[tid] = ready + cycles[tid]
            else:
                finish[tid] = ready + cycles[tid]
            start[tid] = ready

        # The DMA serves the rest in (ready, tid) order; each serve resolves
        # what waited on it, which may release more descriptors.
        while served:
            ready, tid = heappop(served)
            if ready < dma_free:
                ready = dma_free
            start[tid] = ready
            finish[tid] = dma_free = ready + cycles[tid]
            woken = waiters.pop(tid, None)
            while woken:
                tid = woken.pop()
                missing[tid] -= 1
                if missing[tid]:
                    continue
                rid = resource_of[tid]
                ready = 0
                for dep in all_deps[tid]:
                    if finish[dep] > ready:
                        ready = finish[dep]
                if rid == dma:
                    heappush(served, (ready, tid))
                    continue
                if not rid:
                    start[tid] = ready
                    finish[tid] = ready + cycles[tid]
                    released = waiters.pop(tid, None)
                    if released:
                        woken += released
                    continue
                # The head of its unit: resolve it and the unit's queue behind
                # it up to the next task that waits.
                unit = queued[rid]
                while True:
                    if ready < unit_free[rid]:
                        ready = unit_free[rid]
                    start[tid] = ready
                    unit_free[rid] = finish[tid] = ready + cycles[tid]
                    released = waiters.pop(tid, None)
                    if released:
                        woken += released
                    unit.popleft()
                    if not unit:
                        queued[rid] = None
                        break
                    tid = unit[0]
                    deps = all_deps[tid]
                    ready = 0
                    for dep in deps:
                        if finish[dep] > ready:
                            ready = finish[dep]
                    if ready == never:
                        wait(tid, deps)
                        break

        if barrier == n:
            break
        # The barrier closed its phase if nothing before it waits and the DMA
        # is free by its finish; the next phase starts at that finish.
        phase_start = finish[barrier]
        if waiters or dma_free > phase_start:
            return None
        dma_free = phase_start
        phase_first = barrier + 1

    if waiters:
        if phased:
            return None
        unscheduled = [t for t in range(n) if finish[t] == never]
        raise RuntimeError(
            "scheduling deadlock: no issuable task among "
            f"{len(unscheduled)} unscheduled "
            f"(first: {[graph.task_name(t) for t in unscheduled[:5]]})"
        )
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
