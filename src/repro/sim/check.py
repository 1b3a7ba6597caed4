"""Schedule checks: does a simulated trace obey the engine's invariants?

:func:`check_schedule` reads a graph and its :class:`~repro.sim.trace.Trace`
and raises :class:`ScheduleError` at the first violation, naming the task,
its resource and the invariant:

* **duration** — every task finishes ``cycles`` after it starts;
* **dependency** — every dependency finishes before its dependent starts;
* **one task at a time** — no resource runs two tasks at once;
* **program order** — in-order units (every resource but the out-of-order
  DMA) start their tasks in the order the graph lists them.

It then checks that every start is the one the engine's rule gives, which
fixes the whole schedule.  With a task's *ready* time the latest finish of
its dependencies (0 without any):

* **barrier start** — a barrier starts at its ready time;
* **in-order start** — a MAC/VEC task starts at max(ready, the finish of its
  unit's previous task in program order);
* **DMA order** — the DMA runs its tasks in (ready, task id) order, each at
  max(ready, the DMA's previous finish).

These rules name no engine, so they check any engine that claims to
schedule like this one.  Residency (what is in L1, and whether it fits) is
not checked here.
"""

from __future__ import annotations

from repro.sim.engine import OUT_OF_ORDER_RESOURCES
from repro.sim.tasks import TaskGraph
from repro.sim.trace import Trace

__all__ = ["ScheduleError", "check_schedule"]


class ScheduleError(RuntimeError):
    """A simulated schedule breaks one of the engine's invariants."""


def check_schedule(graph: TaskGraph, trace: Trace) -> None:
    """Raise :class:`ScheduleError` unless ``trace`` is a valid schedule of ``graph``."""
    start, finish = trace.start, trace.finish
    if len(start) != len(graph) or len(finish) != len(graph):
        raise ScheduleError(
            f"trace has {len(start)} starts and {len(finish)} finishes for {len(graph)} tasks"
        )

    def task(tid: int) -> str:
        return f"task {tid} {graph.task_name(tid)!r} on {graph[tid].resource or 'no resource'!r}"

    for tid, (cycles, deps) in enumerate(zip(graph.cycles, graph.deps)):
        if finish[tid] != start[tid] + cycles:
            raise ScheduleError(
                f"duration: {task(tid)} runs [{start[tid]}, {finish[tid]}) "
                f"but takes {cycles} cycles"
            )
        for dep in deps:
            if finish[dep] > start[tid]:
                raise ScheduleError(
                    f"dependency: {task(tid)} starts at cycle {start[tid]} before its "
                    f"dependency {task(dep)} finishes at cycle {finish[dep]}"
                )

    for resource in graph.resources():
        in_program_order = graph.ids_on(resource)
        by_start = sorted(in_program_order, key=lambda t: (start[t], finish[t]))
        for before, after in zip(by_start, by_start[1:]):
            if start[after] < finish[before]:
                raise ScheduleError(
                    f"one task at a time: {task(after)} starts at cycle {start[after]} while "
                    f"task {before} {graph.task_name(before)!r} runs [{start[before]}, "
                    f"{finish[before]}) on the same resource"
                )
        if resource in OUT_OF_ORDER_RESOURCES:
            continue
        for before, after in zip(in_program_order, in_program_order[1:]):
            if start[after] < start[before]:
                raise ScheduleError(
                    f"program order: {task(after)} starts at cycle {start[after]}, before "
                    f"task {before} {graph.task_name(before)!r}, which precedes it in "
                    f"program order, starts at cycle {start[before]}"
                )

    ready = [max(map(finish.__getitem__, deps), default=0) for deps in graph.deps]
    for tid, rid in enumerate(graph.resource_ids):
        if not rid and start[tid] != ready[tid]:
            raise ScheduleError(
                f"barrier start: {task(tid)} starts at cycle {start[tid]}, not at its "
                f"ready cycle {ready[tid]}"
            )
    for resource in graph.resources():
        ids = graph.ids_on(resource)
        in_order = resource not in OUT_OF_ORDER_RESOURCES
        if not in_order:
            ids.sort(key=lambda t: (ready[t], t))
        free = 0
        for position, tid in enumerate(ids):
            expected = max(ready[tid], free)
            if start[tid] != expected:
                if in_order:
                    raise ScheduleError(
                        f"in-order start: {task(tid)} starts at cycle {start[tid]}, but ready "
                        f"at cycle {ready[tid]} after its unit's previous task finishes at "
                        f"cycle {free}, it starts at cycle {expected}"
                    )
                ahead = [t for t in ids[position + 1:] if start[t] < start[tid]]
                if ahead:
                    first = min(ahead, key=lambda t: (start[t], t))
                    raise ScheduleError(
                        f"DMA order: {task(first)}, ready at cycle {ready[first]}, runs at "
                        f"cycle {start[first]}, ahead of task {tid} {graph.task_name(tid)!r}, "
                        f"ready at cycle {ready[tid]}, which precedes it in (ready, task id) "
                        "order"
                    )
                raise ScheduleError(
                    f"DMA order: {task(tid)} starts at cycle {start[tid]}, but ready at cycle "
                    f"{ready[tid]} after the DMA's previous task finishes at cycle {free}, it "
                    f"starts at cycle {expected}"
                )
            free = finish[tid]
