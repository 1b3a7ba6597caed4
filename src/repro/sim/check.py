"""Schedule checks: does a simulated trace obey the engine's invariants?

:func:`check_schedule` reads a graph and its :class:`~repro.sim.trace.Trace`
and raises :class:`ScheduleError` at the first violation, naming the task,
its resource and the invariant:

* **duration** — every task finishes ``cycles`` after it starts;
* **dependency** — every dependency finishes before its dependent starts;
* **one task at a time** — no resource runs two tasks at once;
* **program order** — in-order units (every resource but the out-of-order
  DMA) start their tasks in the order the graph lists them.

Residency (what is in L1, and whether it fits) is not checked here.
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
