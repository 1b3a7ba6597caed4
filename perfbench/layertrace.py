"""Per-layer timing wrappers installed from outside the program.

A :class:`LayerTracer` wraps public entry points of the sweep path (module
functions or class methods) and records, per wrapped function, its call
count, the calls that raised, total time and self time.  Self time is a
call's duration minus the durations of the wrapped calls nested directly
inside it, so the self times of all calls add up to the durations of the
outermost calls by construction.  Whatever the sweep spends outside every
outermost call is reported as unattributed; whether the wrappers saw the
calls the sweep makes is checked by the caller, from the call counts.

The wrappers exist only inside :func:`installed`; on exit every patched
attribute is restored to the very object it held before, so untraced runs
never execute them.  The tracer keeps one call stack, which is correct because
the benchmark pins the sweep to one process and one search worker.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Percentiles tried for a ``*_tail`` metric, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class FunctionStats:
    """Timing of one wrapped function."""

    layer: str
    calls: int = 0
    #: Calls that raised (they are in ``calls`` too).
    errors: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` counted under ``layer``.

    ``on_result(args, result)`` runs after the call's clock has stopped, so a
    hook's own cost lands in the caller's self time, not in this function's.
    """

    layer: str
    owner: Any
    attr: str
    on_result: Callable[[tuple, Any], None] | None = None

    @property
    def key(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


class LayerTracer:
    """Call counts, total and self time of wrapped functions."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.functions: dict[str, FunctionStats] = {}
        #: Summed duration of outermost wrapped calls (no wrapped caller).
        self.top_ns = 0
        self._stack: list[list[int]] = []

    def wrap(self, layer: str, key: str, fn: Callable, on_result=None) -> Callable:
        stats = self.functions.setdefault(key, FunctionStats(layer))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = [0]
            self._stack.append(nested)
            start = self.clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.top_ns += elapsed
                stats.calls += 1
                stats.errors += raised
                stats.total_ns += elapsed
                stats.self_ns += elapsed - nested[0]
                stats.durations_ns.append(elapsed)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds summed per layer."""
        out: dict[str, float] = {}
        for stats in self.functions.values():
            out[stats.layer] = out.get(stats.layer, 0.0) + stats.self_ns / 1e9
        return out

    def stats(self, key: str) -> FunctionStats:
        return self.functions.get(key) or FunctionStats("?")


@contextmanager
def installed(tracer: LayerTracer, targets: list[Target]) -> Iterator[LayerTracer]:
    """Patch every target with a timing wrapper; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            original = vars(target.owner)[target.attr]
            saved.append((target.owner, target.attr, original))
            wrapped = tracer.wrap(
                target.layer, target.key, getattr(target.owner, target.attr), target.on_result
            )
            setattr(target.owner, target.attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def median_and_tail(values: list[float]) -> tuple[float, float, float]:
    """``(p50, tail, tail percentile)``.

    The tail is the highest of :data:`TAIL_PERCENTILES` with at least ten
    samples beyond it; with fewer than twenty samples it falls back to p50.
    An empty list gives zeros.
    """
    if not values:
        return 0.0, 0.0, 50.0
    ordered = sorted(values)
    n = len(ordered)
    chosen = next(p for p in TAIL_PERCENTILES if p == 50.0 or n * (1 - p / 100.0) >= 10)
    return nearest_rank(ordered, 50.0), nearest_rank(ordered, chosen), chosen
