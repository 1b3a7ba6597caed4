"""Host-speed calibration for timings taken on a shared, noisy host.

On a small shared VM the speed of one vCPU drifts by a third or more within
seconds as neighbours come and go, in wall time and process CPU time alike.
To keep two runs of the same code comparable, a timed region is cut into
segments of about :data:`SEGMENT_S`; between segments, outside the region, a
fixed pure-Python calibration kernel runs, and each segment's time is scaled
by how much slower or faster than nominal the kernel ran around it::

    scaled seconds = measured seconds x REFERENCE_CHUNK_S / chunk seconds

The kernel does the kind of work the simulator does (small objects, list and
dict traffic, integer arithmetic) and never touches the program, so a change
to the program moves scaled times as it moves measured ones.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Seconds one kernel chunk takes on the reference host (2-vCPU x86_64 VM,
#: CPython 3.11) when nothing contends for it.  Scaled times are host seconds
#: on that reference host.
REFERENCE_CHUNK_S = 0.0056
#: Kernel chunks per calibration; their median is the host speed.
CHUNKS = 3
#: A timed region is calibrated again after about this many seconds of it.
SEGMENT_S = 0.5
_ITEMS = 10000


class _Item:
    __slots__ = ("tid", "resource", "cycles")

    def __init__(self, tid: int, resource: int, cycles: int) -> None:
        self.tid = tid
        self.resource = resource
        self.cycles = cycles


def _kernel() -> int:
    items = []
    by_resource: dict[int, list[_Item]] = {}
    for i in range(_ITEMS):
        item = _Item(i, i % 7, (i * 31) % 101 + 1)
        items.append(item)
        by_resource.setdefault(item.resource, []).append(item)
    finish: dict[int, int] = {}
    for item in items:
        finish[item.resource] = max(finish.get(item.resource, 0), item.tid) + item.cycles
    return sum(finish.values()) + len(by_resource)


def chunk_seconds() -> float:
    """Median seconds of :data:`CHUNKS` kernel chunks, measured now.

    The garbage collector is off while a chunk runs, so its timing does not
    depend on how many objects the program left alive.
    """
    timings = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CHUNKS):
            start = time.perf_counter()
            _kernel()
            timings.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(timings)


class ScaledTimer:
    """Measured and scaled seconds of one region, timed in pieces.

    The caller adds the seconds of each piece of the region as it completes;
    once a segment of at least :data:`SEGMENT_S` has gathered, the kernel runs
    and the segment is scaled by the mean of the two calibrations around it.
    Call :meth:`flush` when the region has ended.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.scaled = 0.0
        self._pending = 0.0
        self._before = chunk_seconds()

    def add(self, elapsed: float) -> None:
        self._pending += elapsed
        if self._pending >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        after = chunk_seconds()
        self.seconds += self._pending
        self.scaled += self._pending * REFERENCE_CHUNK_S / ((self._before + after) / 2)
        self._pending = 0.0
        self._before = after
