"""Task and task-graph definitions for the tile-granularity simulator.

A :class:`TaskGraph` stores its tasks as columns (Python lists indexed by task
id): kind, resource id, cycles, dependency ids, the eight counters, tags and
the name.  Builders fill the columns through :meth:`TaskGraph.append`, or
:meth:`TaskGraph.extend` for a stream of tasks on one resource, and copy a
repeated run of rows with :meth:`TaskGraph.stamp`; a :class:`Task` is a view
of one row, made only when a caller iterates or indexes the graph.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Sequence


class TaskKind(str, Enum):
    """Kind of a tile-level task."""

    LOAD = "load"          # DRAM -> L1 DMA transfer
    STORE = "store"        # L1 -> DRAM DMA transfer
    MATMUL = "matmul"      # tile MatMul on the MAC unit
    SOFTMAX = "softmax"    # row-wise softmax tile on the VEC unit
    VECOP = "vecop"        # generic element-wise kernel on the VEC unit
    BARRIER = "barrier"    # zero-cost synchronization marker


def mac_resource(core: int) -> str:
    """Resource name of the MAC unit of ``core``."""
    return f"core{core}.mac"


def vec_resource(core: int) -> str:
    """Resource name of the VEC unit of ``core``."""
    return f"core{core}.vec"


def dma_resource() -> str:
    """Resource name of the shared DRAM DMA channel.

    The channel is a single resource (the paper's 30 GB/s DRAM interface) but,
    unlike the in-order compute units, the scheduling engine services its
    descriptors out of order: a store whose data is not yet produced never
    blocks an independent load that was enqueued later (see
    :func:`repro.sim.engine.simulate_graph`).
    """
    return "dma"


#: The eight access/operation counters of a task, in column order (the field
#: order of :class:`repro.hardware.energy.AccessCounters`).
COUNTERS: tuple[str, ...] = (
    "dram_bytes_read",
    "dram_bytes_written",
    "l1_bytes_read",
    "l1_bytes_written",
    "l0_bytes_read",
    "l0_bytes_written",
    "mac_ops",
    "vec_ops",
)

#: The counters of a task that moves and computes nothing (a barrier).
_NO_COUNTERS: tuple[int, ...] = (0,) * len(COUNTERS)


def counter_tuple(**counters: int) -> tuple[int, ...]:
    """The eight counters in column order, checked to be known and non-negative."""
    unknown = set(counters) - set(COUNTERS)
    if unknown:
        raise TypeError(f"unknown counters {sorted(unknown)}")
    values = tuple(int(counters.get(name, 0)) for name in COUNTERS)
    for name, value in zip(COUNTERS, values):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return values


class _Counter:
    """One of a :class:`Task`'s eight counters, read from its graph's column."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.index = COUNTERS.index(name)

    def __get__(self, task: Task | None, owner: type | None = None):
        if task is None:
            return self
        return task.graph.counters[task.tid][self.index]


class Task:
    """View of one tile-level task of a :class:`TaskGraph`.

    Attributes
    ----------
    tid:
        Integer id, unique within a graph (its row in the columns).
    name:
        Human-readable label (used in traces and debugging).
    kind:
        The :class:`TaskKind`.
    resource:
        Resource the task occupies, e.g. ``"core0.mac"``, ``"core1.vec"``,
        ``"dma"``; ``""`` for zero-cost barriers.
    cycles:
        Occupancy of the resource in cycles.
    deps:
        Task ids that must finish before this task may start.  Assigning it
        rewrites the graph's column (tests drop a dependency this way), and
        each id must name an earlier task.
    dram_bytes_read / dram_bytes_written:
        Off-chip traffic attributed to this task (normally only LOAD/STORE).
    l1_bytes_read / l1_bytes_written / l0_bytes_read / l0_bytes_written:
        On-chip traffic attributed to this task.
    mac_ops / vec_ops:
        Arithmetic work attributed to this task.
    tags:
        Free-form metadata (round index, operand names, ...), used by analyses
        such as the golden replay; a new dict on every read.
    """

    __slots__ = ("graph", "tid")

    dram_bytes_read = _Counter()
    dram_bytes_written = _Counter()
    l1_bytes_read = _Counter()
    l1_bytes_written = _Counter()
    l0_bytes_read = _Counter()
    l0_bytes_written = _Counter()
    mac_ops = _Counter()
    vec_ops = _Counter()

    def __init__(self, graph: TaskGraph, tid: int) -> None:
        self.graph = graph
        self.tid = tid

    @property
    def name(self) -> str:
        return self.graph.task_name(self.tid)

    @property
    def kind(self) -> TaskKind:
        return self.graph.kinds[self.tid]

    @property
    def resource(self) -> str:
        return self.graph.resource_names[self.graph.resource_ids[self.tid]]

    @property
    def cycles(self) -> int:
        return self.graph.cycles[self.tid]

    @property
    def deps(self) -> tuple[int, ...]:
        return self.graph.deps[self.tid]

    @deps.setter
    def deps(self, deps: Iterable[int]) -> None:
        ids = tuple(int(d) for d in deps)
        for dep in ids:
            if not 0 <= dep < self.tid:
                raise ValueError(f"task {self.name!r}: dependency id {dep} is not an earlier task")
        self.graph.deps[self.tid] = ids

    @property
    def tags(self) -> dict[str, object]:
        return self.graph.task_tags(self.tid)

    def __repr__(self) -> str:
        return f"Task({self.tid}, {self.name!r}, {self.kind.value}, {self.resource!r})"


class TaskGraph:
    """A DAG of tile-level tasks with per-resource program order, kept as columns.

    Tasks are added in *program order*; for tasks sharing a resource this
    insertion order is the order in which the resource executes them, exactly
    like a statically scheduled instruction stream per engine.

    Columns, indexed by task id: ``kinds``, ``resource_ids`` (into
    ``resource_names``, where id 0 is ``""``, no resource), ``cycles``,
    ``deps`` (tuples of earlier task ids), ``counters`` (tuples of the eight
    :data:`COUNTERS`), and the names and tags, both kept unformatted until
    asked for (see :meth:`task_name` and :meth:`task_tags`), with the shift a
    stamped row formats them with (see :meth:`stamp`).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.kinds: list[TaskKind] = []
        self.resource_ids: list[int] = []
        self.cycles: list[int] = []
        self.deps: list[tuple[int, ...]] = []
        self.counters: list[tuple[int, ...]] = []
        self._tags: list[dict[str, object] | tuple] = []
        self._names: list[str | tuple] = []
        self._shifts: list[int] = []
        self.resource_names: list[str] = [""]
        self._resource_index: dict[str, int] = {"": 0}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def resource_id(self, resource: str) -> int:
        """Integer id of ``resource`` in this graph (registered on first use)."""
        rid = self._resource_index.get(resource)
        if rid is None:
            rid = self._resource_index[resource] = len(self.resource_names)
            self.resource_names.append(resource)
        return rid

    def append(
        self,
        kind: TaskKind,
        resource_id: int,
        cycles: int,
        deps: tuple[int, ...],
        counters: tuple[int, ...],
        name: str | tuple,
        tags: dict[str, object] | tuple,
    ) -> int:
        """Append one task and return its id.

        The emitters' path: ``resource_id`` comes from :meth:`resource_id` and
        ``cycles``/``counters`` from an already validated
        :class:`~repro.core.costs.TaskCost`.  ``name`` is a string or a tuple
        ``(format, *parts)`` that :meth:`task_name` formats when asked, and
        ``tags`` a dict or a tuple ``(make, *parts)`` that :meth:`task_tags`
        calls.  Only the dependency ids are checked here.
        """
        tid = len(self.kinds)
        for dep in deps:
            if not 0 <= dep < tid:
                raise ValueError(f"task {self._format(name)!r}: unknown dependency id {dep}")
        self.kinds.append(kind)
        self.resource_ids.append(resource_id)
        self.cycles.append(cycles)
        self.deps.append(deps)
        self.counters.append(counters)
        self._tags.append(tags)
        self._names.append(name)
        self._shifts.append(0)
        return tid

    def extend(
        self,
        kind: TaskKind,
        resource_id: int,
        cycles: Sequence[int],
        counters: Sequence[tuple[int, ...]],
        deps: Sequence[tuple[int, ...]],
        names: Sequence[str | tuple],
        tags: Sequence[dict[str, object] | tuple],
    ) -> int:
        """Append a stream of tasks of one kind on one resource; return the first id.

        Row ``i`` of the stream takes entry ``i`` of every sequence, as
        :meth:`append` takes its arguments.  Every dependency id must name a
        task appended before the stream.
        """
        first = len(self.kinds)
        count = len(deps)
        if not len(cycles) == len(counters) == len(names) == len(tags) == count:
            raise ValueError("a task stream needs cycles, counters, a name and tags per task")
        lowest = min(chain.from_iterable(deps), default=0)
        if lowest < 0 or max(chain.from_iterable(deps), default=-1) >= first:
            for name, row in zip(names, deps):
                for dep in row:
                    if not 0 <= dep < first:
                        name = self._format(name)
                        raise ValueError(f"task {name!r}: unknown dependency id {dep}")
        self.kinds += [kind] * count
        self.resource_ids += [resource_id] * count
        self.cycles += cycles
        self.deps += deps
        self.counters += counters
        self._tags += tags
        self._names += names
        self._shifts += [0] * count
        return first

    def stamp(self, first: int, stop: int, fixed_below: int = 0, shift: int = 0) -> int:
        """Append a copy of rows ``[first, stop)`` and return the id of the first copy.

        Every copy moves by ``offset``, the new first id minus ``first``: each
        dependency at or above ``fixed_below`` moves by it (one inside the
        range lands on the matching copy), and each one below stays, such as
        the barrier that closed an earlier stage.  Kinds, resources, cycles
        and counters are the template rows'.  Names and tags keep the
        template rows' parts, and a copy formats them with its template's
        shift plus ``shift``: their make-function gets it as the ``shift``
        keyword (the emitters of :mod:`repro.core.emit` move the block they
        name by it).  Copies are valid by construction, so nothing is checked
        per row.
        """
        new_first = len(self.kinds)
        if not 0 <= fixed_below <= first <= stop <= new_first:
            raise ValueError(
                f"cannot stamp rows [{first}, {stop}) fixed below {fixed_below} "
                f"in a graph of {new_first} tasks"
            )
        self.kinds += self.kinds[first:stop]
        self.resource_ids += self.resource_ids[first:stop]
        self.cycles += self.cycles[first:stop]
        self.counters += self.counters[first:stop]
        self._tags += self._tags[first:stop]
        self._names += self._names[first:stop]
        self._shifts += [moved + shift for moved in self._shifts[first:stop]]
        offset = new_first - first
        rows = self.deps[first:stop]
        if fixed_below:
            self.deps += [
                tuple([d + offset if d >= fixed_below else d for d in row]) for row in rows
            ]
        else:
            self.deps += [tuple([d + offset for d in row]) for row in rows]
        return new_first

    def add(
        self,
        name: str | tuple,
        kind: TaskKind,
        resource: str,
        cycles: int,
        deps: Iterable[int] | Iterable[Task] = (),
        **counters: object,
    ) -> Task:
        """Append a task and return it.  ``deps`` may be task ids or tasks."""
        tags = dict(counters.pop("tags", {}))  # type: ignore[call-overload]
        cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"task {name!r}: cycles must be >= 0")
        try:
            values = counter_tuple(**counters)  # type: ignore[arg-type]
        except ValueError as error:
            raise ValueError(f"task {name!r}: {error}") from None
        dep_ids = tuple(d.tid if isinstance(d, Task) else int(d) for d in deps)
        tid = self.append(kind, self.resource_id(resource), cycles, dep_ids, values, name, tags)
        return Task(self, tid)

    def add_barrier(self, name: str | tuple, deps: Iterable[int] | Iterable[Task]) -> Task:
        """Add a zero-cost synchronization task depending on ``deps``.

        ``name`` is a string or lazy parts, as :meth:`append` takes it.  Task
        ids go to :meth:`append` as they are, since a stage or round barrier
        waits on every task of its stage; tasks are turned into their ids.
        """
        ids = tuple(deps)
        if not set(map(type, ids)) <= {int}:
            ids = tuple([d.tid if isinstance(d, Task) else int(d) for d in ids])
        return Task(self, self.append(TaskKind.BARRIER, 0, 0, ids, _NO_COUNTERS, name, {}))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Task]:
        return (Task(self, tid) for tid in range(len(self.kinds)))

    def __getitem__(self, tid: int) -> Task:
        return Task(self, range(len(self.kinds))[tid])

    @property
    def tasks(self) -> list[Task]:
        """All tasks in program order."""
        return list(self)

    @staticmethod
    def _format(name: str | tuple, shift: int = 0) -> str:
        if isinstance(name, str):
            return name
        return name[0](*name[1:], shift=shift) if shift else name[0](*name[1:])

    def task_name(self, tid: int) -> str:
        """Name of task ``tid``, formatted from its parts on each call."""
        return self._format(self._names[tid], self._shifts[tid])

    def task_tags(self, tid: int) -> dict[str, object]:
        """Tags of task ``tid``, a new dict made from its parts on each call."""
        tags = self._tags[tid]
        if isinstance(tags, dict):
            return dict(tags)
        shift = self._shifts[tid]
        return tags[0](*tags[1:], shift=shift) if shift else tags[0](*tags[1:])

    def resources(self) -> list[str]:
        """Distinct non-empty resources referenced by the graph, in first-use order."""
        return [self.resource_names[rid] for rid in dict.fromkeys(self.resource_ids) if rid]

    def ids_on(self, resource: str) -> list[int]:
        """Ids of the tasks bound to ``resource``, in program order."""
        rid = self._resource_index.get(resource)
        return [tid for tid, r in enumerate(self.resource_ids) if r == rid]

    def tasks_on(self, resource: str) -> list[Task]:
        """Tasks bound to ``resource``, in program order."""
        return [Task(self, tid) for tid in self.ids_on(resource)]

    def by_kind(self, kind: TaskKind) -> list[Task]:
        """Tasks of a given kind, in program order."""
        return [Task(self, tid) for tid, k in enumerate(self.kinds) if k == kind]

    def counter_totals(self) -> tuple[int, ...]:
        """Sum of each of the eight :data:`COUNTERS` over all tasks.

        Tasks share a few distinct counter tuples, so each is added once,
        times the number of tasks that carry it.
        """
        totals = [0] * len(COUNTERS)
        for row, count in Counter(self.counters).items():
            for index, value in enumerate(row):
                totals[index] += value * count
        return tuple(totals)

    def validate(self) -> None:
        """Check structural invariants (dependency ids in range, acyclic by construction).

        Every writer of the ``deps`` column checks its ids already
        (:meth:`append`, :meth:`extend`, :meth:`add`, the :attr:`Task.deps`
        setter; :meth:`stamp` copies checked rows), so the engine does not
        call this; :func:`~repro.sim.engine.critical_path_cycles` and the
        tests' oracle engine do.
        """
        for tid, deps in enumerate(self.deps):
            for dep in deps:
                if not 0 <= dep < tid:
                    raise ValueError(f"task {self.task_name(tid)!r} depends on a later task {dep}")

    def total_cycles_lower_bound(self) -> int:
        """Max over resources of the summed occupancy — a lower bound on the makespan."""
        totals = [0] * len(self.resource_names)
        for rid, cycles in zip(self.resource_ids, self.cycles):
            totals[rid] += cycles
        return max(totals[1:], default=0)
