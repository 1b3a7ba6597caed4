"""Cross-process span tracing for the sweep → search → store → service path.

Tracing answers "where did this 40-second sweep go?": every instrumented
operation records a *span* — name, layer, wall-clock start, duration, and a
``trace_id``/``span_id``/``parent_id`` triple that stitches spans into trees
across three kinds of boundary:

* **threads** — each thread keeps a span stack, so nested ``span()`` blocks
  parent automatically;
* **process pools** — a picklable :class:`TraceContext` rides inside each
  ``PairSpec``, and the pool worker passes it as the explicit ``parent`` of
  its pair span;
* **the wire** — ``HttpStore`` sends the active context as the
  ``X-MAS-Trace`` header and ``StoreService`` adopts it as the parent of
  its ``service.request`` spans.

Spans are appended to a JSONL file (one JSON object per line, written with a
single ``write()`` so concurrent processes interleave whole lines, never
fragments).  Tracing is **off by default**: it activates only when
``MAS_TRACE=<path>`` is set (or :func:`configure` is called), and the
disabled fast path is one ``None`` check plus a shared no-op context
manager.  Because span/trace IDs come from ``os.urandom`` — never the
seeded simulation RNG — and instrumentation only *observes*, sweep results
are bit-identical with tracing on.

A tracer, made from ``MAS_TRACE`` or by :func:`configure`, writes and
flushes each span as it closes (crash-safe).  Spans time operations, not
functions: for function hotspots run a ``--jobs 1`` sweep under
``python -m cProfile``.

``mas-attention obs summarize|convert|validate`` consume the JSONL output;
:mod:`repro.obs.export` converts it to Chrome trace-event JSON for
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "TRACE_HEADER",
    "Span",
    "TraceContext",
    "Tracer",
    "configure",
    "current_context",
    "get_tracer",
    "reset",
    "span",
]

#: HTTP header carrying ``"<trace_id>-<span_id>"`` from client to service.
TRACE_HEADER = "X-MAS-Trace"

_TRACE_ID_BYTES = 8  # 16 hex chars
_SPAN_ID_BYTES = 4  # 8 hex chars


def _new_id(nbytes: int) -> str:
    # os.urandom, not the seeded experiment RNG: IDs must never perturb
    # (or be perturbed by) the deterministic simulation stream.
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """The picklable, wire-able identity of one span: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str

    def to_header(self) -> str:
        return f"{self.trace_id}-{self.span_id}"

    @classmethod
    def from_header(cls, value: str | None) -> "TraceContext | None":
        """Parse an ``X-MAS-Trace`` value; ``None`` for missing/malformed input."""
        if not value:
            return None
        trace_id, sep, span_id = value.strip().partition("-")
        if not sep or len(trace_id) != 2 * _TRACE_ID_BYTES or len(span_id) != 2 * _SPAN_ID_BYTES:
            return None
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """A live span: carries its :class:`TraceContext` and collects attributes."""

    __slots__ = ("name", "layer", "context", "parent_id", "attrs", "start_s", "_start_pc")

    def __init__(self, name: str, layer: str, context: TraceContext,
                 parent_id: str | None, attrs: dict[str, Any]) -> None:
        self.name = name
        self.layer = layer
        self.context = context
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = time.time()
        self._start_pc = time.perf_counter()

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (HTTP status, hit/miss, ...)."""
        self.attrs.update(attrs)


class _NullSpan:
    """Stands in for :class:`Span` when tracing is disabled."""

    __slots__ = ()
    context = None

    def set(self, **attrs: Any) -> None:
        del attrs


NULL_SPAN = _NullSpan()
#: ``nullcontext`` is stateless and re-enterable, so one instance serves
#: every disabled ``span()`` call — the off-path allocates nothing.
_NULL_CONTEXT = nullcontext(NULL_SPAN)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Span] = []


_STATE = _ThreadState()


class Tracer:  # mas-lint: disable=fork-safety(per-process singleton; forked children mint a fresh Tracer via the PID guard in get_tracer instead of unpickling or reusing this one)
    """Appends completed spans to a JSONL file.

    The file is opened in append mode and each span is emitted as one
    ``write()`` of one full line, flushed at once, which POSIX appends
    atomically enough for concurrent sweep workers sharing a path.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")
        self._closed = False

    @contextmanager
    def span(self, name: str, layer: str = "app",
             parent: TraceContext | None = None, **attrs: Any) -> Iterator[Span]:
        """Open a span; parent defaults to the innermost live span, else
        none (a new root/trace)."""
        if parent is None and _STATE.stack:
            parent = _STATE.stack[-1].context
        trace_id = parent.trace_id if parent is not None else _new_id(_TRACE_ID_BYTES)
        context = TraceContext(trace_id=trace_id, span_id=_new_id(_SPAN_ID_BYTES))
        sp = Span(name, layer, context, parent.span_id if parent is not None else None, dict(attrs))
        _STATE.stack.append(sp)
        try:
            yield sp
        finally:
            duration = time.perf_counter() - sp._start_pc
            if _STATE.stack and _STATE.stack[-1] is sp:
                _STATE.stack.pop()
            else:  # tolerate mis-nested exits rather than corrupt the stack
                try:
                    _STATE.stack.remove(sp)
                except ValueError:
                    pass  # already unlinked; tracing must never raise into instrumented code
            self._record(sp, duration)

    def _record(self, sp: Span, duration_s: float) -> None:
        record = {
            "type": "span",
            "name": sp.name,
            "layer": sp.layer,
            "trace_id": sp.context.trace_id,
            "span_id": sp.context.span_id,
            "parent_id": sp.parent_id,
            "ts_us": int(sp.start_s * 1_000_000),
            "dur_us": max(0, int(duration_s * 1_000_000)),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": sp.attrs,
        }
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._closed:
                return
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._file.close()
            self._closed = True


_MODULE_LOCK = threading.Lock()
_tracer: Tracer | None = None
_tracer_pid: int | None = None
_atexit_hooked = False
#: The path of the last :func:`configure`, which forked children reopen in
#: place of ``MAS_TRACE``.
_configured: str | os.PathLike[str] | None = None


def _install(tracer: Tracer | None) -> None:
    global _tracer, _tracer_pid, _atexit_hooked
    previous = _tracer
    # A tracer inherited across fork is the parent's to close.
    if previous is not None and previous is not tracer and _tracer_pid == os.getpid():
        previous.close()
    _tracer = tracer
    _tracer_pid = os.getpid()
    if tracer is not None and not _atexit_hooked:
        atexit.register(_close_at_exit)
        _atexit_hooked = True


def _close_at_exit() -> None:
    tracer = _tracer
    if tracer is not None and _tracer_pid == os.getpid():
        tracer.close()


def get_tracer() -> Tracer | None:
    """The process's tracer: as :func:`configure` set it, else one lazily
    made from ``MAS_TRACE`` (blank counts as unset).

    Re-evaluated per PID, so pool workers forked mid-sweep open their own
    file handle on the configured path, or else on the inherited
    environment's (the parent's handle is left to the parent).
    """
    if _tracer_pid == os.getpid():
        return _tracer
    with _MODULE_LOCK:
        if _tracer_pid == os.getpid():
            return _tracer
        if _configured is not None:
            _install(Tracer(_configured))
        else:
            path = os.environ.get("MAS_TRACE", "").strip() or None
            _install(None if path is None else Tracer(path))
        return _tracer


def configure(path: str | os.PathLike[str]) -> Tracer:
    """Programmatically enable tracing (wins over env); processes forked
    afterwards trace to ``path`` too."""
    global _configured
    with _MODULE_LOCK:
        tracer = Tracer(path)
        _install(tracer)
        _configured = path
        return tracer


def reset() -> None:
    """Disable tracing and forget state, so the next span re-reads the env.

    Closes the current tracer (if this process owns it).  Tests and
    benchmarks bracket traced sections with :func:`configure`/:func:`reset`.
    """
    global _tracer, _tracer_pid, _configured
    with _MODULE_LOCK:
        if _tracer is not None and _tracer_pid == os.getpid():
            _tracer.close()
        _tracer = None
        _tracer_pid = None
        _configured = None


def span(name: str, layer: str = "app",
         parent: TraceContext | None = None, **attrs: Any):
    """Context manager recording one span; a shared no-op when tracing is off.

    Yields a :class:`Span` (or :data:`NULL_SPAN`) whose ``.context`` is the
    identity to propagate and whose ``.set(...)`` attaches late attributes.
    """
    tracer = get_tracer()
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, layer=layer, parent=parent, **attrs)


def current_context() -> TraceContext | None:
    """The context new child work should adopt: the innermost live span's."""
    if get_tracer() is None or not _STATE.stack:
        return None
    return _STATE.stack[-1].context
