"""Unified observability layer: span tracing, metrics, perf gate.

The pieces, one import point:

* :mod:`repro.obs.trace` — cross-process/cross-wire span tracing of the
  sweep → pair → search-generation → store-op → HTTP-request path,
  enabled by ``MAS_TRACE=<path>`` (JSONL output);
* :mod:`repro.obs.metrics` — the fixed-bucket latency :class:`Histogram`
  (p50/p95/p99) behind the store service's per-endpoint metrics;
* :mod:`repro.obs.export` — Chrome trace-event conversion;
* :mod:`repro.obs.bench` — the perf gate behind ``mas-attention obs bench
  PARENT_DIR``: the sweep benchmark on the parent commit against this
  checkout, failing on a regression beyond ``BENCHMARK.json``'s bounds.

``mas-attention obs summarize|convert|metrics|validate|bench`` is the CLI
surface; ``docs/observability.md`` is the guide.  Function hotspots come
from ``python -m cProfile`` on a ``--jobs 1`` sweep.
"""

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    TraceContext,
    Tracer,
    configure,
    current_context,
    flush,
    get_tracer,
    reset,
    span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Span",
    "TRACE_HEADER",
    "TraceContext",
    "Tracer",
    "configure",
    "current_context",
    "flush",
    "get_tracer",
    "reset",
    "span",
]
