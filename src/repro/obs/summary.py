"""Trace analysis behind ``mas-attention obs summarize``.

Turns a flat list of span records into the answers a sweep post-mortem
actually needs: where the wall-clock went per layer, the single heaviest
root-to-leaf chain (critical path), and the individually slowest spans.
Pure functions over parsed records — no tracer, clock or file access —
so the CLI and tests share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["TraceSummary", "summarize_trace"]


@dataclass
class TraceSummary:
    """Aggregated view of one trace file."""

    span_count: int
    trace_count: int
    process_count: int
    wall_ms: float
    #: Per-layer ``{"spans": n, "total_ms": t}``, descending by total time.
    layers: dict[str, dict[str, float]]
    #: Heaviest root-to-leaf chain: ``(name, layer, dur_ms)`` per hop.
    critical_path: list[tuple[str, str, float]]
    #: Slowest spans overall, as the original records, descending by duration.
    slowest: list[dict[str, Any]]

    def format(self, top: int = 5) -> str:
        """Human-readable report for the CLI; ``top`` caps every section."""
        lines = [
            f"spans: {self.span_count}   traces: {self.trace_count}   "
            f"processes: {self.process_count}   wall: {self.wall_ms:.1f} ms",
            "",
            "time by layer (self-reported span durations; layers overlap):",
        ]
        for layer, stats in list(self.layers.items())[:top]:
            lines.append(
                f"  {layer:<10} {stats['total_ms']:>10.1f} ms  in {int(stats['spans'])} spans"
            )
        if len(self.layers) > top:
            lines.append(f"  ... {len(self.layers) - top} more layer(s); raise --top to see them")
        if self.critical_path:
            lines.append("")
            lines.append("critical path (heaviest child at each level):")
            for depth, (name, layer, dur_ms) in enumerate(self.critical_path):
                lines.append(f"  {'  ' * depth}{name} [{layer}] {dur_ms:.1f} ms")
        if self.slowest:
            lines.append("")
            lines.append(f"slowest {min(top, len(self.slowest))} spans:")
            for span in self.slowest[:top]:
                attrs = span.get("attrs") or {}
                detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                dur_ms = int(span.get("dur_us", 0)) / 1000.0
                lines.append(
                    f"  {dur_ms:>10.1f} ms  {span.get('name')} [{span.get('layer')}]"
                    + (f"  {detail}" if detail else "")
                )
        return "\n".join(lines)


def summarize_trace(spans: list[dict[str, Any]], top: int = 20) -> TraceSummary:
    """Aggregate parsed span records (see :func:`repro.obs.export.read_trace`)."""
    layers: dict[str, dict[str, float]] = {}
    for span in spans:
        layer = str(span.get("layer", "app"))
        stats = layers.setdefault(layer, {"spans": 0, "total_ms": 0.0})
        stats["spans"] += 1
        stats["total_ms"] += int(span.get("dur_us", 0)) / 1000.0
    layers = dict(sorted(layers.items(), key=lambda kv: -kv[1]["total_ms"]))

    starts = [int(s.get("ts_us", 0)) for s in spans]
    ends = [int(s.get("ts_us", 0)) + int(s.get("dur_us", 0)) for s in spans]
    wall_ms = (max(ends) - min(starts)) / 1000.0 if spans else 0.0

    return TraceSummary(
        span_count=len(spans),
        trace_count=len({s.get("trace_id") for s in spans}),
        process_count=len({s.get("pid") for s in spans}),
        wall_ms=wall_ms,
        layers=layers,
        critical_path=_critical_path(spans),
        slowest=sorted(spans, key=lambda s: -int(s.get("dur_us", 0)))[:top],
    )


def _critical_path(spans: list[dict[str, Any]]) -> list[tuple[str, str, float]]:
    """Greedy heaviest chain from the longest root span down to a leaf.

    Parent/child links are scoped to ``(trace_id, span_id)``: a multi-sweep
    trace file repeats span ids across traces (each sweep mints its own),
    so keying by bare ``span_id`` could splice an unrelated trace's child
    into the chosen root's chain.
    """
    children: dict[tuple[Any, Any], list[dict[str, Any]]] = {}
    span_keys = {(s.get("trace_id"), s.get("span_id")) for s in spans}
    roots: list[dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent_id")
        parent_key = (span.get("trace_id"), parent)
        if parent is None or parent_key not in span_keys:
            roots.append(span)
        else:
            children.setdefault(parent_key, []).append(span)
    if not roots:
        return []
    path: list[tuple[str, str, float]] = []
    node = max(roots, key=lambda s: int(s.get("dur_us", 0)))
    while node is not None:
        path.append(
            (str(node.get("name")), str(node.get("layer")), int(node.get("dur_us", 0)) / 1000.0)
        )
        below = children.get((node.get("trace_id"), node.get("span_id")), [])
        node = max(below, key=lambda s: int(s.get("dur_us", 0))) if below else None
    return path
