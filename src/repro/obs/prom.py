"""Prometheus text-exposition rendering for :mod:`repro.obs.metrics`.

Rendering generalizes the formatter that previously lived inside the store
service: any :class:`~repro.obs.metrics.MetricsRegistry` renders to the
text format under a caller-chosen namespace, following the upstream
conventions —

* counters get a ``_total`` suffix;
* histograms expand to cumulative ``_bucket{le="..."}`` series plus
  ``_sum`` and ``_count`` (and an extra exact ``_max`` gauge, which plain
  Prometheus histograms cannot express);
* label values escape backslash, double-quote and newline;
* a family's ``prom_scale`` converts stored units at render time, so a
  histogram recorded in milliseconds can expose canonical seconds.

The store service serves the result at ``GET /metrics?format=prometheus``.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.metrics import Histogram, MetricFamily, MetricsRegistry

__all__ = [
    "escape_label_value",
    "format_labels",
    "render_families",
    "render_registry",
]


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    """Render a ``{name="value",...}`` block; empty string when no labels."""
    parts = [f'{name}="{escape_label_value(value)}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_number(value: float) -> str:
    if isinstance(value, bool):  # bools are ints; reject rather than render
        raise TypeError("metric values must be numeric, not bool")
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_histogram(lines: list[str], metric: str, family: MetricFamily,
                      values: tuple[str, ...], hist: Histogram) -> None:
    scale = family.prom_scale
    cumulative = 0
    for upper, count in hist.bucket_counts():
        cumulative += count
        le = "+Inf" if upper is None else _format_number(upper * scale)
        labels = format_labels(family.label_names, values, extra=f'le="{le}"')
        lines.append(f"{metric}_bucket{labels} {cumulative}")
    labels = format_labels(family.label_names, values)
    lines.append(f"{metric}_sum{labels} {_format_number(hist.sum * scale)}")
    lines.append(f"{metric}_count{labels} {hist.count}")
    lines.append(f"{metric}_max{labels} {_format_number(hist.max * scale)}")


def render_families(families: Iterable[MetricFamily], namespace: str) -> str:
    """Render metric families as ``# HELP``/``# TYPE`` blocks plus samples."""
    lines: list[str] = []
    for family in families:
        metric = f"{namespace}_{family.prom_name}"
        if family.kind == "counter":
            metric += "_total"
        prom_type = "gauge" if family.kind == "gauge" else family.kind
        samples = list(family.samples())
        if not samples:
            continue
        lines.append(f"# HELP {metric} {family.help}")
        lines.append(f"# TYPE {metric} {prom_type}")
        for values, child in samples:
            if isinstance(child, Histogram):
                _render_histogram(lines, metric, family, values, child)
            else:
                labels = format_labels(family.label_names, values)
                lines.append(f"{metric}{labels} {_format_number(child.value * family.prom_scale)}")
    return "\n".join(lines) + "\n"


def render_registry(registry: MetricsRegistry, namespace: str) -> str:
    """Render every family of ``registry`` under ``namespace``."""
    return render_families(registry.families(), namespace)
