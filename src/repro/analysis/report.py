"""Plain-text table formatting for experiment reports and the CLI."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_value", "suite_title_suffix"]


def format_value(value: object, precision: int = 3) -> str:
    """Render one cell: floats with fixed precision, everything else via ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Render an ASCII table with right-aligned numeric columns.

    Used by every experiment harness's ``format()`` method and by the CLI, so
    the printed output mirrors the row/column structure of the paper's tables.
    """
    rendered = [[format_value(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in rendered)
    return "\n".join(lines)


def suite_title_suffix(suite: str) -> str:
    """Title suffix naming a non-default suite (empty for ``table1``, keeping
    the paper artefacts byte-identical to the pre-suite output)."""
    return "" if suite == "table1" else f" — suite {suite}"
