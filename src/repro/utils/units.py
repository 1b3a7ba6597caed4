"""Unit constants and conversion helpers used throughout the simulator.

The hardware model works in raw SI-free integers (bytes, cycles, picojoules);
these helpers keep configuration code readable (``5 * MB``, ``3.75 * GHZ``) and
convert simulator output into human-friendly units for reports.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

GHZ: float = 1e9


def cycles_to_seconds(cycles: float, frequency_hz: float) -> float:
    """Convert a cycle count into wall-clock seconds at ``frequency_hz``."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
    return float(cycles) / float(frequency_hz)


def bytes_to_human(num_bytes: float) -> str:
    """Render a byte count with a binary suffix (B, KiB, MiB, GiB)."""
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            return f"{value:.2f} {suffix}" if suffix != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError("unreachable")
