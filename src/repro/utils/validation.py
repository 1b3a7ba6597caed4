"""Small validation helpers shared by configuration dataclasses."""

from __future__ import annotations

from typing import Any


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a non-negative number and return it as ``float``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return float(value)


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division; both arguments must be positive."""
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def divisors(n: int) -> list[int]:
    """Return all positive divisors of ``n`` in ascending order."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval [low, high]."""
    if low > high:
        raise ValueError(f"invalid clamp interval [{low}, {high}]")
    return max(low, min(high, value))
