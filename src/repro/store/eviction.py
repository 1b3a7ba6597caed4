"""Size- and count-capped LRU eviction, shared by every store backend.

The policy is pure data (:class:`EvictionPolicy`) and the planner is a pure
function over entry metadata (:func:`plan_eviction`), so all backends — and
their tests — share one implementation: a backend only has to report
``(key, size_bytes, last_used)`` triples and delete the keys the planner
picks.  Least-recently-*used* entries go first; a cache hit refreshes an
entry's ``last_used``, so the working set of a warm sweep survives eviction.
Cache keys are content hashes, so an entry never goes stale with age: the
caps only bound the store's size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.store.base import EntryInfo

__all__ = ["EvictionPolicy", "parse_size", "plan_eviction"]

_SIZE_RE = re.compile(r"^(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[a-z]*)$")

#: Byte-size suffixes.  Binary prefixes (``KiB``/``MiB``/…) and the bare
#: single-letter forms (``K``/``M``/…, the historical spelling) are powers
#: of 1024; the decimal suffixes (``kB``/``MB``/…) are powers of 1000, as
#: SI defines them — ``1kB`` is 1000 bytes, not 1024 (the old parser
#: consulted only the first unit letter and silently read every ``*b``
#: spelling as binary).
_SIZE_UNITS = {
    "": 1,
    "b": 1,
    "k": 1024,
    "ki": 1024,
    "kib": 1024,
    "kb": 1000,
    "m": 1024**2,
    "mi": 1024**2,
    "mib": 1024**2,
    "mb": 1000**2,
    "g": 1024**3,
    "gi": 1024**3,
    "gib": 1024**3,
    "gb": 1000**3,
    "t": 1024**4,
    "ti": 1024**4,
    "tib": 1024**4,
    "tb": 1000**4,
}

def parse_size(text: str | int) -> int:
    """Parse a human byte size (``"512MiB"``, ``"1G"``, ``"65536"``) to bytes.

    Binary suffixes (``KiB``, ``MiB``, ``GiB``, ``TiB`` — and bare ``K``,
    ``M``, ``G``, ``T``) are powers of 1024; decimal suffixes (``kB``,
    ``MB``, ``GB``, ``TB``) are powers of 1000.  Unknown suffixes raise
    rather than guess.
    """
    if isinstance(text, int):
        return text
    match = _SIZE_RE.match(text.strip().lower())
    if match is None:
        raise ValueError(
            f"unparseable size {text!r}; expected e.g. 65536, 512MiB, 1G, 2kB"
        )
    unit = match["unit"]
    if unit not in _SIZE_UNITS:
        raise ValueError(
            f"unknown size unit {unit!r} in {text!r}; binary: K/KiB/M/MiB/G/GiB/"
            "T/TiB (powers of 1024), decimal: kB/MB/GB/TB (powers of 1000)"
        )
    return int(float(match["num"]) * _SIZE_UNITS[unit])


@dataclass(frozen=True)
class EvictionPolicy:
    """LRU caps on a result store; ``None`` leaves a dimension unbounded."""

    max_entries: int | None = None
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_entries", "max_bytes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def bounded(self) -> bool:
        """Whether the policy constrains anything at all."""
        return self.max_entries is not None or self.max_bytes is not None

    def as_query(self) -> str:
        """The policy as a URI query suffix (``""`` when unbounded).

        Inverse of :meth:`from_query`: appending this to a store's location
        makes its URI round-trip caps included.
        """
        parts = []
        if self.max_entries is not None:
            parts.append(f"max_entries={self.max_entries}")
        if self.max_bytes is not None:
            parts.append(f"max_bytes={self.max_bytes}")
        return "?" + "&".join(parts) if parts else ""

    @classmethod
    def from_query(cls, params: dict[str, str]) -> "EvictionPolicy":
        """Build a policy from URI query parameters (unknown keys rejected)."""
        known = {"max_entries", "max_bytes"}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(f"unknown store URI parameters {unknown}; options: {sorted(known)}")
        return cls(
            max_entries=int(params["max_entries"]) if "max_entries" in params else None,
            max_bytes=parse_size(params["max_bytes"]) if "max_bytes" in params else None,
        )


def plan_eviction(entries: Iterable["EntryInfo"], policy: EvictionPolicy) -> list[str]:
    """Keys to evict (least recently used first) to satisfy ``policy``.

    Entries are retired oldest-``last_used`` first until both the entry-count
    and total-byte caps hold.  With an unbounded policy nothing is evicted.
    """
    if not policy.bounded:
        return []
    ordered = sorted(entries, key=lambda e: (e.last_used, e.key))
    count = len(ordered)
    total = sum(e.size_bytes for e in ordered)
    evicted: list[str] = []
    for entry in ordered:
        over_count = policy.max_entries is not None and count > policy.max_entries
        over_bytes = policy.max_bytes is not None and total > policy.max_bytes
        if not over_count and not over_bytes:
            break
        evicted.append(entry.key)
        count -= 1
        total -= entry.size_bytes
    return evicted
