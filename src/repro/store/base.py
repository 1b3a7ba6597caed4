"""The result-store contract: the operations sweeps and the ``cache`` CLI use.

A :class:`ResultStore` maps cache keys (stable content hashes, see
:func:`repro.exec.cache.tuning_cache_key`) to JSON-able entry payloads
(:mod:`repro.store.schema`).  The contract is what its callers use and
nothing more: a sweep does a schema-checked ``lookup`` and a ``put`` per
pair, and the ``cache`` CLI reads ``entries`` and ``stats`` and runs LRU
``evict`` and ``clear``.  Each backend implements each operation once — the
local directory (:class:`~repro.store.jsondir.JsonDirStore`) over its files,
the HTTP client (:class:`~repro.store.http.HttpStore`) as one request to the
operation's route — so both behave identically.
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass
from typing import Any

from repro.store.eviction import EvictionPolicy

__all__ = ["EntryInfo", "ResultStore", "StoreStats"]


@dataclass(frozen=True)
class EntryInfo:
    """Queryable metadata of one stored entry (no payload attached).

    ``schema`` records the entry's *usable* schema version — ``None`` when
    the payload is stale (another schema, or a recognisable envelope whose
    tuning block is missing), so listings and stats agree with what
    ``lookup`` would actually serve.
    """

    key: str
    schema: int | None
    scheduler: str | None
    workload: str | None
    strategy: str | None
    suite: str | None
    size_bytes: int
    last_used: float


@dataclass(frozen=True)
class StoreStats:
    """Aggregate state of a store, as reported by ``stats()``."""

    backend: str
    location: str
    entries: int
    total_bytes: int
    #: Entries whose payload is stale (not at the current entry schema).
    stale_entries: int

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class ResultStore(abc.ABC):
    """Schema-aware key -> payload store with LRU eviction.

    Parameters
    ----------
    policy:
        Optional :class:`EvictionPolicy`; when bounded, every ``put``
        enforces the caps (evicting least-recently-used entries first), so
        the store never grows past them.
    """

    #: Short backend name (``"jsondir"`` / ``"http"``), reported in stats.
    backend: str = "abstract"

    def __init__(self, policy: EvictionPolicy | None = None) -> None:
        self.policy = policy or EvictionPolicy()

    @abc.abstractmethod
    def uri(self) -> str:
        """Canonical URI of this store (round-trips through ``open_store``)."""

    @abc.abstractmethod
    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        """Schema-checked payload lookup.

        Returns ``(payload, status)`` with status ``"hit"`` (a usable
        current-schema payload), ``"stale"`` (unusable schema; the entry is
        left for ``stats``/``evict`` to deal with) or ``"miss"``.  Hits
        refresh the entry's LRU timestamp.
        """

    @abc.abstractmethod
    def put(self, key: str, payload: dict[str, Any]) -> list[str]:
        """Store ``payload`` under ``key`` (atomic, last writer wins).

        A bounded store policy is enforced right after the write; returns
        the keys that enforcement evicted.
        """

    @abc.abstractmethod
    def entries(self, **filters: str | None) -> list[EntryInfo]:
        """Entry metadata, stale entries included, optionally filtered.

        ``filters`` may name ``scheduler``, ``workload``, ``strategy`` or
        ``suite`` (``None`` values are ignored); unknown names raise.
        """

    @abc.abstractmethod
    def stats(self) -> StoreStats:
        """Entry count, total bytes and stale count of this store."""

    @abc.abstractmethod
    def evict(self, policy: EvictionPolicy | None = None) -> list[str]:
        """Delete least-recently-used entries until ``policy`` holds.

        Returns the evicted keys.  ``None`` uses the store's own policy.
        """

    @abc.abstractmethod
    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""

    def close(self) -> None:
        """Release backend resources (connections, handles).  Idempotent."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored entries, stale ones included."""

    _ENTRY_FILTER_FIELDS = ("scheduler", "workload", "strategy", "suite")

    @classmethod
    def _check_entry_filters(cls, filters: dict[str, str | None]) -> dict[str, str]:
        """The non-``None`` entry filters; unknown filter names raise."""
        unknown = sorted(set(filters) - set(cls._ENTRY_FILTER_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown entry filters {unknown}; options: {list(cls._ENTRY_FILTER_FIELDS)}"
            )
        return {field: value for field, value in filters.items() if value is not None}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.uri()!r}, policy={self.policy})"
