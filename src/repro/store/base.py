"""The abstract result store: what every cache backend must provide.

A :class:`ResultStore` maps cache keys (stable content hashes, see
:func:`repro.exec.cache.tuning_cache_key`) to JSON-able entry payloads
(:mod:`repro.store.schema`).  Backends only implement raw storage — key/value
access plus per-entry metadata — while the shared machinery here provides
schema-aware lookup with upgrade-on-read, LRU eviction and stats, so the
local directory (:class:`~repro.store.jsondir.JsonDirStore`) and the HTTP
client (:class:`~repro.store.http.HttpStore`) behave identically.
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass
from typing import Any

from repro.store.eviction import EvictionPolicy, plan_eviction
from repro.store.schema import (
    ENTRY_SCHEMA_VERSION,
    UPGRADEABLE_SCHEMAS,
    normalize_payload,
)

__all__ = ["EntryInfo", "ResultStore", "StoreStats"]


@dataclass(frozen=True)
class EntryInfo:
    """Queryable metadata of one stored entry (no payload attached).

    ``schema`` records the entry's *usable* schema version — ``None`` when
    the payload is stale (unknown schema, or a recognisable envelope whose
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
    #: Entries whose payload schema is unknown (not current, not upgradeable).
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

    # ------------------------------------------------------------------ #
    # Backend primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def uri(self) -> str:
        """Canonical URI of this store (round-trips through ``open_store``)."""

    @abc.abstractmethod
    def read(self, key: str) -> dict[str, Any] | None:
        """Raw payload under ``key`` (no schema handling), or ``None``.

        Unreadable garbage (e.g. an unparseable file) is reported as ``None``
        — indistinguishable from absence, exactly like a torn write.
        """

    @abc.abstractmethod
    def write(self, key: str, payload: dict[str, Any]) -> Any:
        """Store ``payload`` under ``key`` (atomic, last writer wins)."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove one entry; returns whether it existed."""

    @abc.abstractmethod
    def keys(self) -> list[str]:
        """Every stored key (stale entries included), in no particular order."""

    @abc.abstractmethod
    def _list_entries(self) -> list[EntryInfo]:
        """Metadata of every entry, stale ones included (no filtering)."""

    def entries(self, **filters: str | None) -> list[EntryInfo]:
        """Entry metadata, optionally filtered on the queryable fields.

        ``filters`` may name ``scheduler``, ``workload``, ``strategy`` or
        ``suite`` (``None`` values are ignored); unknown names raise.  The
        default implementation filters in Python; the HTTP store overrides
        this to filter service-side.
        """
        active = self._check_entry_filters(filters)
        infos = self._list_entries()
        if not active:
            return infos
        return [
            info
            for info in infos
            if all(getattr(info, field) == value for field, value in active.items())
        ]

    _ENTRY_FILTER_FIELDS = ("scheduler", "workload", "strategy", "suite")

    @classmethod
    def _check_entry_filters(cls, filters: dict[str, str | None]) -> dict[str, str]:
        unknown = sorted(set(filters) - set(cls._ENTRY_FILTER_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown entry filters {unknown}; options: {list(cls._ENTRY_FILTER_FIELDS)}"
            )
        return {field: value for field, value in filters.items() if value is not None}

    def eviction_entries(self) -> list[EntryInfo]:
        """Entry metadata sufficient for eviction planning.

        The planner only needs ``(key, size_bytes, last_used)``; backends
        where full :meth:`entries` is expensive (the JSON directory parses
        every payload) override this with a cheaper listing whose other
        fields may be ``None``.  A bounded policy calls this on *every*
        ``put``, so its cost sets the write amplification of a capped store.
        """
        return self._list_entries()

    @abc.abstractmethod
    def touch(self, key: str) -> None:
        """Refresh ``key``'s ``last_used`` timestamp (LRU bookkeeping).

        Best-effort: implementations must tolerate a read-only store — a
        lookup against a mounted shared cache must still serve the hit.
        """

    def close(self) -> None:
        """Release backend resources (connections, handles).  Idempotent."""

    # ------------------------------------------------------------------ #
    # Shared, schema-aware API
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        """Schema-checked payload lookup.

        Returns ``(payload, status)`` with status ``"hit"`` (current schema),
        ``"upgraded"`` (an old-schema entry, converted *and written back* —
        the in-place upgrade path), ``"stale"`` (unusable schema; the entry
        is left for ``stats``/``evict`` to deal with) or
        ``"miss"``.  Hits refresh the entry's LRU timestamp.
        """
        raw = self.read(key)
        if raw is None:
            return None, "miss"
        payload, status = normalize_payload(raw)
        if status == "ok":
            self.touch(key)
            return payload, "hit"
        if status == "upgraded":
            assert payload is not None
            try:
                self.write(key, payload)
            # mas-lint: disable=swallowed-exception(write-back is opportunistic; read-only stores retry next lookup)
            except Exception:
                # Persisting the upgrade is opportunistic: on a read-only
                # store (a mounted fleet cache, a CI artifact) the converted
                # payload still serves this lookup; the write-back simply
                # happens again next time, or never.
                pass
            return payload, "upgraded"
        return None, "stale"

    def get(self, key: str) -> dict[str, Any] | None:
        """The usable payload under ``key``, or ``None`` (miss or stale)."""
        return self.lookup(key)[0]

    def put(self, key: str, payload: dict[str, Any]) -> Any:
        """Store a payload and enforce the eviction policy (if bounded)."""
        token = self.write(key, payload)
        if self.policy.bounded:
            self.evict(self.policy)
        return token

    def exists(self, key: str) -> bool:
        """Whether a *usable-or-stale* entry is stored under ``key``."""
        return self.read(key) is not None

    def evict(self, policy: EvictionPolicy | None = None) -> list[str]:
        """Delete least-recently-used entries until ``policy`` holds.

        Returns the evicted keys.  ``None`` uses the store's own policy.
        """
        evicted = plan_eviction(self.eviction_entries(), policy or self.policy)
        for key in evicted:
            self.delete(key)
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in self.keys():
            removed += bool(self.delete(key))
        return removed

    def stats(self) -> StoreStats:
        """Entry count, total bytes and stale count of this store."""
        infos = self._list_entries()
        usable = (ENTRY_SCHEMA_VERSION, *UPGRADEABLE_SCHEMAS)
        return StoreStats(
            backend=self.backend,
            location=self.uri(),
            entries=len(infos),
            total_bytes=sum(info.size_bytes for info in infos),
            # schema is None exactly when the payload is stale (see
            # EntryInfo), which keeps this count consistent with lookup().
            stale_entries=sum(1 for info in infos if info.schema not in usable),
        )

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self.exists(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.uri()!r}, policy={self.policy})"
