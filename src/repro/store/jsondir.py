"""Directory-of-JSON-files store: today's cache format behind the store API.

One ``<key>.json`` file per entry, written atomically (temp file +
:func:`os.replace`) so worker processes of a
:class:`~repro.exec.runner.ExperimentRunner` can share a directory: concurrent
writers of the same key produce identical content, and readers never observe
a half-written file.  This is the one local backend; ``mas-attention serve``
shares it across hosts.

A key must be one plain file name (:data:`KEY_PATTERN`), so no key — not
even one a remote client sends to the service — names a file outside the
store directory.  Cache keys are SHA-256 hex digests.

LRU state rides on file mtimes: a hit touches the file, so ``last_used``
needs no sidecar index.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any

from repro.store.base import EntryInfo, ResultStore, StoreStats
from repro.store.eviction import EvictionPolicy, plan_eviction
from repro.store.schema import entry_meta, normalize_payload

__all__ = ["JsonDirStore"]

#: What a store key may look like: a file name with no separator and no
#: leading dot (so neither ``..`` nor a hidden file).
KEY_PATTERN = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


class JsonDirStore(ResultStore):
    """Result store over a directory of ``<key>.json`` files."""

    backend = "jsondir"

    def __init__(self, root: str | Path, policy: EvictionPolicy | None = None) -> None:
        super().__init__(policy)
        self.root = Path(root).expanduser()

    def uri(self) -> str:
        return f"dir:{self.root}{self.policy.as_query()}"

    # ------------------------------------------------------------------ #
    # The store contract
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        raw = self._read(key)
        if raw is None:
            return None, "miss"
        payload, status = normalize_payload(raw)
        if status != "ok":
            return None, "stale"
        self._touch(key)
        return payload, "hit"

    def put(self, key: str, payload: dict[str, Any]) -> list[str]:
        self._write(key, payload)
        return self.evict() if self.policy.bounded else []

    def entries(self, **filters: str | None) -> list[EntryInfo]:
        active = self._check_entry_filters(filters)
        return [
            info
            for info in self._list_entries()
            if all(getattr(info, field) == value for field, value in active.items())
        ]

    def stats(self) -> StoreStats:
        infos = self._list_entries()
        return StoreStats(
            backend=self.backend,
            location=self.uri(),
            entries=len(infos),
            total_bytes=sum(info.size_bytes for info in infos),
            # schema is None exactly when the payload is stale (see
            # EntryInfo), which keeps this count consistent with lookup().
            stale_entries=sum(1 for info in infos if info.schema is None),
        )

    def evict(self, policy: EvictionPolicy | None = None) -> list[str]:
        evicted = plan_eviction(self._eviction_entries(), policy or self.policy)
        for key in evicted:
            self._delete(key)
        return evicted

    def clear(self) -> int:
        return sum(self._delete(key) for key in self._keys())

    def __len__(self) -> int:
        return len(self._entry_files())

    # ------------------------------------------------------------------ #
    # File helpers
    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        if not KEY_PATTERN.fullmatch(key):
            raise ValueError(f"invalid store key {key!r}: keys are plain file names")
        return self.root / f"{key}.json"

    def _entry_files(self) -> list[Path]:
        """The directory's ``<key>.json`` files; other names are not entries."""
        if not self.root.is_dir():
            return []
        return [p for p in self.root.glob("*.json") if KEY_PATTERN.fullmatch(p.stem)]

    def _read(self, key: str) -> dict[str, Any] | None:
        """Raw payload under ``key``, or ``None``.

        Unreadable garbage (e.g. an unparseable file) is reported as ``None``
        — indistinguishable from absence, exactly like a torn write.
        """
        try:
            payload = json.loads(self._path(key).read_text())
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _write(self, key: str, payload: dict[str, Any]) -> None:
        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        # Compact separators keep json on its C encoder (``indent`` does not).
        tmp.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        os.replace(tmp, path)

    def _delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def _keys(self) -> list[str]:
        return [path.stem for path in self._entry_files()]

    def _touch(self, key: str) -> None:
        try:
            os.utime(self._path(key))
        except OSError:
            # Missing file (racing a concurrent evict) or a read-only mount:
            # LRU freshness is best-effort, the hit itself must not fail.
            pass

    def _eviction_entries(self) -> list[EntryInfo]:
        # Stat-only: eviction needs (key, size, last_used), not the payload —
        # a bounded store plans eviction on every put, and parsing every
        # entry's full JSON (search histories included) each time would make
        # capped writes O(store size) in payload bytes.
        infos: list[EntryInfo] = []
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing a concurrent evict
                continue
            infos.append(
                EntryInfo(
                    key=path.stem,
                    schema=None,
                    scheduler=None,
                    workload=None,
                    strategy=None,
                    suite=None,
                    size_bytes=stat.st_size,
                    last_used=stat.st_mtime,
                )
            )
        return infos

    def _list_entries(self) -> list[EntryInfo]:
        """Metadata of every entry, stale ones included (no filtering)."""
        infos: list[EntryInfo] = []
        for path in self._entry_files():
            try:
                stat = path.stat()
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn write or vanished file: not an entry
            if not isinstance(payload, dict):
                continue
            normalized, status = normalize_payload(payload)
            usable = status == "ok"
            meta = entry_meta(normalized if usable else {})
            infos.append(
                EntryInfo(
                    key=path.stem,
                    # None for stale payloads, so stats/ls agree with lookup
                    schema=payload.get("schema") if usable else None,
                    scheduler=meta["scheduler"],
                    workload=meta["workload"],
                    strategy=meta["strategy"],
                    suite=meta["suite"],
                    size_bytes=stat.st_size,
                    last_used=stat.st_mtime,
                )
            )
        return infos
