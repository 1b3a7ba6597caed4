"""Directory-of-JSON-files store: today's cache format behind the store API.

One ``<key>.json`` file per entry, written atomically (temp file +
:func:`os.replace`) so worker processes of a
:class:`~repro.exec.runner.ExperimentRunner` can share a directory: concurrent
writers of the same key produce identical content, and readers never observe
a half-written file.  This wraps the exact on-disk layout the PR-1
``ResultCache`` introduced — a directory written by either is readable by the
other — and remains the default backend.

LRU state rides on file mtimes: a schema-valid read touches the file, so
``last_used`` needs no sidecar index.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.store.base import EntryInfo, ResultStore
from repro.store.eviction import EvictionPolicy
from repro.store.schema import entry_meta, normalize_payload

__all__ = ["JsonDirStore"]


class JsonDirStore(ResultStore):
    """Result store over a directory of ``<key>.json`` files."""

    backend = "jsondir"

    def __init__(self, root: str | Path, policy: EvictionPolicy | None = None) -> None:
        super().__init__(policy)
        self.root = Path(root).expanduser()

    def uri(self) -> str:
        return f"dir:{self.root}{self.policy.as_query()}"

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Backend primitives
    # ------------------------------------------------------------------ #
    def read(self, key: str) -> dict[str, Any] | None:
        try:
            payload = json.loads(self._path(key).read_text())
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def write(self, key: str, payload: dict[str, Any]) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)
        return path

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return [path.stem for path in self.root.glob("*.json")]

    def touch(self, key: str) -> None:
        try:
            os.utime(self._path(key))
        except OSError:
            # Missing file (racing a concurrent evict) or a read-only mount:
            # LRU freshness is best-effort, the hit itself must not fail.
            pass

    def eviction_entries(self) -> list[EntryInfo]:
        # Stat-only: eviction needs (key, size, last_used), not the payload —
        # a bounded store plans eviction on every put, and parsing every
        # entry's full JSON (search histories included) each time would make
        # capped writes O(store size) in payload bytes.
        infos: list[EntryInfo] = []
        if not self.root.is_dir():
            return infos
        for path in self.root.glob("*.json"):
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
        infos: list[EntryInfo] = []
        if not self.root.is_dir():
            return infos
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn write or vanished file: not an entry
            if not isinstance(payload, dict):
                continue
            normalized, status = normalize_payload(payload)
            usable = status in ("ok", "upgraded")
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
