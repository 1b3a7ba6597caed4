"""Pluggable result-store subsystem: where tuning results live at scale.

The execution layer's persistent cache (:mod:`repro.exec.cache`) used to be
welded to one directory-of-JSON-files format; this package turns the storage
side into a swappable backend behind one interface:

* :mod:`repro.store.base` — the :class:`ResultStore` contract (schema-aware
  ``lookup``/``put``, ``stats``, LRU ``evict``, ``clear``, ``keys``);
* :mod:`repro.store.jsondir` — today's ``<key>.json`` directory format,
  bit-compatible with caches written before this subsystem existed, still
  the default;
* :mod:`repro.store.sqlite` — a single-file SQLite database in WAL mode,
  safe for concurrent sweep workers and indexed for cross-entry queries;
* :mod:`repro.store.eviction` — size- and count-capped LRU eviction shared
  by all backends;
* :mod:`repro.store.schema` — entry payload versioning plus the lossless
  v2 -> v3 upgrader;
* :mod:`repro.store.http` — the HTTP client backend: the same contract over
  a running ``mas-attention serve`` (:mod:`repro.service`), with connection
  reuse, retry-with-backoff and ETag-based optimistic concurrency;
* :mod:`repro.store.retry` — the shared retry/backoff helper (SQLite busy
  handling and HTTP transient errors go through one code path);
* :mod:`repro.store.migrate` — copying whole stores across backends
  (``jsondir <-> sqlite <-> http``) with zero entry loss;
* :mod:`repro.store.uri` — ``dir:/path`` / ``sqlite:///path.db`` /
  ``http://host:8787`` URIs (plus ``?max_entries=``/``?max_bytes=`` caps) so
  one string — ``--cache``, ``$MAS_CACHE_URI`` — selects backend, location
  and policy.
"""

from repro.store.base import EntryInfo, ResultStore, StoreStats
from repro.store.eviction import EvictionPolicy, parse_size, plan_eviction
from repro.store.http import HttpStore, StoreConflictError, TransientServiceError
from repro.store.jsondir import JsonDirStore
from repro.store.migrate import MigrationReport, migrate_store
from repro.store.retry import RetryPolicy, call_with_retry
from repro.store.schema import (
    ENTRY_SCHEMA_VERSION,
    make_payload,
    normalize_payload,
)
from repro.store.sqlite import SqliteStore
from repro.store.uri import MAS_CACHE_URI_ENV, open_store, resolve_store_target

__all__ = [
    "ENTRY_SCHEMA_VERSION",
    "EntryInfo",
    "EvictionPolicy",
    "HttpStore",
    "JsonDirStore",
    "MAS_CACHE_URI_ENV",
    "MigrationReport",
    "ResultStore",
    "RetryPolicy",
    "SqliteStore",
    "StoreConflictError",
    "StoreStats",
    "TransientServiceError",
    "call_with_retry",
    "make_payload",
    "migrate_store",
    "normalize_payload",
    "open_store",
    "parse_size",
    "plan_eviction",
    "resolve_store_target",
]
