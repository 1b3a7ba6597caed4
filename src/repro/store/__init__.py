"""Pluggable result-store subsystem: where tuning results live.

The execution layer's persistent cache (:mod:`repro.exec.cache`) keeps its
storage behind one interface:

* :mod:`repro.store.base` — the :class:`ResultStore` contract: the
  operations its callers use (schema-aware ``lookup``/``put``, ``entries``,
  ``stats``, LRU ``evict``, ``clear``);
* :mod:`repro.store.jsondir` — the ``<key>.json`` directory format, the one
  local backend;
* :mod:`repro.store.eviction` — size- and count-capped LRU eviction shared
  by all backends;
* :mod:`repro.store.schema` — entry payload versioning and validation;
* :mod:`repro.store.http` — the HTTP client backend: the same contract over
  a running ``mas-attention serve`` (:mod:`repro.service`), one route per
  operation, with connection reuse and retry-with-backoff;
* :mod:`repro.store.retry` — the retry/backoff helper HTTP transient errors
  go through;
* :mod:`repro.store.uri` — ``dir:/path`` / ``http://host:8787`` URIs (plus
  ``?max_entries=``/``?max_bytes=`` caps) so one string — ``--cache``,
  ``$MAS_CACHE_URI`` — selects backend, location and policy.
"""

from repro.store.base import EntryInfo, ResultStore, StoreStats
from repro.store.eviction import EvictionPolicy, parse_size, plan_eviction
from repro.store.http import HttpStore, TransientServiceError
from repro.store.jsondir import JsonDirStore
from repro.store.retry import RetryPolicy, call_with_retry
from repro.store.schema import (
    ENTRY_SCHEMA_VERSION,
    make_payload,
    normalize_payload,
)
from repro.store.uri import MAS_CACHE_URI_ENV, open_store, resolve_store_target

__all__ = [
    "ENTRY_SCHEMA_VERSION",
    "EntryInfo",
    "EvictionPolicy",
    "HttpStore",
    "JsonDirStore",
    "MAS_CACHE_URI_ENV",
    "ResultStore",
    "RetryPolicy",
    "StoreStats",
    "TransientServiceError",
    "call_with_retry",
    "make_payload",
    "normalize_payload",
    "open_store",
    "parse_size",
    "plan_eviction",
    "resolve_store_target",
]
