"""Entry payload schema: versioning and validation.

Two version numbers govern the result store, and they move independently:

* the **key schema** (:data:`repro.exec.cache.KEY_SCHEMA_VERSION`) is hashed
  into every cache key.  Bumping it means previously tuned results are no
  longer *valid* (the meaning of a key input changed), so every old entry
  becomes unreachable by design.
* the **entry schema** (:data:`ENTRY_SCHEMA_VERSION`, this module) describes
  the stored payload *layout*.  A payload at any other entry schema reads as
  ``"stale"``: it is counted, listed and evictable, but never served.

Payload history
---------------
* **v1**: ``{"schema": 1, "key", "tuning"}``; the tuning dict lacked
  ``objective_evaluations``.
* **v2**: tuning gained ``objective_evaluations``.
* **v3**: a ``meta`` block (scheduler / workload / strategy / budget /
  suite) duplicated out of the tuning payload so store backends can index
  and query entries without parsing the (large) tuning blob.

v1 and v2 payloads were all written under key schema 2 or older.  Key
schema 5 hashes into every key computed today, so no lookup reaches them;
``cache stats`` counts any left in a store as stale, and ``cache evict`` or
``cache clear`` removes them.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ENTRY_SCHEMA_VERSION",
    "entry_meta",
    "make_payload",
    "normalize_payload",
]

#: Version of the stored payload layout.  v3 added the ``meta`` block.
ENTRY_SCHEMA_VERSION = 3

_META_FIELDS = ("scheduler", "workload", "strategy", "budget", "suite")


def entry_meta(payload: dict[str, Any]) -> dict[str, Any]:
    """The queryable metadata of a current-schema payload (missing keys -> None)."""
    meta = payload.get("meta") or {}
    return {field: meta.get(field) for field in _META_FIELDS}


def make_payload(
    key: str,
    tuning: dict[str, Any],
    suite: str | None = None,
) -> dict[str, Any]:
    """Assemble a current-schema (v3) payload around a tuning-result dict."""
    return {
        "schema": ENTRY_SCHEMA_VERSION,
        "key": key,
        "meta": {
            "scheduler": tuning.get("scheduler"),
            "workload": tuning.get("workload"),
            "strategy": tuning.get("strategy"),
            "budget": tuning.get("budget"),
            "suite": suite,
        },
        "tuning": tuning,
    }


def normalize_payload(payload: Any) -> tuple[dict[str, Any] | None, str]:
    """Validate ``payload`` against the current entry schema.

    Returns ``(payload, "ok")`` for a payload at :data:`ENTRY_SCHEMA_VERSION`
    with a tuning block, and ``(None, "stale")`` for anything else: another
    schema (older or future), or an envelope whose tuning block is missing.
    A stale payload cannot be used, but the entry is *data*, not garbage;
    stores count it separately from misses and surface it in their stats.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("tuning"), dict):
        return None, "stale"
    if payload.get("schema") == ENTRY_SCHEMA_VERSION:
        return payload, "ok"
    return None, "stale"
