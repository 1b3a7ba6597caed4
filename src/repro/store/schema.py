"""Entry payload schema: versioning, validation and the v2 -> v3 upgrader.

Two version numbers govern the result store, and they move independently:

* the **key schema** (:data:`repro.exec.cache.KEY_SCHEMA_VERSION`) is hashed
  into every cache key.  Bumping it means previously tuned results are no
  longer *valid* (the meaning of a key input changed), so every old entry
  becomes unreachable by design.
* the **entry schema** (:data:`ENTRY_SCHEMA_VERSION`, this module) describes
  the stored payload *layout*.  Bumping it does not invalidate any result —
  old entries are upgraded in place by :func:`normalize_payload` instead of
  being dropped, which is what keeps shared stores durable across
  software upgrades.

Payload history
---------------
* **v1** (PR 1): ``{"schema": 1, "key", "tuning"}``; the tuning dict lacked
  ``objective_evaluations``.
* **v2** (PR 2): tuning gained ``objective_evaluations``.
* **v3** (this PR): a ``meta`` block (scheduler / workload / strategy /
  budget / suite) duplicated out of the tuning payload so store backends can
  index and query entries without parsing the (large) tuning blob.  Fully
  derivable from a v2 payload, hence the lossless upgrade.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ENTRY_SCHEMA_VERSION",
    "UPGRADEABLE_SCHEMAS",
    "entry_meta",
    "make_payload",
    "normalize_payload",
]

#: Version of the stored payload layout.  v3 added the ``meta`` block.
ENTRY_SCHEMA_VERSION = 3

#: Entry schemas :func:`normalize_payload` can upgrade losslessly to the
#: current version.  (v1 payloads deserialize fine — ``objective_evaluations``
#: was optional from the start — so they upgrade through the same path.)
UPGRADEABLE_SCHEMAS: tuple[int, ...] = (1, 2)

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
    """Validate ``payload`` and upgrade it to the current entry schema.

    Returns ``(normalized_payload, status)`` where status is one of

    * ``"ok"`` — already at :data:`ENTRY_SCHEMA_VERSION`;
    * ``"upgraded"`` — an older upgradeable schema, returned converted (the
      caller should write the converted payload back: the upgrade path);
    * ``"stale"`` — a recognisable entry at an unknown (e.g. future) schema,
      or one whose tuning block is missing.  The payload cannot be used but
      the entry is *data*, not garbage; stores count it separately from
      misses and surface it in their stats.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("tuning"), dict):
        return None, "stale"
    schema = payload.get("schema")
    if schema == ENTRY_SCHEMA_VERSION:
        return payload, "ok"
    if schema in UPGRADEABLE_SCHEMAS:
        upgraded = make_payload(payload.get("key", ""), payload["tuning"])
        return upgraded, "upgraded"
    return None, "stale"
