"""Persistent cache for tuning results, backed by a pluggable result store.

Every full method x network sweep re-tunes the same points on every process
start because the auto-tuner's memoization is in-memory only.  This module
stores each :class:`~repro.search.autotuner.TuningResult` under a stable hash
of everything that determines the search outcome — hardware configuration,
scheduler, workload shape, strategy, budget and seed — so warm sweeps (and
the benchmark suite) skip the search entirely.

*Where* entries live is delegated to :mod:`repro.store`: the
directory-of-JSON-files format (:class:`~repro.store.jsondir.JsonDirStore`)
or a served store over HTTP (``http://host:8787``, a running
``mas-attention serve``), selected by URI — see :mod:`repro.store.uri`.  This module owns what is stored: the
``TuningResult <-> JSON`` codec and the cache key.

Two schema versions exist, deliberately decoupled:

* :data:`KEY_SCHEMA_VERSION` is hashed into every key.  Bump it when the
  *meaning* of a key input changes and old results must stop matching.
* :data:`repro.store.schema.ENTRY_SCHEMA_VERSION` describes the stored
  payload layout.  A payload at any other layout reads as stale.
"""

from __future__ import annotations

import json
import hashlib
from pathlib import Path
from typing import Any

from repro.core.tiling import TilingConfig
from repro.hardware.config import HardwareConfig
from repro.obs import trace as obs_trace
from repro.search.autotuner import TuningResult
from repro.search.history import SearchHistory, SearchRecord
from repro.search.objective import TilingEvaluation
from repro.store import make_payload, open_store
from repro.utils.serialization import to_jsonable
from repro.workloads.attention import AttentionWorkload

__all__ = [
    "KEY_SCHEMA_VERSION",
    "ResultCache",
    "tuning_cache_key",
]

#: Hashed into every cache key.  Bump whenever the meaning of a key input
#: changes (a new simulator cost term, a re-interpreted field, ...): every
#: old entry then stops matching, which is the *invalidation* mechanism.
#: Layout-only changes bump ``ENTRY_SCHEMA_VERSION`` instead and keep keys —
#: and therefore all previously tuned work — valid.
#: v2: payload gained ``objective_evaluations`` (search-work accounting).
#: v3: edge head groups cover only the (batch, head) problems that exist, so
#: batched workloads whose ``hh`` (or ``bb``) leaves a remainder simulate less.
#: v4: every tuning is bound-pruned, so stored unpruned tunings are searched again.
#: v5: every search minimises cycles, so the key drops its tuning-objective field.
KEY_SCHEMA_VERSION = 5


def tuning_cache_key(
    hardware: HardwareConfig,
    scheduler: str,
    workload: AttentionWorkload,
    strategy: str,
    budget: int,
    seed: int,
) -> str:
    """Stable content hash of every input that determines a tuning result.

    The hardware and workload dataclasses are serialized field-by-field, so
    any change to the device model (L1 size, unit shapes, energy coefficients,
    ...) or the attention shape — batch, heads, either sequence length, emb,
    dtype — produces a different key.  The key takes the *full workload*, not
    a suite entry name: suites that derive identical entries (same shape, same
    deterministic name, hence the same per-pair seed) share cache files, so a
    result tuned under ``table1@batch=8`` is a warm hit for the batch-8 third
    of ``table1-batched`` and vice versa.
    """
    payload = {
        "schema": KEY_SCHEMA_VERSION,
        "hardware": to_jsonable(hardware),
        "scheduler": scheduler,
        "workload": to_jsonable(workload),
        "strategy": strategy,
        "budget": budget,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# TuningResult <-> JSON
# ---------------------------------------------------------------------- #
def _evaluation_to_dict(evaluation: TilingEvaluation) -> dict[str, Any]:
    return {
        "tiling": evaluation.tiling.as_dict(),
        "feasible": evaluation.feasible,
        "cycles": evaluation.cycles,
        "energy_pj": evaluation.energy_pj,
        "value": evaluation.value,
        "pruned": evaluation.pruned,
    }


def _evaluation_from_dict(data: dict[str, Any]) -> TilingEvaluation:
    return TilingEvaluation(
        tiling=TilingConfig(**data["tiling"]),
        feasible=bool(data["feasible"]),
        cycles=int(data["cycles"]),
        energy_pj=float(data["energy_pj"]),
        value=float(data["value"]),
        pruned=bool(data["pruned"]),
    )


def _history_to_dict(history: SearchHistory) -> dict[str, Any]:
    return {
        "algorithm": history.algorithm,
        "scheduler": history.scheduler,
        "workload": history.workload,
        "records": [
            {
                "iteration": rec.iteration,
                "tiling": rec.tiling.as_dict(),
                "value": rec.value,
                "best_value": rec.best_value,
                "phase": rec.phase,
            }
            for rec in history.records
        ],
        "best": _evaluation_to_dict(history.best),
    }


def _history_from_dict(data: dict[str, Any]) -> SearchHistory:
    return SearchHistory(
        algorithm=data["algorithm"],
        scheduler=data["scheduler"],
        workload=data["workload"],
        records=[
            SearchRecord(
                iteration=int(rec["iteration"]),
                tiling=TilingConfig(**rec["tiling"]),
                value=float(rec["value"]),
                best_value=float(rec["best_value"]),
                phase=rec["phase"],
            )
            for rec in data["records"]
        ],
        best=_evaluation_from_dict(data["best"]),
    )


def tuning_result_to_dict(result: TuningResult) -> dict[str, Any]:
    """JSON-ready view of a :class:`TuningResult` (history included)."""
    return {
        "scheduler": result.scheduler,
        "workload": result.workload,
        "strategy": result.strategy,
        "best_tiling": result.best_tiling.as_dict(),
        "best_value": result.best_value,
        "budget": result.budget,
        "objective_evaluations": result.objective_evaluations,
        "analytic_stats": result.analytic_stats,
        "history": _history_to_dict(result.history),
    }


def tuning_result_from_dict(data: dict[str, Any]) -> TuningResult:
    """Rebuild a :class:`TuningResult` written by :func:`tuning_result_to_dict`."""
    return TuningResult(
        scheduler=data["scheduler"],
        workload=data["workload"],
        strategy=data["strategy"],
        best_tiling=TilingConfig(**data["best_tiling"]),
        best_value=float(data["best_value"]),
        budget=data["budget"],
        objective_evaluations=data["objective_evaluations"],
        analytic_stats=data["analytic_stats"],
        history=_history_from_dict(data["history"]),
    )


# ---------------------------------------------------------------------- #
# The cache itself
# ---------------------------------------------------------------------- #
class ResultCache:
    """Tuning-result cache over a pluggable :class:`~repro.store.ResultStore`.

    Parameters
    ----------
    target:
        Where entries live: a directory path (the historical JSON-file
        format) or a store URI — ``dir:/path`` or ``http://host:8787``,
        optionally with ``?max_entries=``/``?max_bytes=`` eviction caps (see
        :mod:`repro.store.uri`).  ``None`` disables the cache entirely (every
        lookup misses, stores are no-ops), which keeps call sites free of
        ``if cache`` branching.

    Counters
    --------
    ``hits`` / ``misses`` count usable lookups; ``stale`` counts entries that
    exist but carry an unusable schema — reported separately because a stale
    entry is lost *work* (likely a version skew), not a cold cache.
    """

    def __init__(self, target: str | Path | None) -> None:
        self.backend = open_store(target)
        self.hits = 0
        self.misses = 0
        self.stale = 0

    def load(self, key: str) -> TuningResult | None:
        """Return the cached result for ``key``, or ``None`` on a miss.

        Schema-stale entries also return ``None`` but are tallied in
        ``stale`` rather than ``misses``.
        """
        if self.backend is None:
            return None
        result: TuningResult | None = None
        with obs_trace.span(
            "store.lookup", layer="store", backend=self.backend.backend
        ) as span:
            payload, status = self.backend.lookup(key)
            if status == "stale":
                self.stale += 1
                outcome = "stale"
            elif payload is None:
                self.misses += 1
                outcome = "miss"
            else:
                try:
                    result = tuning_result_from_dict(payload["tuning"])
                except (KeyError, TypeError, ValueError):  # corrupt tuning blob
                    self.misses += 1
                    outcome = "corrupt"
                else:
                    self.hits += 1
                    outcome = "hit"
            span.set(status=outcome)
        return result

    def store(self, key: str, result: TuningResult, suite: str | None = None) -> None:
        """Persist ``result`` under ``key`` (a no-op when the cache is off).

        ``suite`` (the sweep's suite name, if any) is recorded in the entry
        metadata so indexed backends can answer per-suite queries; it is not
        part of the key — identical shapes reached through different suites
        still share one entry.
        """
        if self.backend is None:
            return
        payload = make_payload(key, tuning_result_to_dict(result), suite=suite)
        with obs_trace.span("store.put", layer="store", backend=self.backend.backend):
            self.backend.put(key, payload)

    def stats(self) -> dict[str, int]:
        """This process's lookup counters (hits / misses / stale)."""
        return {"hits": self.hits, "misses": self.misses, "stale": self.stale}

    def close(self) -> None:
        """Release the backend's resources (idempotent; counters survive)."""
        if self.backend is not None:
            self.backend.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        location = self.backend.uri() if self.backend is not None else None
        return (
            f"ResultCache(store={location!r}, "
            f"hits={self.hits}, misses={self.misses}, stale={self.stale})"
        )
