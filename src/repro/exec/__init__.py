"""Sweep execution layer: parallel experiment runs and a persistent result cache.

This package owns *how* experiment matrices get executed, independent of what
the analysis harnesses do with the results:

* :mod:`repro.exec.pairs` — one (method, network) tune + simulate, with
  deterministic per-pair seeding, as a picklable unit of work;
* :mod:`repro.exec.cache` — the persistent tuning-result cache keyed by a
  stable hash of hardware, scheduler, workload, strategy, budget and seed,
  stored through a pluggable backend (:mod:`repro.store`: a JSON
  directory, or one served over HTTP, selected by URI, with LRU eviction);
* :mod:`repro.exec.runner` — the :class:`ExperimentRunner`, which runs
  pairs inline or over a process pool (``jobs``) with identical results,
  with a streaming ``iter_matrix`` API (completed runs yielded as they
  finish).  Each pair's tiling search runs in the process of its pair.

Runners sweep a :class:`~repro.workloads.suites.WorkloadSuite` (``suite=``;
Table 1 by default), so every harness can run batched, cross-attention or
long-context registries through the exact same machinery.
"""

from repro.exec.cache import (
    KEY_SCHEMA_VERSION,
    ResultCache,
    tuning_cache_key,
)
from repro.exec.pairs import MethodRun, PairSpec, execute_pair, pair_seed
from repro.exec.runner import DEFAULT_METHOD_ORDER, ExperimentRunner
from repro.store import (
    EvictionPolicy,
    JsonDirStore,
    ResultStore,
    open_store,
)
from repro.workloads.suites import WorkloadSuite, get_suite, list_suites

__all__ = [
    "KEY_SCHEMA_VERSION",
    "EvictionPolicy",
    "JsonDirStore",
    "ResultStore",
    "open_store",
    "ResultCache",
    "tuning_cache_key",
    "MethodRun",
    "PairSpec",
    "execute_pair",
    "pair_seed",
    "DEFAULT_METHOD_ORDER",
    "ExperimentRunner",
    "WorkloadSuite",
    "get_suite",
    "list_suites",
]
