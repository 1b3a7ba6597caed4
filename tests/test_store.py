"""Tests for the pluggable result-store subsystem (:mod:`repro.store`).

Covers the backend contract for both stores (JSON directory, and HTTP
against a live in-process service over a directory), store-key validation,
LRU eviction, URI parsing, entry-schema validation, bit-identical sweeps
over every backend, and concurrent writers sharing one directory.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro.exec import ExperimentRunner, ResultCache
from repro.exec import cache as cache_module
from repro.exec.cache import KEY_SCHEMA_VERSION, tuning_result_to_dict
from repro.search import autotuner
from repro.search.autotuner import AutoTuner
from repro.search.objective import SchedulerObjective
from repro.service import running_server, server_url
from repro.service.server import StoreRequestHandler
from repro.store import (
    ENTRY_SCHEMA_VERSION,
    EntryInfo,
    EvictionPolicy,
    HttpStore,
    JsonDirStore,
    make_payload,
    normalize_payload,
    ResultStore,
    open_store,
    parse_size,
    plan_eviction,
)
from repro.store.http import API_PREFIX
from repro.workloads.attention import AttentionWorkload

FAST_NETWORKS = ["ViT-B/14", "ViT-B/16"]
FAST_METHODS = ["flat", "mas"]
BUDGET = 5


def payload_for(key: str, value: int = 0) -> dict:
    """A minimal but schema-valid entry payload."""
    return make_payload(
        key,
        {
            "scheduler": "mas",
            "workload": f"wl-{value}",
            "strategy": "mcts+ga",
            "budget": value,
        },
    )


@pytest.fixture
def store_server(tmp_path):
    """A live store service over a fresh JSON directory (one per test)."""
    with running_server(JsonDirStore(tmp_path / "served")) as server:
        yield server


@pytest.fixture(params=["jsondir", "http"])
def store(request, tmp_path):
    """One instance of each backend, same contract expected of both.

    Both keep their entries in ``tmp_path / "store"``: the JSON directory
    directly, the HTTP client through a real in-process service fronting
    it, so every contract test exercises the full client/server path.
    """
    backing = JsonDirStore(tmp_path / "store")
    if request.param == "jsondir":
        yield backing
    else:
        with running_server(backing) as server:
            s = HttpStore(server_url(server))
            try:
                yield s
            finally:
                s.close()


def write_raw(tmp_path, key: str, payload: dict) -> None:
    """Store ``payload`` as-is through the ``JsonDirStore`` behind the
    ``store`` fixture.

    Stale and future-schema payloads never travel over the wire (a sweep
    only ever puts current-schema entries), so tests plant them locally.
    """
    JsonDirStore(tmp_path / "store").put(key, payload)


def age_entries(tmp_path, keys: list[str]) -> None:
    """Give ``keys`` increasing last-used times long past, in list order."""
    for i, key in enumerate(keys):
        os.utime(tmp_path / "store" / f"{key}.json", (1000.0 + i, 1000.0 + i))


def capped_twin(store, policy: EvictionPolicy):
    """A second store of ``store``'s backend over the same entries, with
    ``policy`` as its own caps."""
    location = getattr(store, "root", None) or store.base_url
    return type(store)(location, policy=policy)


def test_contract_is_the_operations_callers_use():
    """The base declares what sweeps and the ``cache`` CLI call, and a
    backend implements nothing more: no raw-entry primitives."""
    assert ResultStore.__abstractmethods__ == {
        "uri", "lookup", "put", "entries", "stats", "evict", "clear", "__len__",
    }


def test_jsondir_serves_entries_written_indented(tmp_path):
    """Entries are written compact; one written in the earlier indented
    format is still served as it was stored."""
    store = JsonDirStore(tmp_path / "store")
    store.put("a", payload_for("a", 1))
    assert "\n" not in (tmp_path / "store" / "a.json").read_text()
    (tmp_path / "store" / "b.json").write_text(
        json.dumps(payload_for("b", 2), indent=2, sort_keys=True)
    )
    payload, status = store.lookup("b")
    assert status == "hit" and payload == payload_for("b", 2)
    assert len(store) == 2


# ---------------------------------------------------------------------- #
# Backend contract
# ---------------------------------------------------------------------- #
class TestStoreContract:
    def test_roundtrip_and_len(self, store):
        assert store.lookup("a") == (None, "miss") and len(store) == 0
        assert store.put("a", payload_for("a", 1)) == []  # uncapped: no evictions
        store.put("b", payload_for("b", 2))
        assert len(store) == 2
        assert store.lookup("missing") == (None, "miss")
        assert store.lookup("a")[0]["meta"]["workload"] == "wl-1"
        assert sorted(info.key for info in store.entries()) == ["a", "b"]

    def test_overwrite_last_writer_wins(self, store):
        store.put("k", payload_for("k", 1))
        store.put("k", payload_for("k", 2))
        assert len(store) == 1
        assert store.lookup("k")[0]["meta"]["budget"] == 2

    def test_clear_removes_every_entry(self, store, tmp_path):
        store.put("a", payload_for("a"))
        write_raw(tmp_path, "odd", {"schema": 99, "key": "odd", "tuning": {}})
        assert store.clear() == 2  # stale entries included
        assert len(store) == 0 and store.entries() == []
        assert store.clear() == 0

    def test_entries_metadata(self, store):
        store.put("a", payload_for("a", 3))
        (info,) = store.entries()
        assert isinstance(info, EntryInfo)
        assert info.key == "a"
        assert info.schema == ENTRY_SCHEMA_VERSION
        assert info.scheduler == "mas"
        assert info.workload == "wl-3"
        assert info.strategy == "mcts+ga"
        assert info.size_bytes > 0

    def test_stats(self, store):
        store.put("a", payload_for("a"))
        store.put("b", payload_for("b"))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.stale_entries == 0
        assert stats.backend == store.backend
        assert stats.location == store.uri()

    def test_lookup_statuses(self, store):
        assert store.lookup("nope") == (None, "miss")
        store.put("k", payload_for("k"))
        payload, status = store.lookup("k")
        assert status == "hit" and payload["schema"] == ENTRY_SCHEMA_VERSION

    def test_future_schema_entry_is_stale_and_surfaced(self, store, tmp_path):
        write_raw(tmp_path, "k", {"schema": 99, "key": "k", "tuning": {}})
        assert store.lookup("k") == (None, "stale")
        # the entry is data, not garbage: kept, listed and counted
        assert [info.key for info in store.entries()] == ["k"]
        assert len(store) == 1
        assert store.stats().stale_entries == 1

    def test_pre_v3_entry_is_stale_and_left_as_written(self, store, tmp_path):
        """A v2-layout entry sits under a key no lookup computes any more: it
        reads as stale and stays on disk byte for byte (no write-back)."""
        v2 = {"schema": 2, "key": "k", "tuning": payload_for("k", 7)["tuning"]}
        write_raw(tmp_path, "k", v2)
        before = (tmp_path / "store" / "k.json").read_bytes()
        assert store.lookup("k") == (None, "stale")
        assert (tmp_path / "store" / "k.json").read_bytes() == before
        assert store.stats().stale_entries == 1
        (info,) = store.entries()
        assert info.key == "k" and info.schema is None

    def test_entries_filterable_on_every_backend(self, store, tmp_path):
        store.put("a", payload_for("a", 1))
        write_raw(tmp_path, "odd", {"schema": 99, "key": "odd", "tuning": {}})
        assert {e.key for e in store.entries(scheduler="mas")} == {"a"}
        assert store.entries(workload="nope") == []
        assert store.entries(scheduler=None) == store.entries()  # None ignored
        with pytest.raises(ValueError):
            store.entries(flavour="vanilla")

    def test_tuningless_envelope_counts_stale_in_stats(self, store, tmp_path):
        """A current-schema envelope without a tuning block is stale for
        lookup() — stats must agree, not trust the raw schema number."""
        write_raw(tmp_path, "k", {"schema": ENTRY_SCHEMA_VERSION, "key": "k"})
        assert store.lookup("k") == (None, "stale")
        assert store.stats().stale_entries == 1
        (info,) = store.entries()
        assert info.schema is None

    def test_uri_roundtrips_through_open_store(self, store, tmp_path):
        store.put("k", payload_for("k", 5))
        reopened = open_store(store.uri())
        assert type(reopened) is type(store)
        assert reopened.lookup("k")[0]["meta"]["budget"] == 5

    def test_uri_roundtrips_eviction_policy(self, store):
        """uri() carries the caps, so a reopened capped store stays capped."""
        capped = capped_twin(store, EvictionPolicy(max_entries=7, max_bytes=2048))
        assert "max_entries=7" in capped.uri() and "max_bytes=2048" in capped.uri()
        reopened = open_store(capped.uri())
        assert reopened.policy == capped.policy

    @pytest.mark.parametrize(
        "key", ["../escape", "a/b", ".hidden", ""],
        ids=["parent-dir", "separator", "hidden", "empty"],
    )
    def test_key_must_be_a_plain_file_name(self, store, key, tmp_path):
        """A key names one file inside the store directory, never a path out
        of it — over the wire too, where the service rejects it with a 400."""
        with pytest.raises(ValueError, match="invalid store key"):
            store.put(key, payload_for("k"))
        with pytest.raises(ValueError, match="invalid store key"):
            store.lookup(key)
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


# ---------------------------------------------------------------------- #
# Eviction
# ---------------------------------------------------------------------- #
def _info(key: str, size: int, used: float) -> EntryInfo:
    return EntryInfo(
        key=key, schema=3, scheduler=None, workload=None, strategy=None,
        suite=None, size_bytes=size, last_used=used,
    )


class TestEvictionPlanner:
    def test_unbounded_policy_evicts_nothing(self):
        entries = [_info("a", 100, 1.0), _info("b", 100, 2.0)]
        assert plan_eviction(entries, EvictionPolicy()) == []

    def test_max_entries_drops_lru_first(self):
        entries = [_info("new", 10, 3.0), _info("old", 10, 1.0), _info("mid", 10, 2.0)]
        assert plan_eviction(entries, EvictionPolicy(max_entries=2)) == ["old"]
        assert plan_eviction(entries, EvictionPolicy(max_entries=1)) == ["old", "mid"]
        assert plan_eviction(entries, EvictionPolicy(max_entries=0)) == ["old", "mid", "new"]

    def test_max_bytes_drops_lru_first(self):
        entries = [_info("a", 600, 1.0), _info("b", 600, 2.0), _info("c", 600, 3.0)]
        assert plan_eviction(entries, EvictionPolicy(max_bytes=1200)) == ["a"]
        assert plan_eviction(entries, EvictionPolicy(max_bytes=100)) == ["a", "b", "c"]

    def test_both_caps_compose(self):
        entries = [_info("a", 1000, 1.0), _info("b", 10, 2.0), _info("c", 10, 3.0)]
        # max_entries alone keeps b+c; max_bytes alone would evict only a.
        plan = plan_eviction(entries, EvictionPolicy(max_entries=2, max_bytes=15))
        assert plan == ["a", "b"]

    def test_negative_caps_rejected(self):
        with pytest.raises(ValueError):
            EvictionPolicy(max_entries=-1)
        with pytest.raises(ValueError):
            EvictionPolicy(max_bytes=-5)

    def test_parse_size(self):
        assert parse_size(123) == 123
        assert parse_size("123") == 123
        assert parse_size("1k") == 1024
        assert parse_size("1KiB") == 1024
        assert parse_size("2MiB") == 2 * 1024**2
        assert parse_size("1.5G") == int(1.5 * 1024**3)
        with pytest.raises(ValueError):
            parse_size("lots")

    def test_parse_size_binary_vs_decimal_units(self):
        """`kB`/`MB`/... are decimal (powers of 1000); bare letters and the
        IEC `KiB` family stay binary.  `1kb` must never silently mean 1024."""
        assert parse_size("1kb") == 1000
        assert parse_size("1KB") == 1000
        assert parse_size("1Kb") == 1000
        assert parse_size("2MB") == 2 * 1000**2
        assert parse_size("3GB") == 3 * 1000**3
        assert parse_size("1TB") == 1000**4
        assert parse_size("1K") == parse_size("1Ki") == parse_size("1KiB") == 1024
        assert parse_size("1TiB") == 1024**4
        with pytest.raises(ValueError, match="unknown size unit"):
            parse_size("1KiBB")
        with pytest.raises(ValueError, match="unknown size unit"):
            parse_size("1kbyte")

    def test_parse_size_boundaries(self):
        assert parse_size("0") == 0
        assert parse_size("0b") == 0
        assert parse_size(" 1.5GiB ") == int(1.5 * 1024**3)
        assert parse_size("1.5 GiB") == int(1.5 * 1024**3)  # embedded space
        assert parse_size("10 B") == 10
        with pytest.raises(ValueError):
            parse_size("")
        with pytest.raises(ValueError):
            parse_size("GiB")  # unit without a number
        with pytest.raises(ValueError):
            parse_size("-1k")  # sizes are magnitudes

    def test_policy_query_roundtrip(self):
        policy = EvictionPolicy(max_entries=5, max_bytes=2048)
        assert policy.bounded
        assert EvictionPolicy.from_query(dict(
            kv.split("=") for kv in policy.as_query().lstrip("?").split("&")
        )) == policy
        parsed = EvictionPolicy.from_query({"max_bytes": "1kb"})
        assert parsed == EvictionPolicy(max_bytes=1000)
        with pytest.raises(ValueError):
            EvictionPolicy(max_entries=-1)


class TestStoreEviction:
    def test_evict_honours_caps_lru_first(self, store, tmp_path):
        for i, key in enumerate(["a", "b", "c", "d"]):
            store.put(key, payload_for(key, i))
        age_entries(tmp_path, ["a", "b", "c", "d"])
        assert store.lookup("a")[1] == "hit"  # the hit makes "a" most recent
        evicted = store.evict(EvictionPolicy(max_entries=2))
        assert evicted == ["b", "c"]  # LRU order, "a" survives its age
        assert sorted(info.key for info in store.entries()) == ["a", "d"]

    def test_only_hits_refresh_lru_order(self, store, tmp_path):
        """Stale and missing lookups leave LRU order alone: a stale entry a
        sweep keeps probing still ages out before a fresh one."""
        store.put("fresh", payload_for("fresh"))
        write_raw(tmp_path, "stale", {"schema": 99, "key": "stale", "tuning": {}})
        age_entries(tmp_path, ["stale", "fresh"])
        for _ in range(3):
            assert store.lookup("stale") == (None, "stale")
            assert store.lookup("absent") == (None, "miss")
        assert len(store) == 2  # a miss creates nothing
        assert store.evict(EvictionPolicy(max_entries=1)) == ["stale"]

    def test_put_reports_the_evictions_its_caps_cause(self, store, tmp_path):
        capped = capped_twin(store, EvictionPolicy(max_entries=2))
        assert capped.put("a", payload_for("a", 1)) == []
        assert capped.put("b", payload_for("b", 2)) == []
        age_entries(tmp_path, ["a", "b"])
        assert capped.put("c", payload_for("c", 3)) == ["a"]
        assert sorted(info.key for info in store.entries()) == ["b", "c"]
        capped.close()

    def test_evict_without_policy_enforces_the_stores_own_caps(self, store, tmp_path):
        keys = ["k0", "k1", "k2", "k3"]
        for i, key in enumerate(keys):
            store.put(key, payload_for(key, i))
        age_entries(tmp_path, keys)
        assert store.evict() == []  # an uncapped store has nothing to enforce
        capped = capped_twin(store, EvictionPolicy(max_entries=2))
        assert capped.evict() == ["k0", "k1"]
        assert sorted(info.key for info in store.entries()) == ["k2", "k3"]
        capped.close()

    def test_evict_by_bytes(self, store):
        for key in ["a", "b", "c"]:
            store.put(key, payload_for(key))
        total = store.stats().total_bytes
        evicted = store.evict(EvictionPolicy(max_bytes=total // 3))
        assert len(evicted) == 2
        assert store.stats().total_bytes <= total // 3

    def test_uri_policy_enforced_on_put(self, tmp_path):
        uri = f"dir:{tmp_path / 'capped'}?max_entries=2"
        store = open_store(uri)
        assert store.policy == EvictionPolicy(max_entries=2)
        evicted = [store.put(key, payload_for(key, i)) for i, key in enumerate("abcd")]
        assert sum(map(len, evicted)) == 2  # each put reports what it evicted
        assert len(store) == 2  # the cap held during writes, not just after


# ---------------------------------------------------------------------- #
# URIs
# ---------------------------------------------------------------------- #
class TestStoreUris:
    def test_plain_path_and_dir_scheme_are_jsondir(self, tmp_path):
        for target in (str(tmp_path), f"dir:{tmp_path}", tmp_path):
            store = open_store(target)
            assert isinstance(store, JsonDirStore)
            assert store.root == tmp_path
        # dir: is the one spelling of the scheme
        with pytest.raises(ValueError, match="unknown store URI scheme"):
            open_store(f"jsondir:{tmp_path}")
        # a single-letter scheme is a drive letter; dir: spells a colon name
        assert str(open_store("c:cache").root) == "c:cache"
        assert str(open_store("dir:v2:cache").root) == "v2:cache"

    def test_none_and_empty_mean_no_store(self):
        assert open_store(None) is None
        assert open_store("") is None
        assert open_store("   ") is None

    def test_policy_query_params(self, tmp_path):
        store = open_store(f"dir:{tmp_path}/c?max_entries=10&max_bytes=1KiB")
        assert store.policy == EvictionPolicy(max_entries=10, max_bytes=1024)

    def test_policy_params_work_on_bare_paths(self, tmp_path):
        """Caps apply (and typos fail) even without a dir: scheme prefix."""
        store = open_store(f"{tmp_path}/plain?max_entries=3")
        assert isinstance(store, JsonDirStore)
        assert store.root == tmp_path / "plain"
        assert store.policy == EvictionPolicy(max_entries=3)
        with pytest.raises(ValueError):
            open_store(f"{tmp_path}/plain?max_bytez=1G")  # typo'd cap: loud
        # a bare '?' with no key=value stays a literal path component
        literal = open_store(f"{tmp_path}/odd?name")
        assert literal.root.name == "odd?name"

    def test_bad_uris_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            open_store(f"dir:{tmp_path}/c?max_funk=1")
        with pytest.raises(ValueError):
            open_store("dir://host/c")  # network locations unsupported
        with pytest.raises(ValueError):
            open_store("dir:")

    def test_http_scheme_opens_http_store(self):
        store = open_store("http://127.0.0.1:8787")
        assert isinstance(store, HttpStore)
        assert store.uri() == "http://127.0.0.1:8787"
        # policy params ride on network URIs exactly as on local ones
        capped = open_store("http://cachehost:8787?max_entries=10&max_bytes=1KiB")
        assert capped.policy == EvictionPolicy(max_entries=10, max_bytes=1024)
        assert capped.uri() == "http://cachehost:8787?max_entries=10&max_bytes=1024"
        # a path prefix (reverse proxy) is kept, trailing slashes are not
        prefixed = open_store("https://proxy.example/mas/")
        assert prefixed.uri() == "https://proxy.example/mas"

    def test_bad_http_uris_rejected(self):
        with pytest.raises(ValueError):
            open_store("http://")  # no host
        with pytest.raises(ValueError):
            open_store("http://host:8787?max_funk=1")  # typo'd cap: loud

    @pytest.mark.parametrize(
        "uri",
        [
            "shard:http://a:8787,http://b:8787",
            "htp://host:8787",
            "sqlite3:///x.db",
            "sqlite:///x.db",
        ],
    )
    def test_unknown_scheme_rejected_not_read_as_a_directory(
        self, uri, tmp_path, monkeypatch
    ):
        """A mistyped or retired scheme must fail loudly, never become a
        relative directory the sweep then caches into."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="unknown store URI scheme"):
            open_store(uri)
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------- #
# Entry schema
# ---------------------------------------------------------------------- #
class TestEntrySchema:
    def test_current_payload_is_ok(self):
        payload, status = normalize_payload(payload_for("k"))
        assert status == "ok" and payload["schema"] == ENTRY_SCHEMA_VERSION

    def test_unknown_or_malformed_is_stale(self):
        assert normalize_payload({"schema": 99, "tuning": {}}) == (None, "stale")
        # pre-v3 layouts sit under keys no lookup computes: stale, not upgraded
        assert normalize_payload({"schema": 2, "key": "k", "tuning": {}}) == (None, "stale")
        assert normalize_payload({"schema": ENTRY_SCHEMA_VERSION}) == (None, "stale")
        assert normalize_payload(["not", "a", "dict"]) == (None, "stale")


@pytest.fixture
def tuning(edge_hw):
    workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="store-wl")
    return AutoTuner(edge_hw, budget=8, seed=3).tune("mas", workload)


# ---------------------------------------------------------------------- #
# End-to-end sweeps: bit-identity
# ---------------------------------------------------------------------- #
def _matrix_fingerprint(matrix) -> dict:
    return {
        (network, method): (
            run.cycles,
            run.energy_pj,
            run.tuning.best_tiling if run.tuned else None,
            run.tuning.best_value if run.tuned else None,
            [r.value for r in run.tuning.history.records] if run.tuned else None,
        )
        for network, runs in matrix.items()
        for method, run in runs.items()
    }


class TestSweepBitIdentity:
    def test_backends_and_no_cache_agree_at_any_jobs_count(self, tmp_path):
        kwargs = dict(search_budget=BUDGET, seed=0)
        reference = _matrix_fingerprint(
            ExperimentRunner(**kwargs).run_matrix(FAST_NETWORKS, FAST_METHODS)
        )
        runners = [
            ExperimentRunner(**kwargs, cache_uri=tmp_path / "jsondir"),
            ExperimentRunner(**kwargs, jobs=2, cache_uri=f"dir:{tmp_path}/jsondir-par"),
        ]
        for runner in runners:
            assert _matrix_fingerprint(runner.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference
        # warm re-runs over every backend are bit-identical too, with 100% hits
        for cold in runners:
            warm = ExperimentRunner(**kwargs, cache_uri=cold.cache_target, jobs=cold.jobs)
            assert _matrix_fingerprint(warm.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference
            stats = warm.cache_stats()
            assert stats["searches"] == 0 and stats["cache_misses"] == 0

    def test_parallel_worker_stats_aggregate_to_parent(self, tmp_path):
        """Worker-process cache counters surface in the parent's cache_stats."""
        kwargs = dict(search_budget=BUDGET, seed=0, cache_uri=f"dir:{tmp_path}/s")
        cold = ExperimentRunner(**kwargs, jobs=2)
        cold.run_matrix(FAST_NETWORKS, FAST_METHODS)
        cold_stats = cold.cache_stats()
        assert cold_stats["cache_misses"] == cold_stats["searches"] > 0
        assert cold_stats["cache_hits"] == 0 and cold_stats["cache_stale"] == 0

        warm = ExperimentRunner(**kwargs, jobs=2)
        warm.run_matrix(FAST_NETWORKS, FAST_METHODS)
        warm_stats = warm.cache_stats()
        assert warm_stats["cache_hits"] == cold_stats["searches"]
        assert warm_stats["cache_misses"] == 0

    def test_directory_store_sweeps_report_zero_retries(self, tmp_path):
        """Only an HTTP store retries: a directory-backed sweep still reports
        every cache_stats() field, with both retry counters at 0."""
        runner = ExperimentRunner(
            search_budget=BUDGET, seed=0, jobs=2, cache_uri=f"dir:{tmp_path}/s"
        )
        runner.run_matrix(FAST_NETWORKS, FAST_METHODS)
        stats = runner.cache_stats()
        assert set(stats) == {
            "runs", "cache_hits", "cache_misses", "cache_stale",
            "retry_attempts", "retry_giveups", "searches", "search_evaluations",
            "search_simulated", "search_shared", "search_infeasible", "search_pruned",
        }
        assert stats["cache_misses"] == stats["searches"] > 0
        assert stats["retry_attempts"] == stats["retry_giveups"] == 0

    def test_pre_v3_cache_is_searched_again_not_served(self, tmp_path):
        """Entries rewritten in the pre-v3 flat layout read as stale: the warm
        run searches again, finds the same tiling and overwrites them at v3."""
        cache_dir = tmp_path / "cache"
        cold = ExperimentRunner(search_budget=BUDGET, seed=0, cache_uri=cache_dir)
        run = cold.run("mas", "ViT-B/14")
        store = JsonDirStore(cache_dir)
        keys = [info.key for info in store.entries()]
        for key in keys:
            payload, _ = store.lookup(key)
            store.put(key, {"schema": 2, "key": key, "tuning": payload["tuning"]})
        assert store.stats().stale_entries == len(keys) > 0

        warm = ExperimentRunner(search_budget=BUDGET, seed=0, cache_uri=cache_dir)
        warm_run = warm.run("mas", "ViT-B/14")
        assert not warm_run.cached
        assert warm_run.cycles == run.cycles
        assert warm_run.tuning.best_tiling == run.tuning.best_tiling
        stats = warm.cache_stats()
        assert stats["cache_stale"] == stats["searches"] == len(keys)
        assert store.stats().stale_entries == 0  # the fresh results replaced them

    def test_v3_tuning_is_searched_again_not_served(self, tmp_path, monkeypatch):
        """A tuning the unpruned search stored under its v3 key is never served
        to the pruned search: the run misses, searches again and stores its
        result under the current key beside the old entry, which stays as written."""
        cache_dir = tmp_path / "cache"
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "KEY_SCHEMA_VERSION", 3)
            patch.setattr(
                autotuner, "SchedulerObjective", partial(SchedulerObjective, analytic_prune=False)
            )
            old = ExperimentRunner(search_budget=BUDGET, seed=0, cache_uri=cache_dir)
            assert old.run("mas", "ViT-B/14").tuning.analytic_stats["num_pruned"] == 0
        store = JsonDirStore(cache_dir)
        (v3_key,) = [info.key for info in store.entries()]
        v3_payload, _ = store.lookup(v3_key)

        warm = ExperimentRunner(search_budget=BUDGET, seed=0, cache_uri=cache_dir)
        assert not warm.run("mas", "ViT-B/14").cached
        stats = warm.cache_stats()
        assert stats["searches"] == stats["cache_misses"] == 1
        assert stats["cache_hits"] == stats["cache_stale"] == 0
        assert {info.key for info in store.entries()} - {v3_key}
        assert store.lookup(v3_key)[0] == v3_payload


    def test_tuning_stored_before_sharing_is_served(self, tmp_path):
        """Sharing a simulation between tilings that build the same graph
        changes no tuning, so the key schema stays: an entry written before
        ``num_shared`` existed, its shared candidates counted as simulated,
        is served, not searched again."""
        cache_dir = tmp_path / "cache"
        kwargs = dict(search_budget=BUDGET, seed=0, cache_uri=cache_dir, suite="decode-step")
        cold = ExperimentRunner(**kwargs)
        run = cold.run("tileflow", "BERT-Base @dec")
        assert cold.cache_stats()["search_shared"] > 0
        store = JsonDirStore(cache_dir)
        (key,) = [info.key for info in store.entries()]
        payload, _ = store.lookup(key)
        stats = payload["tuning"]["analytic_stats"]
        stats["num_simulated"] += stats.pop("num_shared")
        store.put(key, payload)

        warm = ExperimentRunner(**kwargs)
        warm_run = warm.run("tileflow", "BERT-Base @dec")
        assert warm_run.cached
        assert (warm_run.cycles, warm_run.energy_pj) == (run.cycles, run.energy_pj)
        assert warm_run.tuning.best_tiling == run.tuning.best_tiling
        assert "num_shared" not in warm_run.tuning.analytic_stats
        stats = warm.cache_stats()
        assert stats["cache_hits"] == 1
        assert stats["searches"] == stats["search_shared"] == 0


class TestHttpSweepBitIdentity:
    """The acceptance matrix: http:// serves the same sweeps as local stores."""

    def test_all_backends_and_no_cache_agree_at_jobs_1_and_4(
        self, store_server, tmp_path
    ):
        kwargs = dict(search_budget=BUDGET, seed=0)
        reference = _matrix_fingerprint(
            ExperimentRunner(**kwargs, jobs=1, use_cache=False).run_matrix(
                FAST_NETWORKS, FAST_METHODS
            )
        )
        uris = [f"dir:{tmp_path}/jsondir", server_url(store_server)]
        for jobs in (1, 4):
            nocache = ExperimentRunner(**kwargs, jobs=jobs, use_cache=False)
            assert (
                _matrix_fingerprint(nocache.run_matrix(FAST_NETWORKS, FAST_METHODS))
                == reference
            )
            for uri in uris:
                # jobs=1 runs cold (first sight of each store), jobs=4 warm —
                # both must be bit-identical to the uncached serial sweep.
                runner = ExperimentRunner(**kwargs, jobs=jobs, cache_uri=uri)
                assert (
                    _matrix_fingerprint(runner.run_matrix(FAST_NETWORKS, FAST_METHODS))
                    == reference
                ), f"mismatch at jobs={jobs} uri={uri}"

    def test_warm_http_sweep_reports_full_hits_across_workers(self, store_server):
        kwargs = dict(search_budget=BUDGET, seed=0, cache_uri=server_url(store_server))
        cold = ExperimentRunner(**kwargs, jobs=2)
        cold.run_matrix(FAST_NETWORKS, FAST_METHODS)
        cold_stats = cold.cache_stats()
        assert cold_stats["cache_misses"] == cold_stats["searches"] > 0

        warm = ExperimentRunner(**kwargs, jobs=2)
        warm.run_matrix(FAST_NETWORKS, FAST_METHODS)
        warm_stats = warm.cache_stats()
        assert warm_stats["cache_hits"] == cold_stats["searches"]
        assert warm_stats["cache_misses"] == 0 and warm_stats["searches"] == 0

        # ... and the *service* saw those worker lookups too (fleet metrics).
        metrics = store_server.service.metrics.snapshot()
        assert metrics["hits"] >= warm_stats["cache_hits"]
        assert metrics["misses"] >= cold_stats["cache_misses"]

    def test_retries_in_pool_workers_reach_cache_stats(self, tmp_path):
        """The service answers 503 to its first 3 lookups: the jobs=2 workers
        back off and retry, and the parent's cache_stats() counts each retry
        once, with results identical to an uncached sweep."""
        lookups = itertools.count()

        class FirstLookupsUnavailable(StoreRequestHandler):
            def do_POST(self):
                if self.path == f"{API_PREFIX}/lookup" and next(lookups) < 3:
                    self.rfile.read(int(self.headers["Content-Length"]))
                    self._send_json(503, {"error": "warming up"})
                    return
                super().do_POST()

        kwargs = dict(search_budget=BUDGET, seed=0)
        reference = _matrix_fingerprint(
            ExperimentRunner(**kwargs, use_cache=False).run_matrix(
                FAST_NETWORKS, FAST_METHODS
            )
        )
        with running_server(JsonDirStore(tmp_path / "served")) as server:
            # The server builds one handler of this class per connection.
            server.RequestHandlerClass = FirstLookupsUnavailable
            runner = ExperimentRunner(**kwargs, jobs=2, cache_uri=server_url(server))
            matrix = runner.run_matrix(FAST_NETWORKS, FAST_METHODS)
        assert _matrix_fingerprint(matrix) == reference
        stats = runner.cache_stats()
        assert stats["retry_attempts"] == 3
        assert stats["retry_giveups"] == 0

    def test_unreachable_service_fails_the_runner_eagerly(self):
        with pytest.raises(ValueError, match="unreachable"):
            ExperimentRunner(search_budget=BUDGET, cache_uri="http://127.0.0.1:9")

    def test_non_store_http_server_fails_the_runner_eagerly(self):
        """An HTTP server that answers /healthz with 200 text/html (a random
        web server, not a store service) gets the same clear error."""
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class WebPage(BaseHTTPRequestHandler):
            def do_GET(self):
                data = b"<html>hello</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        srv = ThreadingHTTPServer(("127.0.0.1", 0), WebPage)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(ValueError, match="unreachable"):
                ExperimentRunner(
                    search_budget=BUDGET,
                    cache_uri=f"http://127.0.0.1:{srv.server_address[1]}",
                )
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)

    def test_non_http_endpoint_fails_the_runner_eagerly(self):
        """A port speaking something other than HTTP (BadStatusLine) must
        produce the same clear 'unreachable' error, not a raw traceback."""
        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        stop = threading.Event()

        def garbage_server():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                conn.sendall(b"definitely not http\n")
                conn.close()

        thread = threading.Thread(target=garbage_server, daemon=True)
        thread.start()
        try:
            with pytest.raises(ValueError, match="unreachable"):
                ExperimentRunner(
                    search_budget=BUDGET, cache_uri=f"http://127.0.0.1:{port}"
                )
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()


# ---------------------------------------------------------------------- #
# Concurrency
# ---------------------------------------------------------------------- #
def _hammer_store(args: tuple[str, int, int]) -> int:
    """Worker: interleave writes and reads of a shared key set."""
    root, worker, rounds = args
    store = JsonDirStore(root)
    ok = 0
    for i in range(rounds):
        key = f"key{i % 8}"
        store.put(key, payload_for(key, i % 8))
        payload, _ = store.lookup(key)
        ok += payload is not None and payload["meta"]["budget"] == i % 8
    return ok


class TestSharedStoreConcurrency:
    def test_concurrent_writers_produce_consistent_entries(self, tmp_path):
        root = str(tmp_path / "hammer")
        rounds = 25
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(_hammer_store, [(root, w, rounds) for w in range(4)])
            )
        assert results == [rounds] * 4  # every read saw a complete entry
        store = JsonDirStore(root)
        assert len(store) == 8
        for i in range(8):
            payload, status = store.lookup(f"key{i}")
            assert status == "hit"
            assert payload["meta"]["budget"] == i
        assert store.stats().stale_entries == 0

    def test_parallel_sweep_sharing_one_store_matches_serial(self, tmp_path):
        kwargs = dict(search_budget=BUDGET, seed=0)
        serial = _matrix_fingerprint(
            ExperimentRunner(**kwargs).run_matrix(FAST_NETWORKS, FAST_METHODS)
        )
        uri = f"dir:{tmp_path}/shared"
        parallel = ExperimentRunner(**kwargs, jobs=4, cache_uri=uri)
        assert _matrix_fingerprint(parallel.run_matrix(FAST_NETWORKS, FAST_METHODS)) == serial


# ---------------------------------------------------------------------- #
# ResultCache facade over URIs
# ---------------------------------------------------------------------- #
class TestResultCacheOverStores:
    def test_cache_accepts_dir_uri(self, tmp_path, tuning):
        cache = ResultCache(f"dir:{tmp_path}/c")
        assert cache.backend is not None and cache.backend.root == tmp_path / "c"
        cache.store("k", tuning, suite="table1")
        assert len(cache.backend) == 1
        loaded = cache.load("k")
        assert loaded.best_tiling == tuning.best_tiling
        assert cache.stats() == {"hits": 1, "misses": 0, "stale": 0}
        (info,) = cache.backend.entries()
        assert info.suite == "table1" and info.scheduler == "mas"

    def test_key_schema_version_still_pins_keys(self):
        """The key schema moves only when a key input changes meaning (v5: the
        key no longer hashes a metric); entry-layout changes must not orphan
        previously tuned work (keys are how warm sweeps find it)."""
        assert KEY_SCHEMA_VERSION == 5

    def test_env_uri_supplies_runner_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAS_CACHE_URI", f"dir:{tmp_path}/env")
        runner = ExperimentRunner(search_budget=BUDGET, seed=0)
        assert runner.cache_target == f"dir:{tmp_path}/env"
        runner.run("mas", "ViT-B/14")
        assert (tmp_path / "env").is_dir()
        # explicit targets win over the environment
        explicit = ExperimentRunner(search_budget=BUDGET, cache_uri=tmp_path / "dir")
        assert explicit.cache_target == str(tmp_path / "dir")
        # and --no-cache still wins over everything: its pairs get no store
        off = ExperimentRunner(
            search_budget=BUDGET, seed=0, cache_uri=tmp_path / "off", use_cache=False
        )
        assert off.pair_spec("mas", "ViT-B/14").cache_uri is None
        off.run("mas", "ViT-B/14")
        assert not (tmp_path / "off").exists()

    #: A directory URI with a host, and a store URI of a retired backend.
    BAD_ENV_URIS = ("dir://bad-host/c", "sqlite:///c.db")

    def test_bad_env_uri_fails_eagerly(self, monkeypatch):
        for uri in self.BAD_ENV_URIS:
            monkeypatch.setenv("MAS_CACHE_URI", uri)
            with pytest.raises(ValueError):
                ExperimentRunner(search_budget=BUDGET)

    def test_no_cache_bypasses_broken_env_uri(self, monkeypatch):
        """--no-cache is the escape hatch from a misconfigured store URI."""
        for uri in self.BAD_ENV_URIS:
            monkeypatch.setenv("MAS_CACHE_URI", uri)
            runner = ExperimentRunner(search_budget=BUDGET, seed=0, use_cache=False)
            assert runner.run("mas", "ViT-B/14").cycles > 0

    def test_read_only_store_still_serves_hits(self, tmp_path, tuning):
        """LRU touches are best-effort: a read-only shared cache stays warm."""
        root = tmp_path / "ro"
        writer = JsonDirStore(root)
        writer.put("k", make_payload("k", tuning_result_to_dict(tuning)))
        for path in [*root.glob("*.json"), root]:
            path.chmod(0o555 if path.is_dir() else 0o444)
        try:
            cache = ResultCache(f"dir:{root}")
            loaded = cache.load("k")
            assert loaded is not None and cache.hits == 1
        finally:
            root.chmod(0o755)
            for path in root.glob("*.json"):
                path.chmod(0o644)

    def test_dir_uri_with_tilde_expands_home(self):
        import pathlib

        store = open_store("dir:///~/mas-test-cache")
        assert store.root == pathlib.Path("~/mas-test-cache").expanduser()
        assert "~" not in str(store.root)
