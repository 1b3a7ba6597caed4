"""Tests for the pluggable result-store subsystem (:mod:`repro.store`).

Covers the backend contract for all three stores (JSON directory, SQLite,
and HTTP against a live in-process service), LRU eviction, URI parsing, the
v2 -> v3 entry-schema upgrade, store migration (round-trip, zero entry loss,
warm sweeps against migrated stores), and concurrent SQLite writers.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exec import ExperimentRunner, ResultCache
from repro.exec.cache import KEY_SCHEMA_VERSION, tuning_result_to_dict
from repro.search.autotuner import AutoTuner
from repro.service import running_server, server_url
from repro.store import (
    ENTRY_SCHEMA_VERSION,
    EntryInfo,
    EvictionPolicy,
    HttpStore,
    JsonDirStore,
    ShardedStore,
    SqliteStore,
    make_payload,
    migrate_store,
    normalize_payload,
    open_store,
    parse_duration,
    parse_size,
    plan_eviction,
)
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
    """A live store service over a fresh SQLite backend (one per test)."""
    with running_server(SqliteStore(tmp_path / "served.db")) as server:
        yield server


@pytest.fixture(params=["jsondir", "sqlite", "http"])
def store(request, tmp_path):
    """One instance of each backend, same contract expected of all three.

    The HTTP instance talks to a real in-process service fronting a SQLite
    store, so every contract test exercises the full client/server path.
    """
    if request.param == "jsondir":
        yield JsonDirStore(tmp_path / "store")
    elif request.param == "sqlite":
        s = SqliteStore(tmp_path / "store.db")
        yield s
        s.close()
    else:
        with running_server(SqliteStore(tmp_path / "served.db")) as server:
            s = HttpStore(server_url(server))
            try:
                yield s
            finally:
                s.close()


# ---------------------------------------------------------------------- #
# Backend contract
# ---------------------------------------------------------------------- #
class TestStoreContract:
    def test_roundtrip_and_len(self, store):
        assert store.get("a") is None and len(store) == 0
        store.put("a", payload_for("a", 1))
        store.put("b", payload_for("b", 2))
        assert len(store) == 2
        assert "a" in store and "missing" not in store
        assert store.get("a")["meta"]["workload"] == "wl-1"
        assert sorted(store.keys()) == ["a", "b"]

    def test_overwrite_last_writer_wins(self, store):
        store.put("k", payload_for("k", 1))
        store.put("k", payload_for("k", 2))
        assert len(store) == 1
        assert store.get("k")["meta"]["budget"] == 2

    def test_delete_and_clear(self, store):
        store.put("a", payload_for("a"))
        store.put("b", payload_for("b"))
        assert store.delete("a") and not store.delete("a")
        assert store.clear() == 1
        assert len(store) == 0

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

    def test_old_schema_entry_upgrades_in_place(self, store):
        """A v2-layout entry is converted on read (migration path), not dropped."""
        v2 = {"schema": 2, "key": "k", "tuning": payload_for("k", 7)["tuning"]}
        store.write("k", v2)  # raw write: bypass put()'s normalization
        payload, status = store.lookup("k")
        assert status == "upgraded"
        assert payload["schema"] == ENTRY_SCHEMA_VERSION
        assert payload["meta"]["workload"] == "wl-7"
        # the upgrade is persisted: the second read is an ordinary hit
        assert store.lookup("k")[1] == "hit"

    def test_future_schema_entry_is_stale_and_surfaced(self, store):
        store.write("k", {"schema": 99, "key": "k", "tuning": {}})
        assert store.lookup("k") == (None, "stale")
        assert "k" in store.keys()  # the entry is data, not garbage: kept
        assert store.stats().stale_entries == 1

    def test_entries_filterable_on_every_backend(self, store):
        store.put("a", payload_for("a", 1))
        store.write("odd", {"schema": 99, "key": "odd", "tuning": {}})
        assert {e.key for e in store.entries(scheduler="mas")} == {"a"}
        assert store.entries(workload="nope") == []
        assert store.entries(scheduler=None) == store.entries()  # None ignored
        with pytest.raises(ValueError):
            store.entries(flavour="vanilla")

    def test_tuningless_envelope_counts_stale_in_stats(self, store):
        """A current-schema envelope without a tuning block is stale for
        lookup() — stats must agree, not trust the raw schema number."""
        store.write("k", {"schema": ENTRY_SCHEMA_VERSION, "key": "k"})
        assert store.lookup("k") == (None, "stale")
        assert store.stats().stale_entries == 1
        (info,) = store.entries()
        assert info.schema is None

    def test_uri_roundtrips_through_open_store(self, store, tmp_path):
        store.put("k", payload_for("k", 5))
        reopened = open_store(store.uri())
        assert type(reopened) is type(store)
        assert reopened.get("k")["meta"]["budget"] == 5

    def test_uri_roundtrips_eviction_policy(self, store):
        """uri() carries the caps, so a reopened capped store stays capped."""
        location = getattr(store, "path", None) or getattr(store, "root", None) or store.base_url
        capped = type(store)(
            location,
            policy=EvictionPolicy(max_entries=7, max_bytes=2048),
        )
        assert "max_entries=7" in capped.uri() and "max_bytes=2048" in capped.uri()
        reopened = open_store(capped.uri())
        assert reopened.policy == capped.policy


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

    def test_parse_duration(self):
        assert parse_duration(90) == 90.0
        assert parse_duration("90") == 90.0
        assert parse_duration("30s") == 30.0
        assert parse_duration("5m") == parse_duration("5min") == 300.0
        assert parse_duration("2h") == 7200.0
        assert parse_duration("7d") == 7 * 86400.0
        assert parse_duration("1.5h") == 5400.0
        assert parse_duration("0") == 0.0
        with pytest.raises(ValueError, match="unknown duration unit"):
            parse_duration("10 fortnights")
        with pytest.raises(ValueError):
            parse_duration("-1h")

    def test_ttl_expires_by_age(self):
        entries = [_info("old", 10, 100.0), _info("fresh", 10, 990.0)]
        policy = EvictionPolicy(ttl_seconds=60)
        assert plan_eviction(entries, policy, now=1000.0) == ["old"]
        # at a horizon nothing has crossed, nothing goes
        assert plan_eviction(entries, policy, now=150.0) == []

    def test_ttl_composes_with_caps(self):
        entries = [
            _info("ancient", 10, 1.0),
            _info("old", 10, 2.0),
            _info("fresh", 10, 999.0),
        ]
        # TTL alone takes the two expired; max_entries=1 takes nothing extra.
        policy = EvictionPolicy(max_entries=1, ttl_seconds=100)
        assert plan_eviction(entries, policy, now=1000.0) == ["ancient", "old"]
        # caps keep evicting past the TTL horizon when still over budget
        policy = EvictionPolicy(max_entries=1, ttl_seconds=10_000)
        assert plan_eviction(entries, policy, now=1000.0) == ["ancient", "old"]

    def test_policy_query_roundtrip_with_ttl(self):
        policy = EvictionPolicy(max_entries=5, ttl_seconds=1800)
        assert policy.bounded
        assert EvictionPolicy.from_query(dict(
            kv.split("=") for kv in policy.as_query().lstrip("?").split("&")
        )) == policy
        parsed = EvictionPolicy.from_query({"ttl": "30m", "max_bytes": "1kb"})
        assert parsed == EvictionPolicy(max_bytes=1000, ttl_seconds=1800)
        with pytest.raises(ValueError):
            EvictionPolicy(ttl_seconds=-1)


class TestStoreEviction:
    def test_evict_honours_caps_lru_first(self, store):
        for i, key in enumerate(["a", "b", "c", "d"]):
            store.put(key, payload_for(key, i))
            store.touch(key)
        store.touch("a")  # refresh: "a" becomes most recently used
        evicted = store.evict(EvictionPolicy(max_entries=2))
        assert evicted == ["b", "c"]  # LRU order, "a" survives its age
        assert sorted(store.keys()) == ["a", "d"]

    def test_evict_by_bytes(self, store):
        for key in ["a", "b", "c"]:
            store.put(key, payload_for(key))
            store.touch(key)
        total = store.stats().total_bytes
        evicted = store.evict(EvictionPolicy(max_bytes=total // 3))
        assert len(evicted) == 2
        assert store.stats().total_bytes <= total // 3

    def test_uri_policy_enforced_on_put(self, tmp_path):
        uri = f"dir:{tmp_path / 'capped'}?max_entries=2"
        store = open_store(uri)
        assert store.policy == EvictionPolicy(max_entries=2)
        for i, key in enumerate(["a", "b", "c", "d"]):
            store.put(key, payload_for(key, i))
            store.touch(key)
        assert len(store) == 2  # the cap held during writes, not just after

    def test_ttl_evicts_only_expired_entries(self, tmp_path):
        """Age expiry on a real backend: jsondir last_used is file mtime, so
        an entry backdated past the TTL horizon goes; fresh ones stay."""
        store = JsonDirStore(tmp_path / "aged")
        store.put("old", payload_for("old"))
        store.put("fresh", payload_for("fresh"))
        ancient = 0  # epoch: comfortably past any horizon
        os.utime(tmp_path / "aged" / "old.json", (ancient, ancient))
        evicted = store.evict(EvictionPolicy(ttl_seconds=3600))
        assert evicted == ["old"]
        assert store.keys() == ["fresh"]

    def test_ttl_enforced_on_put_via_uri(self, tmp_path):
        store = open_store(f"dir:{tmp_path / 'ttl'}?ttl=1h")
        assert store.policy == EvictionPolicy(ttl_seconds=3600)
        assert store.policy.bounded
        store.put("old", payload_for("old"))
        os.utime(tmp_path / "ttl" / "old.json", (0, 0))
        store.put("fresh", payload_for("fresh"))  # bounded put runs eviction
        assert store.keys() == ["fresh"]


# ---------------------------------------------------------------------- #
# URIs
# ---------------------------------------------------------------------- #
class TestStoreUris:
    def test_plain_path_and_dir_scheme_are_jsondir(self, tmp_path):
        for target in (str(tmp_path), f"dir:{tmp_path}", f"jsondir:{tmp_path}", tmp_path):
            store = open_store(target)
            assert isinstance(store, JsonDirStore)
            assert store.root == tmp_path

    def test_sqlite_scheme(self, tmp_path):
        store = open_store(f"sqlite:///{tmp_path}/c.db")
        assert isinstance(store, SqliteStore)
        assert store.path == tmp_path / "c.db"
        relative = open_store("sqlite:rel.db")
        assert str(relative.path) == "rel.db"

    def test_none_and_empty_mean_no_store(self):
        assert open_store(None) is None
        assert open_store("") is None
        assert open_store("   ") is None

    def test_policy_query_params(self, tmp_path):
        store = open_store(f"sqlite:///{tmp_path}/c.db?max_entries=10&max_bytes=1KiB")
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
            open_store(f"sqlite:///{tmp_path}/c.db?max_funk=1")
        with pytest.raises(ValueError):
            open_store("sqlite://host/c.db")  # network locations unsupported
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

    def test_shard_scheme_opens_sharded_store(self):
        store = open_store("shard:http://a:8787,http://b:8787")
        assert isinstance(store, ShardedStore)
        assert store.uri() == "shard:http://a:8787,http://b:8787"
        full = open_store(
            "shard:http://a:8787,http://b:8787?max_entries=10&replicas=2&ttl=7d"
        )
        assert full.replicas == 2
        assert full.policy == EvictionPolicy(max_entries=10, ttl_seconds=7 * 86400)
        # uri() round-trips through open_store to an equivalent fleet
        again = open_store(full.uri())
        assert again.uri() == full.uri()
        assert again.replicas == 2 and again.policy == full.policy

    def test_bad_shard_uris_rejected(self):
        with pytest.raises(ValueError, match="no endpoints"):
            open_store("shard:")
        with pytest.raises(ValueError, match="not an"):
            open_store("shard:http://a:8787,sqlite:///x.db")
        with pytest.raises(ValueError):
            # the first '?' ends the endpoint list, so a mid-list query is a
            # (bogus) fleet-wide parameter — loud either way
            open_store("shard:http://a:8787?x=1,http://b:8787")
        with pytest.raises(ValueError, match="query/fragment"):
            open_store("shard:http://a:8787#frag,http://b:8787")
        with pytest.raises(ValueError):
            open_store("shard:http://a:8787,http://b:8787?max_funk=1")


# ---------------------------------------------------------------------- #
# Entry schema
# ---------------------------------------------------------------------- #
class TestEntrySchema:
    def test_current_payload_is_ok(self):
        payload, status = normalize_payload(payload_for("k"))
        assert status == "ok" and payload["schema"] == ENTRY_SCHEMA_VERSION

    def test_v2_upgrade_derives_meta(self):
        tuning = {"scheduler": "flat", "workload": "XLM", "strategy": "grid", "budget": 9}
        upgraded, status = normalize_payload({"schema": 2, "key": "k", "tuning": tuning})
        assert status == "upgraded"
        assert upgraded["schema"] == ENTRY_SCHEMA_VERSION
        assert upgraded["meta"] == {
            "scheduler": "flat",
            "workload": "XLM",
            "strategy": "grid",
            "budget": 9,
            "suite": None,
        }
        assert upgraded["tuning"] == tuning

    def test_unknown_or_malformed_is_stale(self):
        assert normalize_payload({"schema": 99, "tuning": {}}) == (None, "stale")
        assert normalize_payload({"schema": ENTRY_SCHEMA_VERSION}) == (None, "stale")
        assert normalize_payload(["not", "a", "dict"]) == (None, "stale")


# ---------------------------------------------------------------------- #
# Migration
# ---------------------------------------------------------------------- #
@pytest.fixture
def tuning(edge_hw):
    workload = AttentionWorkload.self_attention(heads=4, seq=256, emb=64, name="store-wl")
    return AutoTuner(edge_hw, budget=8, seed=3).tune("mas", workload)


class TestMigration:
    def test_jsondir_sqlite_roundtrip_preserves_every_entry(self, tmp_path, tuning):
        origin = JsonDirStore(tmp_path / "origin")
        for i in range(5):
            payload = make_payload(f"key{i}", tuning_result_to_dict(tuning), suite="table1")
            origin.put(f"key{i}", payload)

        db = SqliteStore(tmp_path / "mid.db")
        back = JsonDirStore(tmp_path / "back")
        first = migrate_store(origin, db)
        second = migrate_store(db, back)
        assert first.migrated == second.migrated == 5
        assert not first.skipped_stale and not second.skipped_stale

        assert sorted(back.keys()) == sorted(origin.keys())
        for key in origin.keys():
            assert back.read(key) == origin.read(key)
            # same serialization, byte-for-byte identical files
            assert (back.root / f"{key}.json").read_bytes() == (
                origin.root / f"{key}.json"
            ).read_bytes()

    def test_migrate_upgrades_old_entries(self, tmp_path, tuning):
        origin = JsonDirStore(tmp_path / "origin")
        origin.write("old", {"schema": 2, "key": "old", "tuning": tuning_result_to_dict(tuning)})
        db = SqliteStore(tmp_path / "new.db")
        report = migrate_store(origin, db)
        assert report.migrated == 1 and report.upgraded == 1
        payload, status = db.lookup("old")
        assert status == "hit" and payload["schema"] == ENTRY_SCHEMA_VERSION

    def test_migrate_skips_existing_unless_overwrite(self, tmp_path):
        src = JsonDirStore(tmp_path / "src")
        dst = JsonDirStore(tmp_path / "dst")
        src.put("k", payload_for("k", 1))
        dst.put("k", payload_for("k", 2))
        report = migrate_store(src, dst)
        assert report.migrated == 0 and report.skipped_existing == 1
        assert dst.get("k")["meta"]["budget"] == 2
        report = migrate_store(src, dst, overwrite=True)
        assert report.migrated == 1
        assert dst.get("k")["meta"]["budget"] == 1

    def test_stale_entries_reported_not_lost(self, tmp_path):
        src = JsonDirStore(tmp_path / "src")
        src.write("weird", {"schema": 99, "key": "weird", "tuning": {}})
        src.put("fine", payload_for("fine"))
        report = migrate_store(src, SqliteStore(tmp_path / "dst.db"))
        assert report.migrated == 1
        assert report.skipped_stale == ["weird"]
        assert "stale" in report.summary()


# ---------------------------------------------------------------------- #
# End-to-end sweeps: bit-identity, migration warmth, PR-1-format caches
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
            ExperimentRunner(**kwargs, cache_dir=tmp_path / "jsondir"),
            ExperimentRunner(**kwargs, cache_uri=f"sqlite:///{tmp_path}/serial.db"),
            ExperimentRunner(**kwargs, jobs=2, cache_uri=f"dir:{tmp_path}/jsondir-par"),
            ExperimentRunner(**kwargs, jobs=2, cache_uri=f"sqlite:///{tmp_path}/par.db"),
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
        kwargs = dict(search_budget=BUDGET, seed=0, cache_uri=f"sqlite:///{tmp_path}/s.db")
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

    def test_warm_sweep_after_migration_gets_every_hit(self, tmp_path):
        """The acceptance path: jsondir cache -> migrate -> sqlite, 100% warm."""
        kwargs = dict(search_budget=BUDGET, seed=0)
        cold = ExperimentRunner(**kwargs, cache_dir=tmp_path / "jsondir")
        reference = _matrix_fingerprint(cold.run_matrix(FAST_NETWORKS, FAST_METHODS))
        searched = cold.cache_stats()["searches"]

        report = migrate_store(
            JsonDirStore(tmp_path / "jsondir"), SqliteStore(tmp_path / "migrated.db")
        )
        assert report.migrated == len(JsonDirStore(tmp_path / "jsondir").keys())
        assert not report.skipped_stale

        warm = ExperimentRunner(**kwargs, cache_uri=f"sqlite:///{tmp_path}/migrated.db")
        assert _matrix_fingerprint(warm.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference
        stats = warm.cache_stats()
        assert stats["cache_hits"] == searched
        assert stats["searches"] == 0 and stats["cache_misses"] == 0

    def test_pr1_format_cache_is_upgraded_not_dropped(self, tmp_path, edge_hw):
        """Entries written in the old flat v2 layout keep hitting after the
        entry-schema bump — the stale-discard bug this PR fixes."""
        cache_dir = tmp_path / "cache"
        cold = ExperimentRunner(search_budget=BUDGET, seed=0, cache_dir=cache_dir)
        run = cold.run("mas", "ViT-B/14")

        # Rewrite every entry exactly as the pre-store ResultCache did.
        store = JsonDirStore(cache_dir)
        for key in store.keys():
            payload = store.read(key)
            old = {"schema": 2, "key": key, "tuning": payload["tuning"]}
            (cache_dir / f"{key}.json").write_text(json.dumps(old, indent=2, sort_keys=True))

        warm = ExperimentRunner(search_budget=BUDGET, seed=0, cache_dir=cache_dir)
        warm_run = warm.run("mas", "ViT-B/14")
        assert warm_run.cached
        assert warm_run.cycles == run.cycles
        assert warm_run.tuning.best_tiling == run.tuning.best_tiling
        # ... and the upgrade was persisted in place
        for key in store.keys():
            assert store.read(key)["schema"] == ENTRY_SCHEMA_VERSION


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
        uris = [
            f"dir:{tmp_path}/jsondir",
            f"sqlite:///{tmp_path}/local.db",
            server_url(store_server),
        ]
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

    def test_migration_into_and_out_of_http_store(self, store_server, tmp_path, tuning):
        """jsondir -> http -> jsondir round trip: zero loss, batched trips."""
        origin = JsonDirStore(tmp_path / "origin")
        for i in range(5):
            origin.put(
                f"key{i}", make_payload(f"key{i}", tuning_result_to_dict(tuning))
            )
        served = HttpStore(server_url(store_server))
        back = JsonDirStore(tmp_path / "back")
        first = migrate_store(origin, served)
        second = migrate_store(served, back)
        assert first.migrated == second.migrated == 5
        assert sorted(back.keys()) == sorted(origin.keys())
        for key in origin.keys():
            assert back.read(key) == origin.read(key)
        served.close()

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
# Sharded fleet
# ---------------------------------------------------------------------- #
@pytest.fixture
def shard_fleet(tmp_path):
    """Two live store services (one fresh SQLite backend each)."""
    with running_server(SqliteStore(tmp_path / "shard-a.db")) as a:
        with running_server(SqliteStore(tmp_path / "shard-b.db")) as b:
            yield a, b


def _kill(server) -> None:
    """Take one shard dark mid-test (fixture teardown stays idempotent)."""
    server.shutdown()
    server.server_close()


class TestShardedStore:
    """Functional coverage of the fleet client against live shard services."""

    def _fleet(self, servers, **kwargs) -> ShardedStore:
        return ShardedStore([server_url(s) for s in servers], **kwargs)

    def test_keys_spread_without_replication(self, shard_fleet):
        fleet = self._fleet(shard_fleet)
        keys = [f"k{i}" for i in range(16)]
        for i, key in enumerate(keys):
            fleet.put(key, payload_for(key, i))
        assert sorted(fleet.keys()) == sorted(keys)
        per_shard = []
        for server in shard_fleet:
            child = HttpStore(server_url(server))
            per_shard.append(len(child.keys()))
            child.close()
        assert sum(per_shard) == len(keys)  # replicas=1: no duplication
        assert fleet.stats().entries == len(keys)
        fleet.close()

    def test_replication_writes_to_every_owner(self, shard_fleet):
        fleet = self._fleet(shard_fleet, replicas=2)
        keys = [f"r{i}" for i in range(8)]
        for i, key in enumerate(keys):
            fleet.put(key, payload_for(key, i))
        for server in shard_fleet:
            child = HttpStore(server_url(server))
            assert sorted(child.keys()) == sorted(keys)
            child.close()
        # the union view deduplicates: 8 entries, not 16
        assert fleet.stats().entries == len(keys)
        fleet.close()

    def test_failover_after_shard_death_with_replication(self, shard_fleet):
        a, b = shard_fleet
        writer = self._fleet(shard_fleet, replicas=2)
        keys = [f"f{i}" for i in range(12)]
        for i, key in enumerate(keys):
            writer.put(key, payload_for(key, i))
        b_index = writer.endpoints.index(server_url(b))
        # at least one key's *primary* owner is the shard about to die
        primary_on_b = next(k for k in keys if writer._owners(k)[0] == b_index)
        writer.close()
        _kill(b)
        # a fresh client (a new sweep host joining after the shard died —
        # the writer's old keep-alive sockets would mask the death in-test)
        fleet = self._fleet(shard_fleet, replicas=2)
        for key in keys:
            payload, status = fleet.lookup(key)
            assert status == "hit" and payload is not None, key
        stats = fleet.fleet_stats()
        assert stats["failovers"] >= 1, primary_on_b
        assert stats["endpoints"][server_url(b)] == "down"
        assert stats["endpoints"][server_url(a)] == "up"
        # writes keep landing on the surviving replica and serve back
        fleet.put("late", payload_for("late"))
        assert fleet.lookup("late")[1] == "hit"
        fleet.close()

    def test_degrades_to_miss_without_replication(self, shard_fleet):
        a, b = shard_fleet
        writer = self._fleet(shard_fleet)
        keys = [f"d{i}" for i in range(16)]
        for i, key in enumerate(keys):
            writer.put(key, payload_for(key, i))
        writer.close()
        survivor = HttpStore(server_url(a))
        a_keys = set(survivor.keys())
        survivor.close()
        _kill(b)
        fleet = self._fleet(shard_fleet)  # fresh client, see failover test
        for key in keys:
            payload, status = fleet.lookup(key)
            if key in a_keys:
                assert status == "hit" and payload is not None
            else:  # owned only by the dead shard: a miss, not an exception
                assert status == "miss" and payload is None
        assert fleet.fleet_stats()["degraded_misses"] == len(keys) - len(a_keys)
        got = fleet.read_many(keys)
        assert all(got[k] is not None for k in a_keys)
        assert all(got[k] is None for k in set(keys) - a_keys)
        fleet.close()

    def test_read_many_put_many_fan_out(self, shard_fleet):
        fleet = self._fleet(shard_fleet, replicas=2)
        entries = {f"b{i}": payload_for(f"b{i}", i) for i in range(10)}
        fleet.put_many(entries)
        got = fleet.read_many(list(entries) + ["missing"])
        assert got["missing"] is None
        for key, payload in entries.items():
            assert got[key] == payload
        fleet.close()

    def test_hedged_reads_for_hot_keys(self, shard_fleet):
        fleet = self._fleet(shard_fleet, replicas=2)
        fleet.put("hot", payload_for("hot"))
        for _ in range(6):
            assert fleet.lookup("hot")[1] == "hit"
        assert fleet.fleet_stats()["hedged_lookups"] > 0
        fleet.close()

    def test_pickle_roundtrip_resets_health(self, shard_fleet):
        import pickle

        fleet = self._fleet(shard_fleet, replicas=2)
        fleet.put("p", payload_for("p"))
        clone = pickle.loads(pickle.dumps(fleet))
        assert clone.uri() == fleet.uri()
        assert clone.lookup("p")[1] == "hit"
        clone.close()
        fleet.close()

    def test_migration_into_and_out_of_a_fleet(self, shard_fleet, tmp_path, tuning):
        origin = JsonDirStore(tmp_path / "origin")
        for i in range(6):
            origin.put(f"key{i}", make_payload(f"key{i}", tuning_result_to_dict(tuning)))
        fleet = self._fleet(shard_fleet, replicas=2)
        back = JsonDirStore(tmp_path / "back")
        first = migrate_store(origin, fleet)
        second = migrate_store(fleet, back)
        assert first.migrated == second.migrated == 6
        for key in origin.keys():
            assert back.read(key) == origin.read(key)
        fleet.close()


class TestShardSweepBitIdentity:
    """The fleet acceptance matrix: ``shard:`` serves the same sweeps as one
    store — at any jobs level, and across a shard dying between sweeps."""

    def _shard_uri(self, servers, replicas: int) -> str:
        spec = ",".join(server_url(s) for s in servers)
        return f"shard:{spec}?replicas={replicas}" if replicas > 1 else f"shard:{spec}"

    def test_shard_sweeps_match_single_store_at_jobs_1_and_4(
        self, shard_fleet, tmp_path
    ):
        kwargs = dict(search_budget=BUDGET, seed=0)
        reference = _matrix_fingerprint(
            ExperimentRunner(
                **kwargs, cache_uri=f"sqlite:///{tmp_path}/single.db"
            ).run_matrix(FAST_NETWORKS, FAST_METHODS)
        )
        uri = self._shard_uri(shard_fleet, replicas=2)
        for jobs in (1, 4):
            runner = ExperimentRunner(**kwargs, jobs=jobs, cache_uri=uri)
            assert (
                _matrix_fingerprint(runner.run_matrix(FAST_NETWORKS, FAST_METHODS))
                == reference
            ), f"mismatch at jobs={jobs}"
        warm = ExperimentRunner(**kwargs, jobs=2, cache_uri=uri)
        assert _matrix_fingerprint(warm.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference
        stats = warm.cache_stats()
        assert stats["searches"] == 0 and stats["cache_misses"] == 0

    def test_shard_death_fails_over_bit_identically_with_replication(
        self, shard_fleet, tmp_path
    ):
        _, b = shard_fleet
        kwargs = dict(search_budget=BUDGET, seed=0)
        reference = _matrix_fingerprint(
            ExperimentRunner(
                **kwargs, cache_uri=f"sqlite:///{tmp_path}/single.db"
            ).run_matrix(FAST_NETWORKS, FAST_METHODS)
        )
        uri = self._shard_uri(shard_fleet, replicas=2)
        cold = ExperimentRunner(**kwargs, jobs=2, cache_uri=uri)
        assert _matrix_fingerprint(cold.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference

        _kill(b)  # one shard goes dark with the fleet still warm

        warm = ExperimentRunner(**kwargs, jobs=4, cache_uri=uri)
        assert _matrix_fingerprint(warm.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference
        stats = warm.cache_stats()
        # every entry lives on the surviving replica: zero recomputation
        assert stats["searches"] == 0 and stats["cache_misses"] == 0

    def test_unreplicated_shard_death_degrades_to_recompute(
        self, shard_fleet, tmp_path
    ):
        _, b = shard_fleet
        kwargs = dict(search_budget=BUDGET, seed=0)
        reference = _matrix_fingerprint(
            ExperimentRunner(
                **kwargs, cache_uri=f"sqlite:///{tmp_path}/single.db"
            ).run_matrix(FAST_NETWORKS, FAST_METHODS)
        )
        uri = self._shard_uri(shard_fleet, replicas=1)
        cold = ExperimentRunner(**kwargs, jobs=2, cache_uri=uri)
        assert _matrix_fingerprint(cold.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference

        _kill(b)

        # entries on the dead shard degrade to misses and are recomputed —
        # deterministically, so the matrix stays bit-identical either way.
        warm = ExperimentRunner(**kwargs, jobs=2, cache_uri=uri)
        assert _matrix_fingerprint(warm.run_matrix(FAST_NETWORKS, FAST_METHODS)) == reference
        stats = warm.cache_stats()
        assert stats["cache_misses"] == stats["searches"]


# ---------------------------------------------------------------------- #
# Concurrency
# ---------------------------------------------------------------------- #
def _hammer_sqlite(args: tuple[str, int, int]) -> int:
    """Worker: interleave writes and reads of a shared key set."""
    path, worker, rounds = args
    store = SqliteStore(path)
    ok = 0
    for i in range(rounds):
        key = f"key{i % 8}"
        store.put(key, payload_for(key, i % 8))
        payload = store.get(key)
        ok += payload is not None and payload["meta"]["budget"] == i % 8
    store.close()
    return ok


class TestSqliteConcurrency:
    def test_fork_discards_inherited_connections(self, tmp_path):
        """A forked child must not share the parent's live connection: the
        at-fork hook clears it, so any child-side use reconnects fresh."""
        store = SqliteStore(tmp_path / "forked.db")
        store.put("k", payload_for("k", 3))
        assert store._conn is not None  # live connection in the parent
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report the hook's effect, then a fresh read
            try:
                dropped = store._conn is None
                reread = store.get("k") is not None  # reconnects on demand
                os.write(write_fd, b"1" if dropped and reread else b"0")
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            assert os.waitpid(pid, 0)[1] == 0
            assert os.read(read_fd, 1) == b"1"
        finally:
            os.close(read_fd)
        assert store._conn is not None  # the parent's connection is untouched
        assert store.get("k")["meta"]["budget"] == 3
        store.close()


    def test_concurrent_writers_produce_consistent_entries(self, tmp_path):
        path = str(tmp_path / "hammer.db")
        rounds = 25
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(_hammer_sqlite, [(path, w, rounds) for w in range(4)])
            )
        assert results == [rounds] * 4  # every read saw a complete entry
        store = SqliteStore(path)
        assert len(store) == 8
        for i in range(8):
            payload, status = store.lookup(f"key{i}")
            assert status == "hit"
            assert payload["meta"]["budget"] == i
        assert store.stats().stale_entries == 0
        store.close()

    def test_parallel_sweep_sharing_one_db_matches_serial(self, tmp_path):
        kwargs = dict(search_budget=BUDGET, seed=0)
        serial = _matrix_fingerprint(
            ExperimentRunner(**kwargs).run_matrix(FAST_NETWORKS, FAST_METHODS)
        )
        uri = f"sqlite:///{tmp_path}/shared.db"
        parallel = ExperimentRunner(**kwargs, jobs=4, cache_uri=uri)
        assert _matrix_fingerprint(parallel.run_matrix(FAST_NETWORKS, FAST_METHODS)) == serial


# ---------------------------------------------------------------------- #
# ResultCache facade over URIs
# ---------------------------------------------------------------------- #
class TestResultCacheOverStores:
    def test_cache_accepts_sqlite_uri(self, tmp_path, tuning):
        cache = ResultCache(f"sqlite:///{tmp_path}/c.db")
        assert cache.enabled and cache.cache_dir is None
        cache.store("k", tuning, suite="table1")
        assert len(cache) == 1
        loaded = cache.load("k")
        assert loaded.best_tiling == tuning.best_tiling
        assert cache.stats() == {"hits": 1, "misses": 0, "stale": 0}
        (info,) = cache.backend.entries()
        assert info.suite == "table1" and info.scheduler == "mas"

    def test_sqlite_entries_queryable_by_indexed_columns(self, tmp_path, tuning):
        store = SqliteStore(tmp_path / "c.db")
        store.put("a", make_payload("a", tuning_result_to_dict(tuning), suite="s1"))
        store.put("b", make_payload("b", tuning_result_to_dict(tuning), suite="s2"))
        assert {e.key for e in store.entries(suite="s1")} == {"a"}
        assert {e.key for e in store.entries(scheduler="mas")} == {"a", "b"}
        assert store.entries(workload="nope") == []
        with pytest.raises(ValueError):
            store.entries(flavour="vanilla")

    def test_key_schema_version_still_pins_keys(self):
        """The key schema stayed at 2 on purpose: entry-layout changes must
        not orphan previously tuned work (keys are how warm sweeps find it)."""
        assert KEY_SCHEMA_VERSION == 2

    def test_env_uri_supplies_runner_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAS_CACHE_URI", f"sqlite:///{tmp_path}/env.db")
        runner = ExperimentRunner(search_budget=BUDGET, seed=0)
        assert runner.cache_target == f"sqlite:///{tmp_path}/env.db"
        runner.run("mas", "ViT-B/14")
        assert (tmp_path / "env.db").exists()
        # explicit targets win over the environment
        explicit = ExperimentRunner(search_budget=BUDGET, cache_dir=tmp_path / "dir")
        assert explicit.cache_target == str(tmp_path / "dir")
        # and --no-cache still wins over everything
        off = ExperimentRunner(search_budget=BUDGET, seed=0, use_cache=False)
        off.run("mas", "ViT-B/14")
        spec = off.pair_spec("mas", "ViT-B/14")
        assert spec.use_cache is False

    def test_bad_env_uri_fails_eagerly(self, monkeypatch):
        monkeypatch.setenv("MAS_CACHE_URI", "sqlite://bad-host/c.db")
        with pytest.raises(ValueError):
            ExperimentRunner(search_budget=BUDGET)

    def test_no_cache_bypasses_broken_env_uri(self, monkeypatch):
        """--no-cache is the escape hatch from a misconfigured store URI."""
        monkeypatch.setenv("MAS_CACHE_URI", "sqlite://bad-host/c.db")
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

    def test_read_only_sqlite_store_still_serves_hits(self, tmp_path, tuning):
        """Connection setup must not require write access to the database."""
        db = tmp_path / "ro.db"
        writer = SqliteStore(db)
        writer.put("k", make_payload("k", tuning_result_to_dict(tuning)))
        writer.close()
        for path in tmp_path.glob("ro.db*"):  # the db plus any -wal/-shm
            path.chmod(0o444)
        tmp_path.chmod(0o555)
        try:
            cache = ResultCache(f"sqlite:///{db}")
            loaded = cache.load("k")
            assert loaded is not None and cache.hits == 1
            cache.close()
        finally:
            tmp_path.chmod(0o755)
            for path in tmp_path.glob("ro.db*"):
                path.chmod(0o644)

    def test_sqlite_reads_on_non_database_file_are_misses(self, tmp_path):
        """Pointing a sqlite URI at a non-SQLite file degrades to misses
        (and empty stats), not DatabaseError tracebacks mid-sweep."""
        bogus = tmp_path / "not-a-db.db"
        bogus.write_text("definitely not a sqlite file, but long enough " * 20)
        store = SqliteStore(bogus)
        assert store.read("k") is None
        assert store.keys() == []
        assert store.stats().entries == 0
        store.close()

    def test_sqlite_uri_with_tilde_expands_home(self):
        import pathlib

        store = open_store("sqlite:///~/mas-test-cache.db")
        assert store.path == pathlib.Path("~/mas-test-cache.db").expanduser()
        assert "~" not in str(store.path)

    def test_sqlite_reads_on_non_store_file_are_misses(self, tmp_path):
        """A schema-less database file yields misses, not OperationalErrors."""
        db = tmp_path / "empty.db"
        conn = __import__("sqlite3").connect(db)  # a real db with no tables
        conn.close()
        store = SqliteStore(db)
        # simulate the schema being un-creatable by dropping it post-connect
        store._connect().executescript("DROP TABLE entries; DROP TABLE store_meta;")
        assert store.read("k") is None
        assert store.keys() == []
        assert store.entries() == []
        assert store.stats().entries == 0
        store.close()
