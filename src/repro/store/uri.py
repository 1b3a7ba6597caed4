"""Store URIs: one string selects a backend, a location and an eviction policy.

Accepted forms (``--cache``, ``$MAS_CACHE_URI``, ``ResultCache(...)``):

=====================================  ====================================
URI                                    Meaning
=====================================  ====================================
``/path/to/dir`` (no scheme)           JSON-directory store (the historical
                                       ``--cache-dir`` behaviour)
``dir:/path`` / ``dir:///path``        JSON-directory store, explicit
``jsondir:/path``                      alias of ``dir:``
``sqlite:///path/to/cache.db``         SQLite store (single file, WAL)
``sqlite:cache.db``                    SQLite store, relative path
``http://host:8787``                   HTTP store service (a running
                                       ``mas-attention serve``); ``https://``
                                       works behind a TLS proxy
``shard:http://a:8787,http://b:8787``  Sharded fleet of HTTP services
                                       (consistent hashing, failover;
                                       ``?replicas=2`` adds best-effort
                                       replication — ``docs/store_fleet.md``)
=====================================  ====================================

Query parameters configure the eviction policy (``max_entries``,
``max_bytes``, ``ttl`` age expiry) and apply to any backend; ``replicas`` is
shard-only::

    sqlite:///fleet.db?max_entries=10000&max_bytes=2GiB
    dir:/var/cache/mas?max_entries=500
    shard:http://a:8787,http://b:8787?replicas=2&ttl=7d
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro.store.base import ResultStore
from repro.store.eviction import EvictionPolicy
from repro.store.http import HttpStore
from repro.store.jsondir import JsonDirStore
from repro.store.shard import ShardedStore
from repro.store.sqlite import SqliteStore
from repro.utils import env

__all__ = ["MAS_CACHE_URI_ENV", "open_store", "resolve_store_target"]

#: Environment variable supplying the default store URI.
MAS_CACHE_URI_ENV = "MAS_CACHE_URI"


def resolve_store_target(
    cache_uri: str | None = None, cache_dir: str | Path | None = None
) -> str | None:
    """The store every command and runner opens: one precedence rule.

    ``cache_uri``, then ``cache_dir``, then ``$MAS_CACHE_URI``, then
    ``$MAS_CACHE_DIR`` — so a library runner, a CLI sweep and a ``cache``
    subcommand run in the same shell always talk to the same store.
    """
    if cache_uri is not None:
        return cache_uri
    if cache_dir is not None:
        return str(cache_dir)
    return env.value(MAS_CACHE_URI_ENV) or env.value("MAS_CACHE_DIR")


_BACKENDS = {
    "dir": JsonDirStore,
    "jsondir": JsonDirStore,
    "sqlite": SqliteStore,
}

#: Schemes served by the HTTP store client rather than a local path backend.
_HTTP_SCHEMES = ("http", "https")


def _split(uri: str) -> tuple[str, str, dict[str, str]]:
    """Split a store URI into (scheme, path, query params)."""
    parts = urlsplit(uri)
    scheme = parts.scheme.lower()
    if scheme not in _BACKENDS:
        # No recognized scheme: the string is a plain directory path.
        # (Windows drive letters and scheme-less relative paths land here.)
        # A ``?key=value`` suffix still configures the eviction policy — a
        # path the user meant as ``dir:...?max_bytes=1G`` must not silently
        # become a literal '?'-named directory with an unbounded policy.
        path, sep, query = uri.partition("?")
        params = dict(parse_qsl(query)) if sep else {}
        if sep and not params:
            return "dir", uri, {}  # bare '?' with no key=value: literal path
        return "dir", path, params
    # ``sqlite:///abs.db`` puts the path in ``parts.path``; ``sqlite:rel.db``
    # does too; ``dir://host/x`` would smuggle a netloc — reject that.
    if parts.netloc:
        raise ValueError(
            f"store URI {uri!r} has a network location; "
            "only local paths are supported (use e.g. sqlite:///abs/path.db)"
        )
    path = parts.path
    if not path:
        raise ValueError(f"store URI {uri!r} is missing a path")
    while path.startswith("//"):  # sqlite:////x and //x collapse to /x
        path = path[1:]
    if path.startswith("/~"):  # sqlite:///~/x.db: make the tilde expandable
        path = path[1:]
    return scheme, path, dict(parse_qsl(parts.query))


def open_store(target: str | Path | None) -> ResultStore | None:
    """Open the result store a URI (or plain directory path) describes.

    ``None`` and empty strings return ``None`` (no store).  Unknown query
    parameters and malformed policies raise ``ValueError`` eagerly, so a
    mistyped cap fails the run instead of silently not evicting.
    """
    if target is None:
        return None
    if isinstance(target, Path):
        return JsonDirStore(target)
    uri = target.strip()
    if not uri:
        return None
    parts = urlsplit(uri)
    if parts.scheme.lower() == "shard":
        return _open_shard(uri)
    if parts.scheme.lower() in _HTTP_SCHEMES:
        # A network store: host+port (and optional path prefix) identify a
        # running ``mas-attention serve``; query params still set the policy.
        if not parts.netloc:
            raise ValueError(f"store URI {uri!r} is missing a host")
        policy = EvictionPolicy.from_query(dict(parse_qsl(parts.query)))
        base = f"{parts.scheme.lower()}://{parts.netloc}{parts.path.rstrip('/')}"
        return HttpStore(base, policy=policy)
    scheme, path, params = _split(uri)
    policy = EvictionPolicy.from_query(params)
    return _BACKENDS[scheme](Path(path).expanduser(), policy=policy)


def _open_shard(uri: str) -> ShardedStore:
    """``shard:http://a:8787,http://b:8787?replicas=2&...`` -> ShardedStore.

    Everything after ``shard:`` up to the ``?`` is a comma-separated list of
    plain ``http(s)://host:port[/prefix]`` endpoints (no per-endpoint query);
    the query applies fleet-wide: ``replicas`` plus the usual policy caps.
    """
    spec, _, query = uri[len("shard:") :].partition("?")
    params = dict(parse_qsl(query))
    replicas = 1
    if "replicas" in params:
        replicas = int(params.pop("replicas"))
    policy = EvictionPolicy.from_query(params)
    endpoints = [endpoint.strip() for endpoint in spec.split(",") if endpoint.strip()]
    if not endpoints:
        raise ValueError(f"shard URI {uri!r} lists no endpoints")
    for endpoint in endpoints:
        ep = urlsplit(endpoint)
        if ep.scheme.lower() not in _HTTP_SCHEMES or not ep.netloc:
            raise ValueError(
                f"shard endpoint {endpoint!r} in {uri!r} is not an "
                "http(s)://host[:port] URL"
            )
        if ep.query or ep.fragment:
            raise ValueError(
                f"shard endpoint {endpoint!r} must not carry a query/fragment; "
                "put fleet-wide parameters after the endpoint list"
            )
    return ShardedStore(endpoints, policy=policy, replicas=replicas)
