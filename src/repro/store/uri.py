"""Store URIs: one string selects a backend, a location and an eviction policy.

Accepted forms (``--cache``, ``$MAS_CACHE_URI``, ``ResultCache(...)``):

=====================================  ====================================
URI                                    Meaning
=====================================  ====================================
``/path/to/dir`` (no scheme)           JSON-directory store
``dir:/path`` / ``dir:///path``        JSON-directory store, explicit
``http://host:8787``                   HTTP store service (a running
                                       ``mas-attention serve``); ``https://``
                                       works behind a TLS proxy
=====================================  ====================================

Any other scheme of two or more characters is rejected rather than read as a
relative directory name, so a mistyped URI fails the run instead of caching
into a junk directory.  Single-letter schemes (Windows drive letters) stay
paths; a directory whose name contains a colon is written ``dir:<path>``.

Query parameters configure the LRU eviction policy and apply to any backend::

    dir:/var/cache/mas?max_entries=10000&max_bytes=2GiB
    http://cachehost:8787?max_entries=500
"""

from __future__ import annotations

import os
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro.store.base import ResultStore
from repro.store.eviction import EvictionPolicy
from repro.store.http import HttpStore
from repro.store.jsondir import JsonDirStore

__all__ = ["MAS_CACHE_URI_ENV", "open_store", "resolve_store_target"]

#: Environment variable supplying the default store URI.
MAS_CACHE_URI_ENV = "MAS_CACHE_URI"


def resolve_store_target(cache_uri: str | Path | None = None) -> str | None:
    """The store every command and runner opens: one precedence rule.

    ``cache_uri`` (a URI or a directory path), else ``$MAS_CACHE_URI`` (which
    may be a bare directory too; a blank value counts as unset) — so a
    library runner, a CLI sweep and a ``cache`` subcommand run in the same
    shell always talk to the same store.
    """
    if cache_uri is not None:
        return str(cache_uri)
    return os.environ.get(MAS_CACHE_URI_ENV, "").strip() or None


#: Schemes of the local JSON-directory backend.
_DIR_SCHEMES = ("dir",)

#: Schemes served by the HTTP store client rather than a local path backend.
_HTTP_SCHEMES = ("http", "https")


def _split(uri: str) -> tuple[str, dict[str, str]]:
    """Split a directory-store URI into (path, query params)."""
    parts = urlsplit(uri)
    scheme = parts.scheme.lower()
    if len(scheme) > 1 and scheme not in _DIR_SCHEMES:
        known = ", ".join([*_DIR_SCHEMES, *_HTTP_SCHEMES])
        raise ValueError(
            f"unknown store URI scheme {scheme!r} in {uri!r}; known schemes: "
            f"{known} (write a directory whose name contains ':' as dir:<path>)"
        )
    if scheme not in _DIR_SCHEMES:
        # No scheme: the string is a plain directory path.  (Windows drive
        # letters and scheme-less relative paths land here.)
        # A ``?key=value`` suffix still configures the eviction policy — a
        # path the user meant as ``dir:...?max_bytes=1G`` must not silently
        # become a literal '?'-named directory with an unbounded policy.
        path, sep, query = uri.partition("?")
        params = dict(parse_qsl(query)) if sep else {}
        if sep and not params:
            return uri, {}  # bare '?' with no key=value: literal path
        return path, params
    # ``dir:///abs`` puts the path in ``parts.path``; ``dir:rel`` does too;
    # ``dir://host/x`` would smuggle a netloc — reject that.
    if parts.netloc:
        raise ValueError(
            f"store URI {uri!r} has a network location; "
            "only local paths are supported (use e.g. dir:///abs/path)"
        )
    path = parts.path
    if not path:
        raise ValueError(f"store URI {uri!r} is missing a path")
    while path.startswith("//"):  # dir:////x and //x collapse to /x
        path = path[1:]
    if path.startswith("/~"):  # dir:///~/x: make the tilde expandable
        path = path[1:]
    return path, dict(parse_qsl(parts.query))


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
    if parts.scheme.lower() in _HTTP_SCHEMES:
        # A network store: host+port (and optional path prefix) identify a
        # running ``mas-attention serve``; query params still set the policy.
        if not parts.netloc:
            raise ValueError(f"store URI {uri!r} is missing a host")
        policy = EvictionPolicy.from_query(dict(parse_qsl(parts.query)))
        base = f"{parts.scheme.lower()}://{parts.netloc}{parts.path.rstrip('/')}"
        return HttpStore(base, policy=policy)
    path, params = _split(uri)
    return JsonDirStore(Path(path), policy=EvictionPolicy.from_query(params))

