"""Result-store fleet service: any :class:`~repro.store.ResultStore` over HTTP.

``mas-attention serve dir:/var/cache/mas --port 8787`` turns a local
JSON-directory store into a network service that a whole fleet of sweep
hosts can share through the matching :class:`~repro.store.http.HttpStore`
client (``--cache http://host:8787``) — no shared filesystem required.  Pure
standard library (:class:`http.server.ThreadingHTTPServer`), deliberately:
the reproduction must run anywhere Python does.

* :mod:`repro.service.server` — the :class:`StoreService` facade (per-key
  striped locking, JSON metrics), the request handler with one route per
  store operation, and the ``serve_store`` entry point used by the CLI.
* :mod:`repro.service.locks` — :class:`KeyedLocks`, the striped per-key
  lock pool with a shared/exclusive store-wide gate.
"""

from repro.service.locks import DEFAULT_STRIPES, KeyedLocks
from repro.service.server import (
    ServiceMetrics,
    StoreService,
    make_server,
    running_server,
    serve_store,
    server_url,
)

__all__ = [
    "DEFAULT_STRIPES",
    "KeyedLocks",
    "ServiceMetrics",
    "StoreService",
    "make_server",
    "running_server",
    "serve_store",
    "server_url",
]
