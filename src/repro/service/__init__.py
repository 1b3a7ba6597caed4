"""Result-store service: any :class:`~repro.store.ResultStore` over HTTP.

``mas-attention serve dir:/var/cache/mas --port 8787`` turns a local
JSON-directory store into a network service that a whole fleet of sweep
hosts can share through the matching :class:`~repro.store.http.HttpStore`
client (``--cache http://host:8787``) — no shared filesystem required.  Pure
standard library (:class:`http.server.ThreadingHTTPServer`), deliberately:
the reproduction must run anywhere Python does.

:mod:`repro.service.server` holds it all: the :class:`StoreService` facade
(one lock around every store operation), :class:`ServiceMetrics` (plain
counters and per-endpoint latency histograms, the JSON ``/metrics``
document), the request handler with one route per store operation, and the
``serve_store`` entry point used by the CLI.
"""

from repro.service.server import (
    ServiceMetrics,
    StoreService,
    make_server,
    running_server,
    serve_store,
    server_url,
)

__all__ = [
    "ServiceMetrics",
    "StoreService",
    "make_server",
    "running_server",
    "serve_store",
    "server_url",
]
