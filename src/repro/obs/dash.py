"""Live observability dashboard behind ``mas-attention obs serve``.

One stdlib :class:`ThreadingHTTPServer` (same handler discipline as
``repro.service.server``: HTTP/1.1, explicit ``Content-Length``, quiet
logs) fronting a running :class:`~repro.obs.collect.FleetCollector`:

====================  ====================================================
``GET /``             self-contained HTML/JS dashboard (no external assets)
``GET /healthz``      liveness + collector state
``GET /api/obs/fleet``    newest merged snapshot + per-endpoint health +
                          a short counter history for rate charts
``GET /api/obs/metrics``  newest merged registry snapshot only
``GET /api/obs/spans``    recent span events from the trace tail (?limit=)
``GET /api/obs/summary``  ``summarize_trace`` of the trace file (?top=)
``GET /api/obs/bench``    perf-trajectory history + latest gate report
``GET /api/obs/stream``   Server-Sent Events: ``span`` and ``metrics``
====================  ====================================================

The SSE stream replays nothing: a client sees events from the moment it
connects, and fetches ``/api/obs/spans`` for backlog.  Stream responses
close the connection when done (SSE has no Content-Length); everything
else keeps the connection alive.
"""

from __future__ import annotations

import json
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Iterator
from urllib.parse import parse_qsl, urlsplit

from repro import __version__
from repro.obs.bench import DEFAULT_RULES, DEFAULT_WINDOW, Rule, history_payload
from repro.obs.collect import FleetCollector
from repro.obs.export import read_trace
from repro.obs.summary import summarize_trace
from repro.service.server import server_url

__all__ = [
    "DEFAULT_DASH_PORT",
    "ObsState",
    "make_dashboard",
    "running_dashboard",
    "serve_dashboard",
    "sse_format",
]

DEFAULT_DASH_PORT = 8790

#: Snapshots of counter history shipped with ``/api/obs/fleet`` (the ring
#: may hold more; the page only charts recent rates).
FLEET_HISTORY_LIMIT = 120

#: Seconds between SSE heartbeat comments when no events flow.
SSE_HEARTBEAT_S = 10.0


def sse_format(event: str, data: Any) -> bytes:
    """One Server-Sent-Events frame: ``event:``/``data:`` lines + blank line.

    ``data`` is JSON-encoded; embedded newlines become multiple ``data:``
    lines per the SSE spec, so the frame survives pretty-printed payloads.
    """
    if not event or any(c in event for c in "\r\n"):
        raise ValueError(f"SSE event name {event!r} must be a single non-empty line")
    payload = json.dumps(data, separators=(",", ":"), sort_keys=True)
    lines = [f"event: {event}"]
    lines.extend(f"data: {chunk}" for chunk in payload.split("\n"))
    return ("\n".join(lines) + "\n\n").encode("utf-8")


@dataclass
class ObsState:
    """Everything one dashboard serves: the collector plus file paths."""

    collector: FleetCollector
    target: str
    trace_path: Path | None = None
    history_path: Path | None = None
    bench_window: int = DEFAULT_WINDOW
    bench_rules: tuple[Rule, ...] = field(default=DEFAULT_RULES)


class ObsRequestHandler(BaseHTTPRequestHandler):
    """GET-only JSON/SSE surface over one :class:`ObsState`."""

    protocol_version = "HTTP/1.1"
    server_version = f"mas-attention-obs/{__version__}"

    @property
    def state(self) -> ObsState:
        return self.server.state  # type: ignore[attr-defined]

    def do_GET(self) -> None:
        parts = urlsplit(self.path)
        query = dict(parse_qsl(parts.query))
        try:
            if parts.path == "/api/obs/stream":
                self._handle_stream()
                return
            route = {
                "/": self._handle_index,
                "/healthz": self._handle_healthz,
                "/api/obs/fleet": self._handle_fleet,
                "/api/obs/metrics": self._handle_metrics,
                "/api/obs/spans": self._handle_spans,
                "/api/obs/summary": self._handle_summary,
                "/api/obs/bench": self._handle_bench,
            }.get(parts.path)
            if route is None:
                self._send_json(404, {"error": f"no such endpoint: GET {parts.path}"})
                return
            route(query)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - the dashboard must not die
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:  # pragma: no cover - client went away mid-error
                pass

    # ------------------------------------------------------------------ #
    # Plain endpoints
    # ------------------------------------------------------------------ #
    def _handle_index(self, query: dict) -> None:
        body = DASHBOARD_HTML.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle_healthz(self, query: dict) -> None:
        state = self.state
        latest = state.collector.latest()
        self._send_json(
            200,
            {
                "ok": True,
                "version": __version__,
                "target": state.target,
                "endpoints": list(state.collector.endpoints),
                "scrapes": latest.seq if latest else 0,
                "span_count": state.collector.span_count,
            },
        )

    def _handle_fleet(self, query: dict) -> None:
        collector = self.state.collector
        latest = collector.latest()
        if latest is None:
            latest = collector.scrape_once()  # first request races the thread
        history = [
            {
                "ts": snapshot.ts,
                "seq": snapshot.seq,
                "healthy": snapshot.healthy_count,
                "counters": snapshot.counters,
            }
            for snapshot in collector.snapshots()[-FLEET_HISTORY_LIMIT:]
        ]
        self._send_json(
            200,
            {
                "target": self.state.target,
                "latest": latest.as_dict(include_metrics=True),
                "history": history,
            },
        )

    def _handle_metrics(self, query: dict) -> None:
        latest = self.state.collector.latest()
        if latest is None:
            latest = self.state.collector.scrape_once()
        self._send_json(
            200,
            {"ts": latest.ts, "seq": latest.seq, "metrics": latest.registry.snapshot()},
        )

    def _handle_spans(self, query: dict) -> None:
        limit = int(query.get("limit", "100"))
        collector = self.state.collector
        collector.poll_spans()  # serve-the-freshest: don't wait for the loop
        self._send_json(
            200,
            {"count": collector.span_count, "spans": collector.spans(limit=limit)},
        )

    def _handle_summary(self, query: dict) -> None:
        top = int(query.get("top", "5"))
        trace_path = self.state.trace_path
        if trace_path is None or not trace_path.exists():
            self._send_json(
                200, {"available": False, "reason": "no trace file (set MAS_TRACE)"}
            )
            return
        summary = summarize_trace(read_trace(trace_path))
        self._send_json(200, {"available": True, "summary": summary.as_dict(top=top)})

    def _handle_bench(self, query: dict) -> None:
        state = self.state
        if state.history_path is None:
            self._send_json(200, {"available": False, "reason": "no history file"})
            return
        payload = history_payload(
            state.history_path, window=state.bench_window, rules=state.bench_rules
        )
        payload["available"] = True
        self._send_json(200, payload)

    # ------------------------------------------------------------------ #
    # SSE
    # ------------------------------------------------------------------ #
    def _handle_stream(self) -> None:
        collector = self.state.collector
        subscriber = collector.subscribe()
        self.close_connection = True  # no Content-Length on a live stream
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(b": mas-attention obs stream\n\n")
            self.wfile.flush()
            while True:
                try:
                    item = subscriber.get(timeout=SSE_HEARTBEAT_S)
                except queue.Empty:
                    self.wfile.write(b": heartbeat\n\n")
                    self.wfile.flush()
                    continue
                self.wfile.write(sse_format(item["event"], item["data"]))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client disconnected: normal SSE lifecycle
        finally:
            collector.unsubscribe(subscriber)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet by default; ``make_dashboard(verbose=True)`` restores the log."""
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)


def make_dashboard(
    state: ObsState,
    host: str = "127.0.0.1",
    port: int = DEFAULT_DASH_PORT,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-run dashboard server (``port=0`` picks a free one)."""
    server = ThreadingHTTPServer((host, port), ObsRequestHandler)
    server.state = state  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True  # SSE handlers must not block shutdown
    return server


@contextmanager
def running_dashboard(
    state: ObsState,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Iterator[ThreadingHTTPServer]:
    """Dashboard + collector on daemon threads, torn down on exit."""
    server = make_dashboard(state, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    state.collector.start()
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        state.collector.stop()
        thread.join(timeout=5)


def serve_dashboard(
    state: ObsState,
    host: str = "127.0.0.1",
    port: int = DEFAULT_DASH_PORT,
    verbose: bool = False,
) -> int:
    """Blocking entry point of ``mas-attention obs serve``; returns exit code."""
    server = make_dashboard(state, host=host, port=port, verbose=verbose)
    state.collector.start()
    print(
        f"observability dashboard on {server_url(server)} "
        f"(fleet: {', '.join(state.collector.endpoints)}; Ctrl-C stops)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.shutdown()
        server.server_close()
        state.collector.stop()
    return 0


# ---------------------------------------------------------------------- #
# The page.  One file, no external assets: it must render from inside a
# sealed CI container exactly as it does on a laptop.
# ---------------------------------------------------------------------- #
DASHBOARD_HTML = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>mas-attention observability</title>
<style>
  :root { --bg:#0f1419; --card:#1a2129; --ink:#d8e0e8; --dim:#7a8794;
          --ok:#3fb950; --bad:#f85149; --accent:#58a6ff; }
  * { box-sizing: border-box; }
  body { margin:0; padding:1.2rem; background:var(--bg); color:var(--ink);
         font:14px/1.45 system-ui, sans-serif; }
  h1 { font-size:1.15rem; margin:0 0 .25rem; }
  h2 { font-size:.85rem; margin:0 0 .5rem; color:var(--dim);
       text-transform:uppercase; letter-spacing:.06em; }
  #grid { display:grid; gap:1rem; grid-template-columns:repeat(auto-fit,minmax(330px,1fr)); }
  .card { background:var(--card); border-radius:8px; padding:.9rem 1rem; }
  table { width:100%; border-collapse:collapse; font-variant-numeric:tabular-nums; }
  td, th { padding:.2rem .4rem; text-align:left; border-bottom:1px solid #2a3340; }
  th { color:var(--dim); font-weight:500; }
  td.num, th.num { text-align:right; }
  .ok  { color:var(--ok); }  .bad { color:var(--bad); }
  .pill { display:inline-block; padding:.05rem .5rem; border-radius:999px;
          background:#243040; margin-right:.35rem; }
  #spanlog { max-height:14rem; overflow-y:auto; font:12px/1.5 ui-monospace,monospace; }
  #spanlog div { white-space:nowrap; }
  .muted { color:var(--dim); }
  #meta { color:var(--dim); margin-bottom:1rem; }
</style>
</head>
<body>
<h1>mas-attention · fleet observability</h1>
<div id="meta">connecting&hellip;</div>
<div id="grid">
  <div class="card"><h2>Endpoint health</h2><table id="health"></table></div>
  <div class="card"><h2>Fleet counters</h2><table id="counters"></table></div>
  <div class="card"><h2>Request latency (fleet, merged buckets)</h2><table id="latency"></table></div>
  <div class="card"><h2>Sweep progress by layer</h2>
    <div id="progress" class="muted">no spans yet</div><table id="layers"></table></div>
  <div class="card"><h2>Perf trajectory</h2><div id="bench" class="muted">loading&hellip;</div></div>
  <div class="card"><h2>Live spans</h2><div id="spanlog"></div></div>
</div>
<script>
"use strict";
const $ = id => document.getElementById(id);
const fmt = n => typeof n === "number" ? (Number.isInteger(n) ? n : n.toFixed(3)) : n;
const layers = {};          // layer -> {spans, total_ms}
let pairsDone = 0, sweeps = 0, spanTotal = 0;

function row(cells, head) {
  return "<tr>" + cells.map((c, i) =>
    `<t${head ? "h" : "d"}${i > 0 ? ' class="num"' : ""}>${c}</t${head ? "h" : "d"}>`
  ).join("") + "</tr>";
}

function renderFleet(doc) {
  const latest = doc.latest;
  $("meta").textContent =
    `target ${doc.target} — ${latest.healthy}/${latest.total} endpoints healthy — ` +
    `scrape #${latest.seq} at ${new Date(latest.ts * 1000).toLocaleTimeString()}`;
  $("health").innerHTML = row(["endpoint", "state", "scrape ms"], true) +
    latest.endpoints.map(e => row([
      e.url,
      e.healthy ? '<span class="ok">up</span>'
                : `<span class="bad">down</span> <span class="muted">${e.error || ""}</span>`,
      fmt(e.elapsed_ms)])).join("");
  const metrics = latest.metrics || {};
  const counters = Object.entries(metrics)
    .filter(([, v]) => typeof v === "number")
    .sort((a, b) => b[1] - a[1]);
  $("counters").innerHTML = row(["counter", "fleet total"], true) +
    counters.map(([k, v]) => row([k.replace(/^mas_store_/, ""), fmt(v)])).join("") +
    Object.entries(metrics)
      .filter(([, v]) => v && typeof v === "object" && !("count" in v))
      .flatMap(([k, children]) => Object.entries(children)
        .filter(([, v]) => typeof v === "number")
        .map(([label, v]) => row([`${k.replace(/^mas_store_/, "")}{${label}}`, fmt(v)])))
      .join("");
  const latRows = [];
  for (const [name, children] of Object.entries(metrics)) {
    if (!children || typeof children !== "object") continue;
    for (const [label, snap] of Object.entries(children)) {
      if (!snap || typeof snap !== "object" || !("p50" in snap)) continue;
      latRows.push(row([label, snap.count,
        fmt(snap.p50 * 1000), fmt(snap.p95 * 1000), fmt(snap.p99 * 1000)]));
    }
  }
  $("latency").innerHTML =
    row(["endpoint label", "n", "p50 ms", "p95 ms", "p99 ms"], true) +
    (latRows.join("") || row(["no requests observed yet", "", "", "", ""]));
}

function bumpSpan(s) {
  spanTotal += 1;
  const l = layers[s.layer || "app"] || (layers[s.layer || "app"] = { spans: 0, ms: 0 });
  l.spans += 1; l.ms += (s.dur_us || 0) / 1000;
  if (s.name === "pair") pairsDone += 1;
  if (s.name === "sweep") sweeps += 1;
  $("progress").textContent =
    `${spanTotal} spans — ${pairsDone} pairs done — ${sweeps} sweep(s) finished`;
  $("layers").innerHTML = row(["layer", "spans", "total ms"], true) +
    Object.entries(layers).sort((a, b) => b[1].ms - a[1].ms)
      .map(([k, v]) => row([k, v.spans, fmt(v.ms)])).join("");
  const log = $("spanlog");
  const line = document.createElement("div");
  line.textContent =
    `${((s.dur_us || 0) / 1000).toFixed(1)} ms  ${s.name} [${s.layer}] pid=${s.pid || "?"}`;
  log.prepend(line);
  while (log.childElementCount > 200) log.removeChild(log.lastChild);
}

function renderBench(doc) {
  if (!doc.available || !doc.report) {
    $("bench").textContent = "no benchmark history recorded yet"; return;
  }
  const rep = doc.report;
  const badge = rep.ok ? '<span class="pill ok">PASS</span>'
                       : '<span class="pill bad">FAIL</span>';
  $("bench").innerHTML = badge +
    `<span class="muted">${doc.entries} entries, ${doc.runs.length} runs</span>` +
    "<table>" + row(["metric", "now", "baseline", "Δ%"], true) +
    rep.deltas.map(d => row([
      `${d.regressed ? '<span class="bad">' : ""}${d.benchmark}.${d.metric}` +
      `${d.regressed ? "</span>" : ""}`,
      fmt(d.current), fmt(d.baseline), d.delta_pct])).join("") + "</table>";
}

async function refresh() {
  try {
    const [fleet, bench] = await Promise.all([
      fetch("/api/obs/fleet").then(r => r.json()),
      fetch("/api/obs/bench").then(r => r.json())]);
    renderFleet(fleet); renderBench(bench);
  } catch (err) {
    $("meta").textContent = "dashboard fetch failed: " + err;
  }
}

fetch("/api/obs/spans?limit=200").then(r => r.json())
  .then(doc => doc.spans.forEach(bumpSpan)).catch(() => {});
const source = new EventSource("/api/obs/stream");
source.addEventListener("span", ev => bumpSpan(JSON.parse(ev.data)));
source.addEventListener("metrics", () => refresh());
refresh();
setInterval(refresh, 5000);
</script>
</body>
</html>
"""
