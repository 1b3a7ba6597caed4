"""Command-line interface: run any experiment of the paper from the shell.

Examples
--------
.. code-block:: console

   $ mas-attention networks                 # print Table 1
   $ mas-attention suites                   # list the workload suites
   $ mas-attention suites cross-attention   # one suite's entries
   $ mas-attention compare BERT-Base        # untuned comparison of all methods
   $ mas-attention table2 --budget 60       # Table 2 (cycles + speedups)
   $ mas-attention table2 --jobs 4 --stream                      # parallel + live progress
   $ mas-attention table2 --suite table1-batched                 # batch 4/8/16 sweep
   $ mas-attention table2 --suite table1 --batch 8               # = table1@batch=8
   $ mas-attention table3 --suite 'long-context@seq<=8192'       # inline suite spec
   $ mas-attention table3                   # Table 3 (energy + savings)
   $ mas-attention fig5                     # Figure 5 (DaVinci-like NPU)
   $ mas-attention fig6                     # Figure 6 (energy breakdown)
   $ mas-attention fig7                     # Figure 7 (search convergence)
   $ mas-attention dram                     # Section 5.4 DRAM analysis
   $ mas-attention limits                   # Section 5.6 sequence limits
   $ mas-attention sdunet                   # Section 5.2.2 SD-1.5 UNet
   $ mas-attention ablation overwrite       # design ablations
   $ mas-attention table2 --cache dir:./cache                # persistent result store
   $ mas-attention cache stats --cache dir:./cache           # inspect the store
   $ mas-attention cache evict --cache dir:./cache --max-bytes 1GiB
   $ mas-attention serve dir:./cache --port 8787             # shared store service
   $ mas-attention table2 --cache http://cachehost:8787      # sweep against it
   $ mas-attention table2 --suite gqa                        # GQA/MQA shapes
   $ MAS_TRACE=trace.jsonl mas-attention table2 --jobs 4     # traced sweep
   $ mas-attention obs summarize trace.jsonl                 # where time went
   $ mas-attention obs convert trace.jsonl                   # -> Perfetto JSON
   $ mas-attention obs metrics http://cachehost:8787         # service latency
   $ mas-attention obs bench ../parent                       # perf gate vs parent
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from repro import __version__, quick_compare
from repro.analysis import (
    DramAnalysisResult,
    ExperimentRunner,
    TimelineOptions,
    format_table,
    render_comparison,
    run_dram_analysis,
    run_figure5,
    run_figure6,
    run_figure7,
    run_limits,
    run_overwrite_ablation,
    run_sd_unet,
    run_search_ablation,
    run_sensitivity,
    run_table2,
    run_table3,
    run_tiling_ablation,
)
from repro.hardware.presets import get_preset
from repro.schedulers.registry import list_schedulers, make_scheduler
from repro.store import (
    EvictionPolicy,
    HttpStore,
    open_store,
    parse_size,
    resolve_store_target,
)
from repro.store.http import UNREACHABLE_ERRORS
from repro.utils.serialization import dump_json, to_jsonable
from repro.utils.units import bytes_to_human
from repro.workloads.networks import get_network, table1_rows
from repro.workloads.suites import get_suite, list_suites

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="mas-attention",
        description="MAS-Attention (MLSys 2025) reproduction experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_args(p: argparse.ArgumentParser, default_hw: str = "edge-sim") -> None:
        p.add_argument("--hardware", default=default_hw, help="hardware preset name")
        p.add_argument("--budget", type=int, default=60, help="tiling search budget")
        p.add_argument("--no-search", action="store_true", help="use heuristic tilings only")
        p.add_argument(
            "--networks", nargs="*", default=None, help="subset of suite entries"
        )
        default_suite, *other_suites = list_suites()
        p.add_argument(
            "--suite",
            default=None,
            help=f"workload suite to sweep: {default_suite} (default), "
            f"{', '.join(other_suites)}, or an inline spec such as "
            "table1@batch=8 or long-context@seq<=8192 (see 'mas-attention suites')",
        )
        p.add_argument(
            "--batch",
            type=int,
            default=None,
            help="re-batch every suite entry (shorthand for @batch=N on --suite)",
        )
        p.add_argument("--json", dest="json_path", default=None, help="also dump results as JSON")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for the (method, network) matrix (1 = serial)",
        )
        p.add_argument(
            "--cache",
            dest="cache_uri",
            default=None,
            help="result-store URI or directory: dir:/path or "
            "http://host:8787 (a running 'mas-attention serve'), optionally "
            "with ?max_entries=N&max_bytes=SIZE eviction caps (default: "
            "$MAS_CACHE_URI)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the persistent tuning-result cache",
        )
        p.add_argument(
            "--stream",
            action="store_true",
            help="print each (method, network) run to stderr as it completes, "
            "before the final table",
        )

    sub.add_parser("networks", help="print the Table-1 network registry")

    p = sub.add_parser("suites", help="list workload suites (or one suite's entries)")
    p.add_argument(
        "spec", nargs="?", default=None, help="suite name or inline spec to expand"
    )

    p = sub.add_parser("compare", help="untuned comparison of all methods on one network")
    p.add_argument("network", help="Table-1 network name (prefix match)")
    p.add_argument("--hardware", default="edge-sim")

    for name, help_text in (
        ("table2", "Table 2: cycles and speedups"),
        ("table3", "Table 3: energy and savings"),
        ("fig6", "Figure 6: energy breakdown"),
        ("fig7", "Figure 7: search convergence"),
        ("dram", "Section 5.4: DRAM access analysis"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_runner_args(p)

    p = sub.add_parser("fig5", help="Figure 5: normalized execution time on the DaVinci-like NPU")
    add_runner_args(p, default_hw="davinci-like")

    p = sub.add_parser("limits", help="Section 5.6: maximum sequence length limits")
    p.add_argument("--hardware", default="edge-sim")
    p.add_argument("--emb", type=int, default=64)

    p = sub.add_parser("sdunet", help="Section 5.2.2: Stable Diffusion 1.5 reduced UNet")
    p.add_argument("--hardware", default="davinci-like")
    p.add_argument("--search", action="store_true", help="grid-search tilings per unit")

    p = sub.add_parser("ablation", help="design-choice ablations")
    p.add_argument("which", choices=["overwrite", "tiling", "search"])
    p.add_argument("--budget", type=int, default=40)

    p = sub.add_parser("timeline", help="ASCII Gantt timeline of two dataflows on one network")
    p.add_argument("network", help="Table-1 network name (prefix match)")
    p.add_argument("--methods", nargs="*", default=["flat", "mas"])
    p.add_argument("--hardware", default="edge-sim")
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser("cache", help="inspect and manage the persistent result store")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    def add_cache_target(cp: argparse.ArgumentParser) -> None:
        cp.add_argument(
            "--cache",
            dest="cache_uri",
            default=None,
            help="result-store URI or directory (default: $MAS_CACHE_URI)",
        )

    cp = cache_sub.add_parser("stats", help="entry count, size and stale entries")
    add_cache_target(cp)

    cp = cache_sub.add_parser("ls", help="list stored entries")
    add_cache_target(cp)
    cp.add_argument("--scheduler", default=None, help="filter by scheduler name")
    cp.add_argument("--workload", default=None, help="filter by workload entry name")
    cp.add_argument("--strategy", default=None, help="filter by search strategy")
    cp.add_argument("--suite", default=None, help="filter by recording suite")
    cp.add_argument("--limit", type=int, default=50, help="max rows (0 = all)")

    cp = cache_sub.add_parser("evict", help="LRU-evict entries down to the given caps")
    add_cache_target(cp)
    cp.add_argument("--max-entries", type=int, default=None, help="keep at most N entries")
    cp.add_argument(
        "--max-bytes", default=None, help="keep at most SIZE bytes (e.g. 512MiB, 1G)"
    )

    cp = cache_sub.add_parser("clear", help="delete every entry of the store")
    add_cache_target(cp)

    p = sub.add_parser(
        "serve",
        help="serve a result store over HTTP (clients: --cache http://host:port)",
    )
    p.add_argument(
        "store",
        nargs="?",
        default=None,
        help="store URI or directory to front (default: $MAS_CACHE_URI)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 picks a free one)"
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )

    p = sub.add_parser(
        "obs",
        help="observability toolchain: span traces ($MAS_TRACE), service metrics "
        "and the perf gate",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    op = obs_sub.add_parser(
        "summarize",
        help="per-layer time breakdown, critical path and slowest spans of a trace",
    )
    op.add_argument("trace", help="span-trace JSONL file (written under $MAS_TRACE)")
    op.add_argument("--top", type=int, default=5, help="slowest spans to show")

    op = obs_sub.add_parser(
        "convert",
        help="convert a JSONL span trace to Chrome trace-event JSON "
        "(loadable in chrome://tracing or ui.perfetto.dev)",
    )
    op.add_argument("trace", help="span-trace JSONL file")
    op.add_argument(
        "-o",
        "--output",
        default=None,
        help="output path (default: <trace>.chrome.json)",
    )

    op = obs_sub.add_parser(
        "validate",
        help="schema- and reference-check every span of a trace file",
    )
    op.add_argument("trace", help="span-trace JSONL file")

    op = obs_sub.add_parser(
        "metrics",
        help="fetch and render a running store service's /metrics document",
    )
    op.add_argument("uri", help="service URI: http://host:8787")
    op.add_argument(
        "--raw", action="store_true", help="print the raw JSON document instead"
    )
    op.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-fetch and re-render every SECONDS until interrupted "
        "(an unreachable service prints one line per poll)",
    )

    op = obs_sub.add_parser(
        "bench",
        help="perf gate: run perfbench on PARENT_DIR's src and on this checkout "
        "in alternating pairs per BENCHMARK.json workload; exit 1 when an "
        "end-to-end metric is worse than its bound or a run fails",
    )
    op.add_argument(
        "parent",
        metavar="PARENT_DIR",
        help="checkout of the parent commit (e.g. a git worktree of HEAD^)",
    )

    # Every argument after "lint" goes to the mas-lint driver unparsed.
    sub.add_parser(
        "lint",
        add_help=False,
        help="run mas-lint, the project-invariant static analysis, with the "
        "arguments of python -m repro.devtools.lint; no path lints src/repro "
        "tests (see docs/dev_tooling.md)",
    )

    p = sub.add_parser("sweep", help="hardware sensitivity sweep (MAS vs FLAT)")
    p.add_argument(
        "parameter", choices=["l1_bytes", "dram_bytes_per_cycle", "vec_throughput"]
    )
    p.add_argument("--network", default="BERT-Base")
    p.add_argument("--budget", type=int, default=30)
    p.add_argument("--no-search", action="store_true")

    return parser


def _suite_spec(args: argparse.Namespace) -> str:
    """The suite spec the runner should sweep (``--suite`` plus ``--batch``)."""
    spec = args.suite or "table1"
    if args.batch is not None:
        spec = f"{spec}@batch={args.batch}"
    return spec


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        hardware=get_preset(args.hardware),
        search_budget=args.budget,
        use_search=not args.no_search,
        cache_uri=args.cache_uri,
        use_cache=not args.no_cache,
        jobs=args.jobs,
        suite=_suite_spec(args),
    )


def _stream_matrix(runner: ExperimentRunner, networks: list[str] | None) -> None:
    """Pre-run the matrix, printing one stderr line per completed run.

    Every run is memoized on the runner, so the table/figure harness that
    follows reuses them without re-executing anything.
    """
    total = len(runner.networks(networks)) * len(runner.methods())
    for i, run in enumerate(runner.iter_matrix(networks), start=1):
        cached = " (cached)" if run.cached else ""
        print(
            f"[{i}/{total}] {run.scheduler:<10s} {run.network}: "
            f"{run.cycles:,} cycles{cached}",
            file=sys.stderr,
        )


def _open_cache_store(target: str | None):
    """The store a ``cache`` subcommand operates on (or a clear SystemExit)."""
    store = open_store(target) if target else None
    if store is None:  # unset, empty or whitespace-only target
        raise SystemExit("no result store selected: pass --cache URI (or set $MAS_CACHE_URI)")
    return store


def _run_cache_command(args: argparse.Namespace) -> int:
    """The ``mas-attention cache`` group: stats / ls / evict / clear."""
    store = _open_cache_store(resolve_store_target(args.cache_uri))
    try:
        return _run_cache_store_command(args, store)
    finally:
        store.close()


def _run_cache_store_command(args: argparse.Namespace, store) -> int:
    """One-store ``cache`` subcommands (the store is closed by the caller)."""
    from datetime import datetime

    if args.cache_command == "stats":
        stats = store.stats()
        print(f"store   : {stats.location}")
        print(f"backend : {stats.backend}")
        print(f"entries : {stats.entries}")
        print(f"size    : {bytes_to_human(stats.total_bytes)}")
        print(f"stale   : {stats.stale_entries}")
        return 0

    if args.cache_command == "ls":
        # Entries record a spec suite by its canonical name; a name that is
        # no spec (a Python-built suite's) is matched as typed.
        suite = args.suite
        if suite is not None:
            try:
                suite = get_suite(suite).name
            except (KeyError, ValueError):
                pass
        # every backend takes the filters; a served store applies them remotely
        entries = store.entries(
            scheduler=args.scheduler,
            workload=args.workload,
            strategy=args.strategy,
            suite=suite,
        )
        entries.sort(key=lambda e: e.last_used, reverse=True)
        shown = entries if args.limit <= 0 else entries[: args.limit]
        print(
            format_table(
                ["Key", "Scheduler", "Workload", "Strategy", "Suite", "Size", "Last used"],
                [
                    [
                        e.key[:12],
                        e.scheduler or "-",
                        e.workload or "-",
                        e.strategy or "-",
                        e.suite or "-",
                        bytes_to_human(e.size_bytes),
                        datetime.fromtimestamp(e.last_used).isoformat(
                            sep=" ", timespec="seconds"
                        ),
                    ]
                    for e in shown
                ],
                title=f"{store.uri()} — {len(entries)} entries"
                + (f" (showing {len(shown)})" if len(shown) < len(entries) else ""),
            )
        )
        return 0

    if args.cache_command == "evict":
        if args.max_entries is None and args.max_bytes is None:
            # The store's own caps; a served store also enforces the caps
            # its service was launched with, which this client cannot see.
            policy = None
            if not store.policy.bounded and not isinstance(store, HttpStore):
                raise SystemExit(
                    "nothing to enforce: pass --max-entries/--max-bytes "
                    "or put ?max_entries=/?max_bytes= caps in the store URI"
                )
        else:
            policy = EvictionPolicy(
                max_entries=args.max_entries,
                max_bytes=parse_size(args.max_bytes) if args.max_bytes is not None else None,
            )
        evicted = store.evict(policy)
        stats = store.stats()
        print(
            f"evicted {len(evicted)} entries; "
            f"{stats.entries} remain ({bytes_to_human(stats.total_bytes)})"
        )
        return 0

    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.uri()}")
        return 0

    raise AssertionError(  # pragma: no cover - argparse enforces the choices
        f"unhandled cache command {args.cache_command!r}"
    )


def _run_obs_command(args: argparse.Namespace) -> int:
    """The ``mas-attention obs`` group: traces, metrics, perf gate."""
    from repro.obs.export import read_trace, write_chrome
    from repro.obs.schema import validate_trace_file
    from repro.obs.summary import summarize_trace

    if args.obs_command == "summarize":
        spans = read_trace(args.trace)
        if not spans:
            raise SystemExit(f"{args.trace}: trace file contains no spans")
        print(f"trace {args.trace}")
        print(summarize_trace(spans, top=max(args.top, 1)).format(top=args.top))
        return 0

    if args.obs_command == "convert":
        spans = read_trace(args.trace)
        output = args.output
        if output is None:
            stem = args.trace[: -len(".jsonl")] if args.trace.endswith(".jsonl") else args.trace
            output = f"{stem}.chrome.json"
        write_chrome(spans, output)
        print(f"wrote {len(spans)} spans to {output}")
        return 0

    if args.obs_command == "validate":
        errors = validate_trace_file(args.trace)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            print(f"{args.trace}: {len(errors)} problem(s)", file=sys.stderr)
            return 1
        print(f"{args.trace}: {len(read_trace(args.trace))} spans, all valid")
        return 0

    if args.obs_command == "metrics":
        while True:
            store = open_store(args.uri)
            if not isinstance(store, HttpStore):
                if store is not None:
                    store.close()
                raise SystemExit(
                    f"obs metrics needs a served store (http://host:port), "
                    f"got {args.uri!r}"
                )
            try:
                document = store.metrics()
            except UNREACHABLE_ERRORS as exc:
                document = None
                print(f"{store.uri()}: unreachable ({exc})", file=sys.stderr)
            finally:
                store.close()
            if document is None:
                if args.watch is None:
                    return 1
            elif args.raw:
                print(json.dumps(document, indent=2, sort_keys=True))
            else:
                _print_service_metrics(store.uri(), document)
            if args.watch is None:
                return 0
            try:
                time.sleep(max(args.watch, 0.1))
            except KeyboardInterrupt:
                return 0
            print(f"\n--- {args.uri} (every {args.watch:g}s, Ctrl-C stops) ---")

    if args.obs_command == "bench":
        from repro.obs.bench import run_gate

        return run_gate(".", args.parent)

    raise AssertionError(  # pragma: no cover - argparse enforces the choices
        f"unhandled obs command {args.obs_command!r}"
    )


def _print_service_metrics(title: str, document: dict) -> None:
    """Render one service's JSON ``/metrics`` document as tables."""
    counters = {
        name: value
        for name, value in sorted(document.items())
        if isinstance(value, int) and name != "uptime_s"
    }
    counter_text = "  ".join(f"{name}={value}" for name, value in counters.items())
    print(f"{title}  (uptime {document.get('uptime_s', 0.0):.0f}s)")
    if counter_text:
        print(f"  {counter_text}")
    requests = document.get("requests") or {}
    if requests:
        print(
            format_table(
                ["Endpoint", "Count", "Errors", "Mean ms", "p50 ms", "p95 ms", "p99 ms", "Max ms"],
                [
                    [
                        endpoint,
                        stats.get("count", 0),
                        stats.get("errors", 0),
                        stats.get("mean_ms", 0.0),
                        stats.get("p50_ms", 0.0),
                        stats.get("p95_ms", 0.0),
                        stats.get("p99_ms", 0.0),
                        stats.get("max_ms", 0.0),
                    ]
                    for endpoint, stats in sorted(requests.items())
                ],
                title="request latency by endpoint",
            )
        )


def _run_serve_command(args: argparse.Namespace) -> int:
    """The ``mas-attention serve`` command: front a local store over HTTP."""
    from repro.service import serve_store

    store = _open_cache_store(resolve_store_target(args.store))
    if isinstance(store, HttpStore):
        raise SystemExit(
            f"refusing to front {store.uri()}: serve needs the *local* backend "
            "(dir:/path), not another HTTP service"
        )
    return serve_store(store, host=args.host, port=args.port, verbose=args.verbose)


def _emit(text: str, result: object, json_path: str | None) -> None:
    print(text)
    if json_path:
        if hasattr(result, "as_rows"):
            payload = {"columns": result.columns(), "rows": to_jsonable(result.as_rows())}
            if isinstance(result, DramAnalysisResult):
                # The constrained-L1 table the text prints, where the
                # overwrite path fires (Section 5.4).
                payload["constrained_rows"] = to_jsonable(result.as_rows(constrained=True))
        else:
            payload = to_jsonable(result)
        dump_json(payload, json_path)
        print(f"\n[json written to {json_path}]")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.devtools import lint as devtools_lint

        return devtools_lint.main(rest, default_paths=["src/repro", "tests"])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")

    if args.command == "cache":
        return _run_cache_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "obs":
        return _run_obs_command(args)

    if args.command == "suites":
        if args.spec:
            suite = get_suite(args.spec)
            print(
                format_table(
                    ["Entry", "B", "#Heads", "SeqQ", "SeqKV", "Emb"],
                    [
                        [r["entry"], r["batch"], r["heads"], r["seq_q"], r["seq_kv"], r["emb"]]
                        for r in suite.rows()
                    ],
                    title=f"Suite {suite.name}: {suite.description}",
                )
            )
        else:
            print(
                format_table(
                    ["Suite", "#Entries", "Description"],
                    [
                        [s.name, len(s), s.description]
                        for s in (get_suite(name) for name in list_suites())
                    ],
                    title="Workload suites (inline specs: name@batch=N, name@seq<=N)",
                )
            )
        return 0

    if args.command == "networks":
        rows = table1_rows()
        print(
            format_table(
                ["Network", "#Heads", "#Seq", "Hidden", "EmbK,V"],
                [[r["network"], r["heads"], r["seq"], r["hidden"], r["emb_kv"]] for r in rows],
                title="Table 1: network configuration and hyper-parameters",
            )
        )
        return 0

    if args.command == "compare":
        rows = quick_compare(args.network, hardware=get_preset(args.hardware))
        print(
            format_table(
                ["Method", "cycles", "latency (ms)", "energy (1e9 pJ)", "DRAM rd (B)", "DRAM wr (B)"],
                [
                    [
                        r["scheduler"],
                        r["cycles"],
                        r["latency_ms"],
                        r["energy_pj"] / 1e9,
                        r["dram_bytes_read"],
                        r["dram_bytes_written"],
                    ]
                    for r in rows
                ],
                title=f"Untuned comparison on {args.network} ({args.hardware})",
            )
        )
        return 0

    if args.command == "limits":
        result = run_limits(hardware=get_preset(args.hardware), emb=args.emb)
        print(result.format())
        return 0

    if args.command == "sdunet":
        result = run_sd_unet(hardware=get_preset(args.hardware), use_search=args.search)
        print(result.format())
        return 0

    if args.command == "ablation":
        if args.which == "overwrite":
            result = run_overwrite_ablation()
        elif args.which == "tiling":
            result = run_tiling_ablation(search_budget=args.budget)
        else:
            result = run_search_ablation(budget=args.budget)
        print(result.format())
        return 0

    if args.command == "timeline":
        hardware = get_preset(args.hardware)
        workload = get_network(args.network).workload()
        unknown = [m for m in args.methods if m not in list_schedulers()]
        if unknown:
            raise SystemExit(f"unknown methods {unknown}; available: {list_schedulers()}")
        traces = {
            method: make_scheduler(method, hardware).simulate(workload).trace
            for method in args.methods
        }
        resources = ("core0.mac", "core0.vec", "dma")
        print(
            render_comparison(
                traces, TimelineOptions(width=args.width, resources=resources)
            )
        )
        return 0

    if args.command == "sweep":
        result = run_sensitivity(
            parameter=args.parameter,
            network=args.network,
            search_budget=args.budget,
            use_search=not args.no_search,
        )
        print(result.format())
        return 0

    runner = _make_runner(args)
    if args.stream:
        _stream_matrix(runner, args.networks)
    if args.command == "table2":
        result = run_table2(runner, networks=args.networks)
    elif args.command == "table3":
        result = run_table3(runner, networks=args.networks)
    elif args.command == "fig5":
        result = run_figure5(runner, networks=args.networks)
    elif args.command == "fig6":
        result = run_figure6(runner, networks=args.networks)
    elif args.command == "fig7":
        result = run_figure7(runner, networks=args.networks)
    elif args.command == "dram":
        result = run_dram_analysis(runner, networks=args.networks)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command!r}")
    _emit(result.format(), result, args.json_path)
    _print_search_stats(runner)
    return 0


def _print_search_stats(runner: ExperimentRunner) -> None:
    """One stderr line summarizing how the searches dispatched their candidates.

    Shows the search accounting (simulated vs. shared vs. infeasible vs.
    bound-pruned candidates) for sweeps that actually searched; silent on
    fully warm-cache or no-search runs.
    """
    stats = runner.cache_stats()
    if not stats["searches"]:
        return
    print(
        f"search: {stats['search_evaluations']} candidates over "
        f"{stats['searches']} searches "
        f"({stats['search_simulated']} simulated, "
        f"{stats['search_shared']} shared, "
        f"{stats['search_infeasible']} infeasible, "
        f"{stats['search_pruned']} pruned)",
        file=sys.stderr,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
