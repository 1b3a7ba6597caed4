"""Central registry of every ``MAS_*`` environment variable.

Environment variables are the repo's cross-process configuration surface —
cache URIs shared by sweep workers, suite overrides in CI, worker counts —
and they historically grew one ``os.environ.get`` at a time, each with its
own default, stripping rule and (maybe) a docs mention.  This module makes
the set machine-checkable:

* every variable is *declared* here once, with its name, default and a
  one-line doc string;
* every *read* goes through :func:`value` / :func:`int_value`, which refuse
  names that were never registered — a typo'd variable is a loud error, not
  a silently ignored knob;
* the registry renders itself into the reference table in
  ``docs/env_vars.md`` (:func:`render_markdown_table`), and the ``mas-lint``
  ``env-registry`` checker cross-references code, registry and docs so none
  of the three can drift.

Reading ``os.environ`` directly for a ``MAS_*`` name anywhere else in the
project is a lint error (see :mod:`repro.devtools`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EnvVar",
    "REGISTRY",
    "int_value",
    "register",
    "render_markdown_table",
    "value",
]


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable: its name, default and purpose."""

    name: str
    default: str | None
    doc: str


#: Every declared variable, keyed by name, in registration order.
REGISTRY: dict[str, EnvVar] = {}


def register(name: str, default: str | None, doc: str) -> EnvVar:
    """Declare a variable.  Names must be unique, uppercase and ``MAS_``-prefixed."""
    if not name.startswith("MAS_") or name != name.upper():
        raise ValueError(f"environment variable {name!r} must be an uppercase MAS_* name")
    if name in REGISTRY:
        raise ValueError(f"environment variable {name!r} is already registered")
    if not doc.strip():
        raise ValueError(f"environment variable {name!r} needs a doc string")
    var = EnvVar(name=name, default=default, doc=" ".join(doc.split()))
    REGISTRY[name] = var
    return var


def _var(name: str) -> EnvVar:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(
            f"environment variable {name!r} is not registered in repro.utils.env "
            f"(known: {known})"
        ) from None


def value(name: str) -> str | None:
    """The stripped value of registered variable ``name``.

    An unset, empty or whitespace-only variable falls back to the registered
    default (which may be ``None``), so ``MAS_X= cmd`` and an unset ``MAS_X``
    behave identically everywhere.
    """
    var = _var(name)
    raw = os.environ.get(name, "").strip()
    return raw or var.default


def int_value(name: str, fallback: int | None = None) -> int:
    """:func:`value` parsed as an integer.

    ``fallback`` applies when the variable is unset and the registry holds no
    default.  A set-but-malformed value raises ``ValueError`` naming the
    variable, so a typo'd ``MAS_X=four`` fails loudly instead of defaulting.
    """
    text = value(name)
    if text is None:
        if fallback is None:
            raise ValueError(f"${name} is unset and has no registered default")
        return fallback
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"${name}={text!r} is not an integer") from exc


def render_markdown_table() -> str:
    """The registry as the markdown table published in ``docs/env_vars.md``.

    The docs file embeds this output verbatim; ``tests/test_devtools_lint.py``
    asserts the two stay identical, and the lint driver cross-checks the
    names, so registering a variable without re-rendering the table fails CI.
    """
    rows = [
        "| Variable | Default | Purpose |",
        "| --- | --- | --- |",
    ]
    for var in REGISTRY.values():
        default = f"`{var.default}`" if var.default is not None else "*(unset)*"
        rows.append(f"| `{var.name}` | {default} | {var.doc} |")
    return "\n".join(rows)


# ---------------------------------------------------------------------- #
# The registry.  Library knobs first, then benchmark/CI-only knobs.
# ---------------------------------------------------------------------- #
register(
    "MAS_CACHE_URI",
    None,
    "Default result-store URI for every runner and `cache` subcommand: "
    "`dir:/path`, `sqlite:///path.db`, `http://host:8787` or "
    "`shard:http://a:8787,http://b:8787`, optionally with "
    "`?max_entries=/?max_bytes=/?ttl=` eviction caps (and `?replicas=` on "
    "shard fleets). Explicit `--cache` flags win.",
)
register(
    "MAS_CACHE_DIR",
    None,
    "Legacy default cache *directory* (the PR-1 JSON-file format). Consulted "
    "only when `MAS_CACHE_URI` is unset; `--cache`/`--cache-dir` flags win.",
)
register(
    "MAS_SUITES_FILE",
    None,
    "JSON/TOML file of user-registered workload suites, loaded lazily on "
    "every registry lookup. An explicit `--suites-file` flag replaces it.",
)
register(
    "MAS_SEARCH_WORKERS",
    "1",
    "Candidate-evaluation workers inside each pair's tiling search "
    "(1 = serial). Results are bit-identical at any worker count.",
)
register(
    "MAS_TRACE",
    None,
    "Span-trace output path (JSONL, appended). When set, every sweep, "
    "search generation, store operation and HTTP request records a span; "
    "`mas-attention obs summarize|convert|validate` consume the file. "
    "Unset (the default) disables tracing entirely.",
)
register(
    "MAS_TRACE_BUFFER",
    "1",
    "Spans buffered per process before the trace file is flushed. The "
    "default 1 flushes every span (crash-safe); larger values batch "
    "writes for very hot traces.",
)
register(
    "MAS_TEST_SUITE",
    None,
    "Replaces the test suite's sweep-suite matrix with one suite spec "
    "(e.g. `table1-batched@seq<=256`); used by CI to pin a non-default suite.",
)
register(
    "MAS_BENCH_BUDGET",
    "40",
    "Tiling-search budget per (method, network) pair in the benchmark "
    "harness.",
)
register(
    "MAS_BENCH_NETWORKS",
    None,
    "Comma-separated network subset for the benchmark harness "
    "(default: all Table-1 networks).",
)
register(
    "MAS_BENCH_JOBS",
    "1",
    "Worker processes for the benchmark harness's tuning+simulation matrix.",
)
register(
    "MAS_BENCH_SEARCH_WORKERS",
    None,
    "Candidate-evaluation workers per pair in the benchmark harness "
    "(default: the runner default, which honours `MAS_SEARCH_WORKERS`).",
)
register(
    "MAS_BENCH_INTRA_BUDGET",
    "300",
    "Search budget of the intra-pair parallel-evaluator scaling benchmark.",
)
register(
    "MAS_BENCH_CACHE_DIR",
    None,
    "Persistent tuning-result cache directory shared across benchmark "
    "sessions (legacy directory format).",
)
register(
    "MAS_BENCH_CACHE_URI",
    None,
    "Result-store URI shared across benchmark sessions; wins over "
    "`MAS_BENCH_CACHE_DIR`.",
)
register(
    "MAS_BENCH_SUITE",
    None,
    "Workload suite swept by the table/figure benchmarks (name or inline "
    "spec; default: Table 1).",
)
register(
    "MAS_ANALYTIC_PRUNE",
    "0",
    "Prune search candidates whose analytic lower bound on the objective "
    "already loses to the incumbent (skipping their simulation). Off by "
    "default: search results are bit-identical to the serial path only when "
    "disabled.",
)
register(
    "MAS_BENCH_LOCK_THREADS",
    "4",
    "Concurrent client threads in the service lock-contention benchmark "
    "(`benchmarks/bench_parallel_runner.py::test_service_lock_concurrency`).",
)
register(
    "MAS_BENCH_SEARCH_BUDGET",
    "120",
    "Search budget per configuration of the candidate-throughput benchmark "
    "(`benchmarks/bench_parallel_runner.py::test_search_throughput_analytic`).",
)
register(
    "MAS_PROFILE",
    None,
    "Per-span cProfile hook: a span layer name (`runner`, `search`, `store`, "
    "`http`, `service`), a comma-separated list of layers, or `all`. Matching "
    "spans run under a profiler and spans slower than `MAS_PROFILE_MIN_MS` "
    "persist their pstats next to the trace file; `mas-attention obs profile` "
    "aggregates the hotspots. Unset (the default) disables profiling.",
)
register(
    "MAS_PROFILE_MIN_MS",
    "10",
    "Minimum span duration, in milliseconds, for a profiled span's pstats "
    "file to be kept. Faster spans are profiled but their stats discarded.",
)
register(
    "MAS_PROFILE_DIR",
    None,
    "Directory for persisted span pstats files. Default: `<MAS_TRACE>.prof.d` "
    "next to the trace file, or `mas_profile` in the working directory when "
    "tracing is off.",
)
register(
    "MAS_OBS_INTERVAL",
    "2",
    "Fleet-collector scrape interval, in seconds, for `mas-attention obs "
    "serve` (how often every endpoint's `/metrics` is polled and merged).",
)
register(
    "MAS_OBS_RING",
    "512",
    "Bounded ring size of timestamped fleet snapshots (and buffered live "
    "span events) kept in memory by the observability collector.",
)
