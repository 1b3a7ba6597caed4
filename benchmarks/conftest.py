"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The tuned runs
are shared through session-scoped fixtures so the artefacts that report the
same underlying experiments (Table 2, Table 3, Figure 6, Figure 7) only pay
for the tiling search once per session, exactly as in the paper's methodology.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark prints the regenerated rows/series (visible with ``-s`` or in
the captured output) and attaches the headline numbers to
``benchmark.extra_info`` so they land in the pytest-benchmark JSON output.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentRunner
from repro.hardware.presets import davinci_like_npu
from repro.utils import env

#: Tiling-search budget per (method, network) pair.  The paper runs ~10K
#: iterations offline; this default keeps the full benchmark suite at a few
#: minutes while preserving the convergence behaviour.  Override with
#: ``MAS_BENCH_BUDGET=200 pytest benchmarks/ --benchmark-only``.
SEARCH_BUDGET = env.int_value("MAS_BENCH_BUDGET")

#: Network subset; empty means all 12 Table-1 networks.  Override with e.g.
#: ``MAS_BENCH_NETWORKS="BERT-Base,ViT-B/14"``.
_networks_env = env.value("MAS_BENCH_NETWORKS") or ""
NETWORKS = [n.strip() for n in _networks_env.split(",") if n.strip()] or None

#: Worker processes for the tuning+simulation matrix (1 = serial) and the
#: persistent tuning-result cache shared across benchmark sessions.  With
#: ``MAS_BENCH_CACHE_DIR`` (a directory) or ``MAS_BENCH_CACHE_URI`` (a result
#: -store URI such as ``sqlite:///bench.db``; wins over the directory) set, a
#: second run of the suite skips every search.
JOBS = env.int_value("MAS_BENCH_JOBS")
CACHE_DIR = env.value("MAS_BENCH_CACHE_DIR")
CACHE_URI = env.value("MAS_BENCH_CACHE_URI")

#: Candidate-evaluation workers inside each pair's tiling search.  Defaults
#: to the runner default (which itself honours ``MAS_SEARCH_WORKERS``);
#: override per benchmark session with ``MAS_BENCH_SEARCH_WORKERS=4``.
#: Results are bit-identical at any worker count.
_search_workers = env.value("MAS_BENCH_SEARCH_WORKERS")
SEARCH_WORKERS = int(_search_workers) if _search_workers else None

#: Workload suite swept by the table/figure benchmarks (``None`` = Table 1).
#: Inline specs work: ``MAS_BENCH_SUITE="table1@batch=8"`` reruns every
#: benchmark at serving batch 8, ``MAS_BENCH_SUITE=cross-attention`` sweeps
#: the encoder-decoder registry.  Remember ``MAS_BENCH_NETWORKS`` must then
#: name entries of that suite.
SUITE = env.value("MAS_BENCH_SUITE")


@pytest.fixture(scope="session")
def edge_runner() -> ExperimentRunner:
    """Tuned runs on the paper's simulated edge device (Tables 2/3, Figures 6/7)."""
    return ExperimentRunner(
        search_budget=SEARCH_BUDGET,
        seed=0,
        jobs=JOBS,
        cache_dir=CACHE_DIR,
        cache_uri=CACHE_URI,
        search_workers=SEARCH_WORKERS,
        suite=SUITE,
    )


@pytest.fixture(scope="session")
def npu_runner() -> ExperimentRunner:
    """Grid-searched runs on the DaVinci-like NPU preset (Figure 5)."""
    return ExperimentRunner(
        hardware=davinci_like_npu(),
        search_strategy="grid",
        search_budget=SEARCH_BUDGET,
        seed=0,
        jobs=JOBS,
        cache_dir=CACHE_DIR,
        cache_uri=CACHE_URI,
        search_workers=SEARCH_WORKERS,
        suite=SUITE,
    )


@pytest.fixture(scope="session")
def bench_networks() -> list[str] | None:
    """Network subset used by the table/figure benchmarks (None = all of Table 1)."""
    return NETWORKS
