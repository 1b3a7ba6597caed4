"""Shared fixtures for the test suite.

Tests run on deliberately small attention shapes (a few heads, short
sequences) so the whole suite stays fast while still exercising every code
path: multiple row-blocks, multiple K/V tiles, multiple head groups and both
cores of the simulated device.
"""

from __future__ import annotations

import os

import pytest

from repro.core.tiling import TilingConfig
from repro.hardware.config import HardwareConfig, MacUnitSpec, MemoryLevelSpec, VecUnitSpec
from repro.hardware.presets import simulated_edge_device
from repro.utils.units import KB
from repro.workloads.attention import AttentionWorkload

#: Suite specs the sweep tests run under: the default registry, a batched
#: derivation and a cross-attention slice (smoke-sized shapes).  Setting
#: ``$MAS_TEST_SUITE`` replaces the list with one suite — CI uses this to run
#: the exec/analysis sweeps over a non-default suite on every push.
SWEEP_SUITE_SPECS: tuple[str, ...] = (
    "table1",
    "table1@batch=4",
    "cross-attention@seq<=1024",
)
_env_suite = os.environ.get("MAS_TEST_SUITE", "").strip()
if _env_suite:
    SWEEP_SUITE_SPECS = (_env_suite,)


@pytest.fixture
def edge_hw() -> HardwareConfig:
    """The paper's simulated edge device (5 MB L1, two cores)."""
    return simulated_edge_device()


@pytest.fixture
def tiny_hw() -> HardwareConfig:
    """A small single-core device used to exercise overflow / overwrite paths."""
    return HardwareConfig(
        name="tiny",
        frequency_hz=1e9,
        num_cores=1,
        mac=MacUnitSpec(rows=8, cols=8, fill_overhead_cycles=4),
        vec=VecUnitSpec(throughput_ops_per_cycle=8, softmax_ops_per_element=12),
        l1_bytes=64 * KB,
        dram=MemoryLevelSpec(read_pj_per_byte=60.0, write_pj_per_byte=60.0),
        l1=MemoryLevelSpec(read_pj_per_byte=2.0, write_pj_per_byte=2.2),
        l0=MemoryLevelSpec(read_pj_per_byte=0.15, write_pj_per_byte=0.18),
    )


@pytest.fixture
def small_workload() -> AttentionWorkload:
    """A multi-head, multi-block workload small enough for numeric execution."""
    return AttentionWorkload.self_attention(heads=4, seq=128, emb=64, name="small")


@pytest.fixture
def tiny_workload() -> AttentionWorkload:
    """The smallest workload that still has several row-blocks and K/V tiles."""
    return AttentionWorkload.self_attention(heads=2, seq=64, emb=16, name="tiny")


@pytest.fixture
def no_new_processes(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Refuse to start a process (a pool worker or a bare fork).

    Each attempt raises and is also recorded in the returned list, so a test
    can assert the list is empty even if the code under test swallowed the
    error.
    """
    import multiprocessing.process
    import os

    started: list[str] = []

    def refuse(*args: object, **kwargs: object) -> None:
        started.append(repr(args[:1]))
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    return started


@pytest.fixture
def small_tiling() -> TilingConfig:
    """Row-blocks of 32 and K/V tiles of 32 — several of each for the fixtures."""
    return TilingConfig(bb=1, hh=1, nq=32, nkv=32)


@pytest.fixture(params=SWEEP_SUITE_SPECS)
def sweep_suite(request: pytest.FixtureRequest) -> str:
    """Suite spec the exec/analysis sweep tests run under.

    Parametrized over :data:`SWEEP_SUITE_SPECS` (``$MAS_TEST_SUITE``
    overrides), so every sweep-shaped test exercises the suite plumbing on
    more than just Table 1.
    """
    return request.param
