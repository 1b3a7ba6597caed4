"""Stamped graph emission against direct emission, task for task.

Every builder emits a unit of its graph (a block position, or a round of
``plan_rounds``) directly only the first time its context appears and
stamps every repeat (:func:`repro.core.emit.emit_units`).  A scheduler made
with ``direct_emission=True`` emits every unit directly: the oracle.  Both
must give the same graph: every column, the resource names, every formatted
name and tags dict, and the build metadata.  The golden digests
(``test_graph_golden.py``) pin the stamped graphs too, but only this
comparison covers every name and tags dict of the larger graphs.

The cases: every golden case, the workloads and coarse tilings the property
tests draw (MAS also at an L1 that overflows), and BERT-Base and ViT-B/14 at
the default tiling and three sampled tilings per scheduler with
``kv_resident`` both ways (MAS also at an L1 that overflows, with
overwriting on and off).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.hardware.presets import simulated_edge_device
from repro.schedulers import list_schedulers, make_scheduler
from repro.search.space import TilingSearchSpace
from repro.sim.tasks import TaskGraph
from repro.workloads.networks import get_network
from test_graph_golden import CASES, SHAPES, VARIANTS, _overflow_l1
from test_properties import coarse_tilings, workloads

NETWORKS = ("BERT-Base", "ViT-B/14")


def _pair(variant: str, l1: int | None = None):
    """The (stamping, direct) schedulers of ``variant`` on the edge device."""
    name, options = VARIANTS[variant]
    hardware = simulated_edge_device()
    if l1 is not None:
        hardware = hardware.with_l1_bytes(l1)
    return tuple(
        make_scheduler(name, hardware, **options, direct_emission=direct)
        for direct in (False, True)
    )


def assert_same_build(stamping, direct, workload, tiling) -> None:
    """``stamping`` and ``direct`` build ``workload`` under ``tiling`` identically."""
    built, expected = stamping.build(workload, tiling), direct.build(workload, tiling)
    assert built.metadata == expected.metadata
    assert_same_graph(built.graph, expected.graph)


def assert_same_graph(graph: TaskGraph, oracle: TaskGraph) -> None:
    """Every column, resource name, formatted name and tags dict of ``graph``
    equals ``oracle``'s."""
    for column in ("kinds", "resource_ids", "cycles", "deps", "counters", "resource_names"):
        assert getattr(graph, column) == getattr(oracle, column), column
    tids = range(len(oracle))
    assert [graph.task_name(t) for t in tids] == [oracle.task_name(t) for t in tids]
    assert [graph.task_tags(t) for t in tids] == [oracle.task_tags(t) for t in tids]


@pytest.mark.parametrize(
    "case_id, variant, shape, tiling, l1", CASES, ids=[case[0] for case in CASES]
)
def test_golden_cases(case_id, variant, shape, tiling, l1):
    assert_same_build(*_pair(variant, l1), SHAPES[shape][0], tiling)


@given(workloads(), coarse_tilings())
@settings(max_examples=25, deadline=None)
def test_property_workloads_and_tilings(workload, tiling):
    for variant, (name, _) in VARIANTS.items():
        assert_same_build(*_pair(variant), workload, tiling)
        if name == "mas":
            assert_same_build(*_pair(variant, _overflow_l1(workload, tiling)), workload, tiling)


def _network_tilings(scheduler, workload) -> list:
    """The default tiling and three sampled ones that fit, each ``kv_resident`` both ways."""
    space = TilingSearchSpace(workload, scheduler.hardware)
    rng = np.random.default_rng(7)
    chosen = [scheduler.default_tiling(workload)]
    while len(chosen) < 4:
        tiling = space.sample(rng)
        if scheduler.fits(workload, tiling):
            chosen.append(tiling)
    return [replace(t, kv_resident=resident) for t in chosen for resident in (False, True)]


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("network", NETWORKS)
def test_networks_at_default_and_sampled_tilings(variant, network):
    workload = get_network(network).workload()
    stamping, direct = _pair(variant)
    for tiling in _network_tilings(stamping, workload):
        assert_same_build(stamping, direct, workload, tiling)
        if VARIANTS[variant][0] == "mas":
            assert_same_build(*_pair(variant, _overflow_l1(workload, tiling)), workload, tiling)


@pytest.mark.parametrize("name", list_schedulers())
def test_most_of_a_default_graph_is_stamped(name, monkeypatch):
    """Stamping takes effect: it copies at least half the rows of BERT-Base's
    default graph for every scheduler."""
    stamped = []
    stamp = TaskGraph.stamp

    def counting(graph, first, stop, *args):
        stamped.append(stop - first)
        return stamp(graph, first, stop, *args)

    monkeypatch.setattr(TaskGraph, "stamp", counting)
    scheduler = make_scheduler(name, simulated_edge_device())
    workload = get_network("BERT-Base").workload()
    graph = scheduler.build(workload, scheduler.default_tiling(workload)).graph
    assert sum(stamped) >= len(graph) / 2
