"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.overwrite import InfeasibleTilingError
from repro.core.stream import OpKind, plan_rounds
from repro.core.tiling import TilingConfig, mas_footprint_bytes, score_block_bytes
from repro.hardware.compute_units import matmul_cycles, matmul_macs, softmax_cycles
from repro.hardware.config import MacUnitSpec, VecUnitSpec
from repro.hardware.presets import constrained_edge_device, simulated_edge_device
from repro.numerics.reference import online_softmax, reference_attention, stable_softmax
from repro.numerics.replay import replay
from repro.schedulers.registry import list_schedulers, make_scheduler
from repro.sim.check import check_schedule
from repro.sim.engine import critical_path_cycles, simulate_graph
from repro.sim.tasks import TaskGraph, TaskKind
from repro.utils.validation import ceil_div
from repro.workloads.attention import AttentionWorkload
from repro.workloads.suites import get_suite, list_suites
from sim_oracle import assert_matches_oracle

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
dims = st.integers(min_value=1, max_value=96)
small_dims = st.integers(min_value=1, max_value=48)


@st.composite
def workloads(draw):
    return AttentionWorkload(
        batch=draw(st.integers(1, 2)),
        heads=draw(st.integers(1, 4)),
        seq_q=draw(st.integers(1, 96)),
        seq_kv=draw(st.integers(1, 96)),
        emb=draw(st.sampled_from([8, 16, 32])),
    )


@st.composite
def tilings(draw):
    return TilingConfig(
        bb=draw(st.integers(1, 2)),
        hh=draw(st.integers(1, 4)),
        nq=draw(st.integers(1, 96)),
        nkv=draw(st.integers(1, 96)),
        kv_resident=draw(st.booleans()),
    )


@st.composite
def task_graphs(draw):
    """Random DAGs over two cores' units, the DMA and barriers (deps always point backwards).

    Half the draws take cycles from 0-4 instead of 0-50, so candidates on
    different resources often tie on their start and the (start, task id)
    tie-break decides.
    """
    n = draw(st.integers(1, 40))
    resources = ["core0.mac", "core0.vec", "core1.mac", "core1.vec", "dma", ""]
    max_cycles = draw(st.sampled_from([4, 50]))
    graph = TaskGraph(name="random")
    for i in range(n):
        num_deps = draw(st.integers(0, min(i, 3)))
        deps = draw(
            st.lists(st.integers(0, i - 1), min_size=num_deps, max_size=num_deps, unique=True)
        ) if i else []
        resource = draw(st.sampled_from(resources))
        cycles = 0 if resource == "" else draw(st.integers(0, max_cycles))
        graph.add(f"t{i}", TaskKind.VECOP if resource else TaskKind.BARRIER,
                  resource, cycles, deps=deps)
    return graph


@st.composite
def phased_task_graphs(draw):
    """Random DAGs in segments, each closed by a barrier over its sinks, as
    Layer-Wise, Soft-Pipe and TileFlow build them.

    Most tasks of a later segment wait on the barrier before them, so the
    engine's walk crosses phases.  Some barriers miss a sink, some tasks wait
    on an earlier task instead of the barrier, and cycles include 0, so that
    the engine also falls back to its single walk.
    """
    resources = ["core0.mac", "core0.vec", "core1.mac", "core1.vec", "dma", "dma"]
    max_cycles = draw(st.sampled_from([4, 50]))
    graph = TaskGraph(name="phased")
    barrier = None
    segments = draw(st.integers(1, 4))
    for segment in range(segments):
        first = len(graph)
        for tid in range(first, first + draw(st.integers(1, 10))):
            deps = draw(st.lists(st.integers(first, tid - 1), max_size=2)) if tid > first else []
            if barrier is not None and draw(st.integers(0, 7)):
                deps.append(barrier)
            elif tid and draw(st.booleans()):
                deps.append(draw(st.integers(0, tid - 1)))
            graph.add(f"t{tid}", TaskKind.VECOP, draw(st.sampled_from(resources)),
                      draw(st.integers(0, max_cycles)), deps=deps)
        if segment == segments - 1 and draw(st.booleans()):
            break
        segment_tasks = range(first, len(graph))
        fed = {dep for tid in segment_tasks for dep in graph.deps[tid]}
        sinks = [tid for tid in segment_tasks if tid not in fed]
        if len(sinks) > 1 and not draw(st.integers(0, 4)):
            sinks.remove(draw(st.sampled_from(sinks)))
        barrier = graph.add_barrier(f"b{segment}", deps=sinks).tid
    return graph


#: The engine-property tests' graphs: any DAG, and DAGs in barrier-closed phases.
engine_graphs = st.one_of(task_graphs(), phased_task_graphs())


# --------------------------------------------------------------------------- #
# Numerics
# --------------------------------------------------------------------------- #
class TestSoftmaxProperties:
    @given(st.integers(1, 6), st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stable_softmax_is_a_distribution(self, rows, cols, seed):
        x = 10 * np.random.default_rng(seed).standard_normal((rows, cols))
        p = stable_softmax(x)
        assert np.all(p >= 0) and np.all(p <= 1)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-9)

    @given(st.integers(1, 64), st.integers(1, 70), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_online_softmax_matches_stable_for_any_tile(self, tile, cols, seed):
        x = 5 * np.random.default_rng(seed).standard_normal((3, cols))
        probs, _, _ = online_softmax(x, tile=tile)
        np.testing.assert_allclose(probs, stable_softmax(x), rtol=1e-6, atol=1e-10)


class TestExecutorEquivalence:
    @given(
        workloads(),
        st.builds(
            TilingConfig,
            bb=st.integers(1, 2),
            hh=st.integers(1, 4),
            nq=st.integers(1, 64),
            nkv=st.integers(1, 64),
            kv_resident=st.booleans(),
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_dataflows_compute_exact_attention(self, workload, tiling, seed):
        """Every scheduler's task graph, under any tiling, replays to the reference."""
        rng = np.random.default_rng(seed)
        shape_q = (workload.batch, workload.heads, workload.seq_q, workload.emb)
        shape_kv = (workload.batch, workload.heads, workload.seq_kv, workload.emb)
        q = rng.standard_normal(shape_q)
        k = rng.standard_normal(shape_kv)
        v = rng.standard_normal(shape_kv)
        expected = reference_attention(q, k, v)
        hardware = simulated_edge_device()
        for name in list_schedulers():
            np.testing.assert_allclose(
                replay(make_scheduler(name, hardware), workload, tiling, q, k, v),
                expected,
                rtol=1e-6,
                atol=1e-8,
                err_msg=name,
            )


# --------------------------------------------------------------------------- #
# Cost models
# --------------------------------------------------------------------------- #
class TestCostModelProperties:
    @given(dims, dims, dims)
    @settings(max_examples=60, deadline=None)
    def test_matmul_cycles_lower_bounded_by_ideal(self, m, k, n):
        spec = MacUnitSpec(rows=16, cols=16, fill_overhead_cycles=0)
        ideal = ceil_div(matmul_macs(m, k, n), spec.rows * spec.cols * spec.macs_per_pe_per_cycle)
        assert matmul_cycles(spec, m, k, n) >= ideal

    @given(dims, dims, dims, st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_matmul_cycles_monotone_in_overhead(self, m, k, n, overhead):
        low = matmul_cycles(MacUnitSpec(fill_overhead_cycles=0), m, k, n)
        high = matmul_cycles(MacUnitSpec(fill_overhead_cycles=overhead), m, k, n)
        assert high >= low

    @given(st.integers(1, 128), st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_softmax_cycles_linear_in_rows(self, rows, cols):
        spec = VecUnitSpec()
        assert softmax_cycles(spec, rows, cols) == rows * softmax_cycles(spec, 1, cols)


# --------------------------------------------------------------------------- #
# Tiling / footprint
# --------------------------------------------------------------------------- #
class TestTilingProperties:
    @given(workloads(), tilings())
    @settings(max_examples=80, deadline=None)
    def test_clamp_never_exceeds_workload(self, workload, tiling):
        clamped = tiling.clamp_to(workload)
        assert clamped.bb <= workload.batch and clamped.hh <= workload.heads
        assert clamped.nq <= workload.seq_q and clamped.nkv <= workload.seq_kv
        clamped.validate_for(workload)

    @given(workloads(), tilings())
    @settings(max_examples=80, deadline=None)
    def test_blocks_cover_iteration_space(self, workload, tiling):
        tiling = tiling.clamp_to(workload)
        assert tiling.num_blocks(workload) * tiling.nq >= workload.seq_q
        assert tiling.num_kv_tiles(workload) * tiling.nkv >= workload.seq_kv

    @given(workloads(), tilings())
    @settings(max_examples=80, deadline=None)
    def test_footprint_positive_and_contains_score_blocks(self, workload, tiling):
        tiling = tiling.clamp_to(workload)
        footprint = mas_footprint_bytes(workload, tiling)
        assert footprint >= 2 * score_block_bytes(workload, tiling)


# --------------------------------------------------------------------------- #
# Stream rounds
# --------------------------------------------------------------------------- #
class TestStreamProperties:
    @given(st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_round_plan_is_complete_and_ordered(self, num_blocks):
        rounds = plan_rounds(num_blocks)
        seen: dict[tuple[str, int], int] = {}
        for rnd in rounds:
            for op in rnd.mac_ops + rnd.vec_ops:
                key = (op.kind.value, op.block)
                assert key not in seen, "operator scheduled twice"
                seen[key] = rnd.index
        for block in range(1, num_blocks + 1):
            assert seen[("QK", block)] < seen[("SM", block)] < seen[("PV", block)]
        assert len(seen) == 3 * num_blocks


# --------------------------------------------------------------------------- #
# Simulator
# --------------------------------------------------------------------------- #
class TestEngineProperties:
    @given(engine_graphs)
    @settings(max_examples=120, deadline=None)
    def test_schedule_respects_all_constraints(self, graph):
        trace = simulate_graph(graph)
        assert len(trace.records) == len(graph)
        check_schedule(graph, trace)

    @given(engine_graphs)
    @settings(max_examples=120, deadline=None)
    def test_makespan_bounds(self, graph):
        trace = simulate_graph(graph)
        assert trace.total_cycles >= critical_path_cycles(graph)
        assert trace.total_cycles >= graph.total_cycles_lower_bound()
        assert trace.total_cycles <= sum(t.cycles for t in graph)

    @given(engine_graphs)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle_engine(self, graph):
        """The schedule, the counters and every per-resource figure equal the old engine's."""
        assert_matches_oracle(graph, simulate_graph(graph))


# --------------------------------------------------------------------------- #
# Workload / suite invariants
# --------------------------------------------------------------------------- #
class TestWorkloadInvariants:
    @given(workloads(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_bytes_and_macs_linear_in_batch(self, workload, batch):
        """Every byte and MAC count scales exactly linearly with batch size."""
        base = workload.with_batch(1)
        scaled = workload.with_batch(batch)
        for attribute in ("input_bytes", "output_bytes", "score_bytes", "qk_macs", "total_macs", "softmax_elements"):
            assert getattr(scaled, attribute) == batch * getattr(base, attribute)

    @given(workloads(), st.integers(1, 16), st.integers(1, 512), st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_with_batch_and_with_seq_round_trip(self, workload, batch, seq_q, seq_kv):
        assert workload.with_batch(batch).with_batch(workload.batch) == workload
        assert workload.with_seq(seq_q, seq_kv).with_seq(workload.seq_q, workload.seq_kv) == workload
        assert workload.with_seq(seq_q).seq_kv == seq_q  # self-attention default
        assert workload.renamed("x").renamed(workload.name) == workload

    @given(workloads())
    @settings(max_examples=60, deadline=None)
    def test_cross_attention_flag_matches_shape(self, workload):
        assert workload.is_cross_attention == (workload.seq_q != workload.seq_kv)
        assert workload.max_seq == max(workload.seq_q, workload.seq_kv)


class TestSuiteInvariants:
    @given(st.sampled_from(list_suites()), st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_with_batch_preserves_structure(self, name, batch):
        """Re-batching a suite keeps order and every non-batch shape field."""
        suite = get_suite(name)
        derived = suite.with_batch(batch)
        assert len(derived) == len(suite)
        assert len(set(derived.entry_names())) == len(derived)
        for before, after in zip(suite, derived):
            assert after.name == f"{before.name} @b{batch}"
            assert after.workload == before.workload.with_batch(batch).renamed(after.name)

    @given(st.sampled_from(list_suites()), st.sampled_from(["<=", ">="]), st.integers(1, 65536))
    @settings(max_examples=60, deadline=None)
    def test_seq_filter_is_a_subsequence(self, name, op, seq):
        """A seq filter keeps exactly the qualifying entries, in suite order."""
        suite = get_suite(name)
        satisfies = (lambda n: n <= seq) if op == "<=" else (lambda n: n >= seq)
        expected = [e.name for e in suite if satisfies(e.workload.max_seq)]
        if not expected:
            with pytest.raises(ValueError):
                suite.filter_seq(op, seq)
        else:
            assert suite.filter_seq(op, seq).entry_names() == expected


# --------------------------------------------------------------------------- #
# Analytic bounds
# --------------------------------------------------------------------------- #
#: Two devices so MAS's infeasible and footprint-overflow branches both fire:
#: the paper's edge device (5 MB L1) and its L1-constrained variant.
_ANALYTIC_DEVICES = (simulated_edge_device(), constrained_edge_device())


@st.composite
def coarse_tilings(draw):
    """Tilings with row/tile sizes >= 8 so simulated graphs stay small."""
    return TilingConfig(
        bb=draw(st.integers(1, 2)),
        hh=draw(st.integers(1, 4)),
        nq=draw(st.integers(8, 96)),
        nkv=draw(st.integers(8, 96)),
        kv_resident=draw(st.booleans()),
    )


class TestAnalyticBoundProperties:
    @given(
        workloads(),
        coarse_tilings(),
        st.sampled_from(list_schedulers()),
        st.sampled_from(_ANALYTIC_DEVICES),
    )
    @settings(max_examples=40, deadline=None)
    def test_fits_and_bounds_agree_with_simulation(self, workload, tiling, name, hardware):
        """``fits`` and ``analytic_bounds`` vs. the simulator, for every
        registered scheduler: MAS's ``fits`` says no exactly when its build
        raises, no baseline build ever raises, and the bounds never exceed
        the simulated cost of a tiling that runs."""
        scheduler = make_scheduler(name, hardware)
        fits = scheduler.fits(workload, tiling.clamp_to(workload))
        try:
            result = scheduler.simulate(workload, tiling)
        except InfeasibleTilingError:
            assert name == "mas" and not fits
            return
        assert fits or name != "mas"
        bounds = scheduler.analytic_bounds(workload, [tiling])
        assert bounds.cycles[0] <= result.cycles
        assert bounds.energy_pj[0] <= result.energy_pj

    @given(
        workloads(),
        st.lists(tilings(), min_size=1, max_size=8),
        st.sampled_from(list_schedulers()),
        st.sampled_from(_ANALYTIC_DEVICES),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_per_candidate_bounds(self, workload, tiling_list, name, hardware):
        """Vectorization is observationally pure: bounding N candidates at once
        equals bounding each alone (no cross-candidate state)."""
        scheduler = make_scheduler(name, hardware)
        full = scheduler.analytic_bounds(workload, tiling_list)
        assert len(full) == len(tiling_list)
        for index, tiling in enumerate(tiling_list):
            single = scheduler.analytic_bounds(workload, [tiling])
            assert full.cycles[index] == single.cycles[0]
            assert full.energy_pj[index] == pytest.approx(single.energy_pj[0])
