"""Unit tests for :mod:`repro.sim` (task graphs, scheduling engine, traces)."""

from __future__ import annotations

import pickle

import pytest

from repro.hardware.energy import EnergyModel
from repro.sim.check import ScheduleError, check_schedule
from repro.sim.engine import critical_path_cycles, simulate_graph
from repro.sim.executor import simulate
from repro.sim.tasks import TaskGraph, TaskKind, dma_resource, mac_resource, vec_resource
from repro.sim.trace import Trace
from sim_oracle import assert_matches_oracle


def build_diamond() -> TaskGraph:
    """load -> (matmul, softmax in parallel on different units) -> store."""
    g = TaskGraph(name="diamond")
    load = g.add("load", TaskKind.LOAD, dma_resource(), 10, dram_bytes_read=80)
    mm = g.add("mm", TaskKind.MATMUL, mac_resource(0), 100, deps=[load], mac_ops=1000)
    sm = g.add("sm", TaskKind.SOFTMAX, vec_resource(0), 60, deps=[load], vec_ops=500)
    g.add("store", TaskKind.STORE, dma_resource(), 10, deps=[mm, sm], dram_bytes_written=80)
    return g


class TestTaskGraph:
    def test_add_assigns_ids_and_deps(self):
        g = build_diamond()
        assert len(g) == 4
        assert [t.tid for t in g] == [0, 1, 2, 3]
        assert g[3].deps == (1, 2)

    def test_add_accepts_tasks_or_ids(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.LOAD, dma_resource(), 1)
        b = g.add("b", TaskKind.MATMUL, mac_resource(0), 1, deps=[a])
        c = g.add("c", TaskKind.STORE, dma_resource(), 1, deps=[b.tid])
        assert b.deps == (0,) and c.deps == (1,)

    def test_unknown_dependency_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("bad", TaskKind.LOAD, dma_resource(), 1, deps=[5])

    def test_stream_with_unknown_dependency_rejected(self):
        g = TaskGraph()
        load = g.add("load", TaskKind.LOAD, dma_resource(), 10).tid
        mac = g.resource_id(mac_resource(0))
        row = (0,) * 8
        with pytest.raises(ValueError, match=r"task 'mm1': unknown dependency id 1"):
            # a stream may depend only on tasks before it, not on its own rows
            g.extend(TaskKind.MATMUL, mac, [5, 5], [row, row], [(load,), (load, 1)],
                     ["mm0", "mm1"], [{}, {}])
        assert len(g) == 1
        first = g.extend(TaskKind.MATMUL, mac, [5, 5], [row, row], [(load,), (load,)],
                         ["mm0", "mm1"], [{"tile": 0}, {"tile": 1}])
        assert [(t.name, t.deps, t.resource, t.tags) for t in g][first:] == [
            ("mm0", (0,), "core0.mac", {"tile": 0}),
            ("mm1", (0,), "core0.mac", {"tile": 1}),
        ]

    def test_assigned_dependency_must_be_an_earlier_task(self):
        g = build_diamond()
        store = g[3]
        for bad in ([1, 3], [4], [-1]):
            with pytest.raises(ValueError, match=rf"task 'store': dependency id {bad[-1]} "):
                store.deps = bad
        assert store.deps == (1, 2)
        store.deps = [0]
        assert g.deps[3] == (0,)

    def test_barrier_takes_ids_or_tasks(self):
        g = build_diamond()
        by_ids = g.add_barrier("ids", deps=[1, 2])
        by_tasks = g.add_barrier("tasks", deps=[g[1], 2])
        assert by_ids.deps == by_tasks.deps == (1, 2)
        assert g.counters[by_ids.tid] == (0,) * 8 and by_ids.tags == {}
        with pytest.raises(ValueError, match=r"task 'late': unknown dependency id 9"):
            g.add_barrier("late", deps=[0, 9])

    def test_negative_cycles_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("bad", TaskKind.LOAD, dma_resource(), -1)

    def test_negative_counters_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("bad", TaskKind.LOAD, dma_resource(), 1, dram_bytes_read=-5)

    def test_barrier_is_zero_cost(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.LOAD, dma_resource(), 5)
        barrier = g.add_barrier("sync", deps=[a])
        assert barrier.cycles == 0 and barrier.resource == ""

    def test_resources_and_filters(self):
        g = build_diamond()
        assert g.resources() == [dma_resource(), mac_resource(0), vec_resource(0)]
        assert len(g.tasks_on(dma_resource())) == 2
        assert len(g.by_kind(TaskKind.MATMUL)) == 1

    def test_lower_bound(self):
        g = build_diamond()
        assert g.total_cycles_lower_bound() == 100  # the MAC is the busiest resource


class TestEngine:
    def test_dependencies_and_resource_serialization(self):
        g = build_diamond()
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        assert recs["load"].start == 0 and recs["load"].finish == 10
        # Both compute tasks start after the load, on different units, in parallel.
        assert recs["mm"].start == 10 and recs["sm"].start == 10
        # The store waits for the slower of the two.
        assert recs["store"].start == 110
        assert trace.total_cycles == 120

    def test_same_resource_serializes_in_program_order(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.MATMUL, mac_resource(0), 10)
        b = g.add("b", TaskKind.MATMUL, mac_resource(0), 10)
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        assert recs["a"].start == 0 and recs["b"].start == 10

    def test_inorder_unit_respects_program_order_even_if_later_task_ready_first(self):
        g = TaskGraph()
        slow_load = g.add("slow_load", TaskKind.LOAD, dma_resource(), 50)
        first = g.add("first", TaskKind.MATMUL, mac_resource(0), 10, deps=[slow_load])
        second = g.add("second", TaskKind.MATMUL, mac_resource(0), 10)  # ready at t=0
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        # "second" was emitted after "first" on the same MAC, so it must not jump ahead.
        assert recs["first"].start == 50
        assert recs["second"].start == 60

    def test_dma_is_served_out_of_order(self):
        g = TaskGraph()
        mm = g.add("mm", TaskKind.MATMUL, mac_resource(0), 100)
        g.add("store", TaskKind.STORE, dma_resource(), 10, deps=[mm])
        g.add("load", TaskKind.LOAD, dma_resource(), 10)  # independent, enqueued later
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        # The store is not ready until t=100; the load must not be blocked behind it.
        assert recs["load"].start == 0
        assert recs["store"].start == 100
        assert trace.total_cycles == 110

    def test_barrier_completes_at_dependency_finish(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.MATMUL, mac_resource(0), 25)
        barrier = g.add_barrier("sync", deps=[a])
        b = g.add("b", TaskKind.SOFTMAX, vec_resource(0), 5, deps=[barrier])
        trace = simulate_graph(g)
        recs = {r.task.name: r for r in trace.records}
        assert recs["sync"].start == 25 and recs["sync"].finish == 25
        assert recs["b"].start == 25

    def test_task_without_resource_takes_its_cycles_after_a_dma_serve(self):
        """A resource-less task resolved by a store's serve still runs for its
        cycles (builders emit only zero-cycle barriers, ``add`` allows more)."""
        g = TaskGraph()
        mm = g.add("mm", TaskKind.MATMUL, mac_resource(0), 10)
        store = g.add("store", TaskKind.STORE, dma_resource(), 10, deps=[mm])
        hold = g.add("hold", TaskKind.BARRIER, "", 5, deps=[store])
        g.add("after", TaskKind.VECOP, vec_resource(0), 1, deps=[hold])
        trace = simulate_graph(g)
        assert list(zip(trace.start, trace.finish)) == [(0, 10), (10, 20), (20, 25), (25, 26)]
        check_schedule(g, trace)

    def test_dma_chain_outside_a_barrier_keeps_its_place(self):
        """The barrier waits on one load, while a load-store chain beside it
        keeps the DMA busy past the barrier's finish: the load behind the
        barrier, ready at 8, is served before the store, ready at 18."""
        g = TaskGraph()
        mm = g.add("mm", TaskKind.MATMUL, mac_resource(1), 3)
        load = g.add("load", TaskKind.LOAD, dma_resource(), 5, deps=[mm])
        long_load = g.add("long_load", TaskKind.LOAD, dma_resource(), 10, deps=[mm])
        g.add("store", TaskKind.STORE, dma_resource(), 5, deps=[long_load])
        barrier = g.add_barrier("sync", deps=[load])
        g.add("next_load", TaskKind.LOAD, dma_resource(), 5, deps=[barrier])
        trace = simulate_graph(g)
        assert list(zip(trace.start, trace.finish)) == [
            (0, 3), (3, 8), (8, 18), (23, 28), (8, 8), (18, 23)
        ]
        check_schedule(g, trace)
        assert_matches_oracle(g, trace)

    def test_load_after_a_barrier_it_does_not_wait_on_goes_first(self):
        """A load emitted after a barrier waits on nothing, or on a softmax that
        ends at cycle 2: the DMA serves it before the store that the barrier
        waits on, which is ready at cycle 10."""
        for ready in (0, 2):
            g = TaskGraph()
            mm = g.add("mm", TaskKind.MATMUL, mac_resource(0), 10)
            sm = g.add("sm", TaskKind.SOFTMAX, vec_resource(0), 2)
            store = g.add("store", TaskKind.STORE, dma_resource(), 5, deps=[mm])
            barrier = g.add_barrier("sync", deps=[store])
            g.add("after", TaskKind.LOAD, dma_resource(), 5, deps=[barrier])
            g.add("early", TaskKind.LOAD, dma_resource(), 4, deps=[sm] if ready else [])
            trace = simulate_graph(g)
            assert list(zip(trace.start, trace.finish)) == [
                (0, 10), (0, 2), (10, 15), (15, 15), (15, 20), (ready, ready + 4)
            ]
            check_schedule(g, trace)
            assert_matches_oracle(g, trace)

    def test_dependency_on_a_later_task_reads_as_a_deadlock(self):
        """A dependency written into the column past ``Task.deps``' check and
        naming a later task never resolves, before or after a barrier."""
        g = TaskGraph()
        mm = g.add("mm", TaskKind.MATMUL, mac_resource(0), 10)
        store = g.add("store", TaskKind.STORE, dma_resource(), 5, deps=[mm])
        barrier = g.add_barrier("sync", deps=[store])
        g.add("load", TaskKind.LOAD, dma_resource(), 5, deps=[barrier])
        g.add("sm", TaskKind.SOFTMAX, vec_resource(0), 5)
        for waiting, later in ((1, 4), (3, 4)):
            graph = pickle.loads(pickle.dumps(g))
            graph.deps[waiting] = (later,)
            with pytest.raises(
                RuntimeError,
                match=rf"scheduling deadlock: no issuable task among \d+ unscheduled "
                rf"\(first: \['{graph.task_name(waiting)}'",
            ):
                simulate_graph(graph)

    def test_empty_graph(self):
        assert simulate_graph(TaskGraph()).total_cycles == 0

    def test_critical_path_ignores_resources(self):
        g = TaskGraph()
        a = g.add("a", TaskKind.MATMUL, mac_resource(0), 10)
        b = g.add("b", TaskKind.MATMUL, mac_resource(0), 10)
        c = g.add("c", TaskKind.MATMUL, mac_resource(0), 10, deps=[a, b])
        assert critical_path_cycles(g) == 20       # a and b in parallel on infinite units
        assert simulate_graph(g).total_cycles == 30  # but they share one MAC

    def test_makespan_never_beats_critical_path_or_busiest_resource(self):
        g = build_diamond()
        trace = simulate_graph(g)
        assert trace.total_cycles >= critical_path_cycles(g)
        assert trace.total_cycles >= g.total_cycles_lower_bound()


class TestTrace:
    def test_busy_cycles_and_utilization(self):
        trace = simulate_graph(build_diamond())
        assert trace.busy_cycles(mac_resource(0)) == 100
        assert trace.busy_cycles(dma_resource()) == 20
        assert trace.utilization(mac_resource(0)) == pytest.approx(100 / 120)
        assert Trace().utilization("anything") == 0.0

    def test_counters_aggregate_all_tasks(self):
        trace = simulate_graph(build_diamond())
        counters = trace.counters()
        assert counters.dram_bytes_read == 80
        assert counters.dram_bytes_written == 80
        assert counters.mac_ops == 1000 and counters.vec_ops == 500
        assert counters.total_cycles == trace.total_cycles

    def test_overlap_cycles(self):
        trace = simulate_graph(build_diamond())
        # mm spans [10, 110), sm spans [10, 70) -> 60 cycles of overlap.
        assert trace.overlap_cycles(mac_resource(0), vec_resource(0)) == 60
        assert trace.overlap_cycles(mac_resource(0), "unused") == 0

    def test_count_kind(self):
        trace = simulate_graph(build_diamond())
        assert trace.count_kind(TaskKind.LOAD) == 1
        assert trace.count_kind(TaskKind.BARRIER) == 0


    def test_pickles_without_its_records(self):
        trace = simulate_graph(build_diamond())
        records = [(r.task.name, r.start, r.finish) for r in trace.records]
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.start == trace.start and copy.finish == trace.finish
        assert [(r.task.name, r.start, r.finish) for r in copy.records] == records
        assert copy.counters() == trace.counters()


class TestCheckSchedule:
    def test_engine_schedule_passes(self):
        graph = build_diamond()
        check_schedule(graph, simulate_graph(graph))

    def test_start_before_dependency_finish_is_caught(self):
        graph = build_diamond()
        trace = simulate_graph(graph)
        # Move the store (deps: mm finishing at 110, sm) to start at 100.
        trace.start[3], trace.finish[3] = 100, 110
        with pytest.raises(
            ScheduleError, match=r"dependency: task 3 'store' on 'dma' .* task 1 'mm'"
        ):
            check_schedule(graph, trace)

    def test_dma_task_served_ahead_of_an_earlier_ready_one_is_caught(self):
        """Serving the DMA in program order instead of readiness order breaks
        no dependency and overlaps nothing, but it is not the engine's rule."""
        graph = TaskGraph()
        graph.add("mm", TaskKind.MATMUL, mac_resource(0), 100)
        graph.add("store", TaskKind.STORE, dma_resource(), 10, deps=[0])  # ready at 100
        graph.add("load", TaskKind.LOAD, dma_resource(), 10)  # ready at 0
        trace = simulate_graph(graph)
        assert (trace.start[2], trace.start[1]) == (0, 100)
        trace.start[2], trace.finish[2] = 110, 120  # the load now waits behind the store
        with pytest.raises(
            ScheduleError,
            match=r"DMA order: task 1 'store' on 'dma', ready at cycle 100, runs at cycle 100, "
            r"ahead of task 2 'load', ready at cycle 0",
        ):
            check_schedule(graph, trace)

    def test_late_barrier_and_late_in_order_task_are_caught(self):
        graph = build_diamond()
        graph.add_barrier("sync", deps=[1, 2])
        trace = simulate_graph(graph)
        trace.start[4], trace.finish[4] = 111, 111  # ready at 110
        with pytest.raises(ScheduleError, match=r"barrier start: task 4 'sync' .* cycle 110"):
            check_schedule(graph, trace)
        trace = simulate_graph(graph)
        trace.start[2], trace.finish[2] = 11, 71  # ready at 10 on an idle unit
        with pytest.raises(ScheduleError, match=r"in-order start: task 2 'sm' on 'core0.vec'"):
            check_schedule(graph, trace)

    def test_overlapping_tasks_on_one_mac_are_caught(self):
        graph = TaskGraph()
        graph.add("a", TaskKind.MATMUL, mac_resource(0), 10)
        graph.add("b", TaskKind.MATMUL, mac_resource(0), 10)
        trace = simulate_graph(graph)
        trace.start[1], trace.finish[1] = 5, 15  # b now overlaps a's [0, 10)
        with pytest.raises(
            ScheduleError, match=r"one task at a time: task 1 'b' on 'core0.mac' .* task 0 'a'"
        ):
            check_schedule(graph, trace)


class TestExecutorFacade:
    def test_simulate_produces_result_with_energy(self, edge_hw):
        graph = build_diamond()
        result = simulate(graph, edge_hw, scheduler="diamond", workload_name="unit")
        assert result.cycles == 120
        assert result.scheduler == "diamond"
        assert result.hardware_name == edge_hw.name
        expected = EnergyModel(edge_hw).compute(result.counters).total_pj
        assert result.energy_pj == pytest.approx(expected)
        assert result.latency_seconds == pytest.approx(120 / edge_hw.frequency_hz)
        summary = result.summary()
        assert summary["cycles"] == 120 and summary["scheduler"] == "diamond"
