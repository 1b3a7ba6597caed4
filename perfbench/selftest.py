"""The sweep benchmark's own tests.

Run from the root of a checkout (takes under a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.bootstrap()

import sweep  # noqa: E402 - needs the path set up by bootstrap()
from layertrace import LayerTracer, Target, installed, median_and_tail  # noqa: E402
from repro.exec import pairs as pairs_module  # noqa: E402
from repro.exec.pairs import pair_seed  # noqa: E402
from repro.sim import executor  # noqa: E402

#: A few decode-step pairs at a tiny budget: about half a second per sweep.
TINY = sweep.Workload(
    "decode-step",
    ("BERT-Small @dec", "ViT-B/14 @dec", "XLM @dec", "BERT-Large @dec"),
    budget=4,
    replica_seconds=1.0,
)


class FakeClock:
    """A clock the test advances by hand, in nanoseconds."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class Nested:
    """``outer`` spends 5 ns itself and calls ``inner`` (3 ns) twice."""

    clock: FakeClock

    def outer(self) -> None:
        self.clock.now += 2
        self.inner()
        self.clock.now += 3
        self.inner()

    def inner(self) -> None:
        self.clock.now += 3


class SelfTimeTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        clock = FakeClock()
        Nested.clock = clock
        tracer = LayerTracer(clock=clock)
        original_outer, original_inner = vars(Nested)["outer"], vars(Nested)["inner"]
        targets = [Target("a", Nested, "outer"), Target("b", Nested, "inner")]
        with installed(tracer, targets):
            Nested().outer()
            Nested().inner()
        outer, inner = tracer.stats("Nested.outer"), tracer.stats("Nested.inner")
        self.assertEqual((outer.calls, outer.total_ns, outer.self_ns), (1, 11, 5))
        self.assertEqual((inner.calls, inner.total_ns, inner.self_ns), (3, 9, 9))
        self.assertEqual(tracer.top_ns, 11 + 3)
        self.assertEqual(outer.self_ns + inner.self_ns, tracer.top_ns)
        self.assertEqual(tracer.layer_self_s(), {"a": 5e-9, "b": 9e-9})
        self.assertIs(vars(Nested)["outer"], original_outer)
        self.assertIs(vars(Nested)["inner"], original_inner)

    def test_wrappers_are_removed_after_an_exception(self):
        tracer = LayerTracer()
        original = vars(Nested)["inner"]
        with self.assertRaises(RuntimeError):
            with installed(tracer, [Target("b", Nested, "inner")]):
                self.assertIsNot(vars(Nested)["inner"], original)
                raise RuntimeError
        self.assertIs(vars(Nested)["inner"], original)

    def test_tail_percentile_keeps_ten_samples_beyond_it(self):
        values = [float(v) for v in range(1, 201)]
        p50, tail, percentile = median_and_tail(values)
        self.assertEqual((p50, percentile, tail), (100.0, 95.0, 190.0))
        self.assertEqual(median_and_tail([1.0, 2.0, 3.0])[2], 50.0)


class SweepTest(unittest.TestCase):
    def setUp(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(dir=run.WORK_DIR))

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def test_same_seed_same_digest_other_seed_other_pair_seeds(self):
        first = sweep.measure_sweeps(TINY, 3, 1.0, self.work_dir)
        again = sweep.measure_sweeps(TINY, 3, 1.0, self.work_dir)
        self.assertEqual(first.failures, [])
        self.assertEqual(first.attempted, len(TINY.entries) * 6)
        self.assertEqual(first.digest, again.digest)
        for name in ("sim_cycles_geomean", "sim_energy_geomean"):
            self.assertEqual(first.metrics[name], again.metrics[name])

        pairs = [(m, e) for m in ("mas", "flat") for e in TINY.entries]
        seeds_of = {
            run_seed: {pair_seed(r, m, e) for r in TINY.runner_seeds(run_seed, 1.0) for m, e in pairs}
            for run_seed in (3, 4)
        }
        self.assertFalse(seeds_of[3] & seeds_of[4])

    def test_traced_run_is_consistent_and_removes_its_wrappers(self):
        targets = sweep.layer_targets(dict.fromkeys(("x",), 0))
        before = [vars(t.owner)[t.attr] for t in targets]
        traced = sweep.measure_traced(TINY, 0, self.work_dir)
        self.assertEqual(traced.failures, [])
        self.assertTrue(traced.consistent)
        self.assertEqual([vars(t.owner)[t.attr] for t in targets], before)
        layer_s = sum(
            traced.metrics[name][0]
            for name in (
                "exec.self_s", "store.lookup_s", "store.put_s", "search.self_s", "analytic.s",
                "schedulers.build_s", "sim.self_s", "hardware.energy_s", "bench.unattributed_s",
            )
        )
        self.assertAlmostEqual(layer_s, traced.metrics["bench.traced_sweep_s"][0], places=6)

    def test_traced_run_that_misses_a_binding_is_inconsistent(self):
        def misplaced(counts):
            # Wrap execute_pair where it is defined rather than where the
            # runner looks it up, as if the runner had stopped calling it
            # through its module: the wrapper never runs.
            return [
                Target("exec", pairs_module, "execute_pair") if t.attr == "execute_pair" else t
                for t in sweep.layer_targets(counts)
            ]

        traced = sweep.measure_traced(TINY, 0, self.work_dir, targets=misplaced)
        self.assertEqual(traced.failures, [])
        self.assertFalse(traced.consistent)
        self.assertEqual(traced.metrics["exec.pairs"][0], 0)
        self.assertTrue(any("execute_pair" in note for note in traced.notes if "INCONSISTENT" in note))

    def test_injected_engine_slowdown_shows_in_engine_and_cold_sweep(self):
        original = executor.simulate_graph

        def twice(graph):  # the engine doing its work twice: a 2x slowdown
            original(graph)
            return original(graph)

        # Alternate the two sides so a slow spell of the host cannot favour
        # one, and compare the engine's share of the traced sweep, which
        # both measure at the same moment.
        baseline, slowed = [], []
        for _ in range(3):
            baseline.append(self._measure())
            executor.simulate_graph = twice
            try:
                slowed.append(self._measure())
            finally:
                executor.simulate_graph = original
        def engine_share(runs):
            return statistics.median(r["sim.engine_s"] / r["bench.traced_sweep_s"] for r in runs)

        def fastest_cold(runs):
            return min(r["cold_sweep_s"] for r in runs)

        # Doubling an engine share e makes it 2e / (1 + e) and the sweep 1 + e
        # times longer; both checks leave room for host noise.
        share = engine_share(baseline)
        self.assertGreater(engine_share(slowed), 1.4 * share)
        self.assertGreater(fastest_cold(slowed), fastest_cold(baseline) * (1 + share / 2))

    def _measure(self) -> dict[str, float]:
        cold = sweep.measure_sweeps(TINY, 0, 1.0, self.work_dir).metrics
        traced = sweep.measure_traced(TINY, 0, self.work_dir).metrics
        return {name: value for name, (value, _) in {**cold, **traced}.items()}


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=2)
