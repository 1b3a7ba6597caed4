"""Workloads, sweeps, output checks and metrics of the sweep benchmark.

One *replica* of a workload is its matrix (suite entries x all six methods)
tuned under one runner seed.  A run sweeps several replicas, each cold into an
empty JSON-directory store and then warm from that store, and reports means
over replicas.  Replica seeds derive from the run's ``--seed``, so the same
seed always sweeps the same pairs with the same per-pair search seeds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.core.tiling import TilingConfig
from repro.exec import runner as runner_module
from repro.exec.cache import ResultCache
from repro.exec.pairs import MethodRun
from repro.exec.runner import ParallelRunner
from repro.hardware.energy import EnergyModel
from repro.schedulers.base import AttentionScheduler
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.search.autotuner import AutoTuner
from repro.sim import executor
from repro.sim.tasks import mac_resource, vec_resource
from repro.sim.trace import Trace

from hostspeed import ScaledTimer
from layertrace import LayerTracer, Target, installed, median_and_tail

#: Replica ``k`` of a run with seed ``s`` tunes under runner seed
#: ``s * REPLICA_STRIDE + k``, so distinct run seeds never share a replica.
REPLICA_STRIDE = 1000
#: Warm replays timed per replica; each is short, so one is too noisy.
WARM_REPEATS = 2
#: The paper's search strategy on the simulated edge device.
STRATEGY = "mcts+ga"
#: Largest share of a traced sweep that may fall outside every wrapped call.
MAX_UNATTRIBUTED = 0.05
#: The program's sources, for the set-up probe's child processes.
SRC = str(Path(repro.__file__).resolve().parent.parent)
#: What one set-up probe does: import the runner, resolve the suite and open
#: the store.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro.exec.runner import ParallelRunner;"
    "ParallelRunner(suite=sys.argv[2], cache_dir=sys.argv[3], jobs=1, search_workers=1)"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a suite slice swept by every method."""

    suite: str
    #: Suite entries to sweep (alias/prefix names); ``None`` sweeps them all.
    entries: tuple[str, ...] | None
    budget: int
    #: Scaled host seconds (see hostspeed.py) of one replica's cold sweep and
    #: warm replays together.  ``--seconds`` divided by it fixes the replica
    #: count, so the pairs swept depend only on the command line, never on
    #: how fast the host happens to be.
    replica_seconds: float

    def replicas(self, seconds: float) -> int:
        return max(1, round(seconds / self.replica_seconds))

    def runner_seeds(self, seed: int, seconds: float) -> list[int]:
        return [seed * REPLICA_STRIDE + k for k in range(self.replicas(seconds))]


WORKLOADS: dict[str, Workload] = {
    # The paper's own shapes, mixed sequence and embedding size, at mid-size
    # graphs where graph build and engine do almost all the work.  How large
    # the graphs a search visits are depends on its seed; budget 10 rather
    # than 20 fits twice the replicas in a run, and their mean settles more.
    "table1-mini": Workload("table1", ("BERT-Base", "ViT-B/14"), budget=10, replica_seconds=3.45),
    # 72 tiny seq_q=1 pairs: fixed per-candidate and per-pair costs (search
    # bookkeeping, analytic pass, result assembly, store lookups) weigh most.
    "decode-step": Workload("decode-step", None, budget=20, replica_seconds=6.0),
    # Graphs ~18x table1's: memoized-trace memory, analytic rejections and
    # MAS's overwrite-and-reload path.  Not in BENCHMARK.json: a replica takes
    # ~20 s and its work varies ~3x with the seed, too much to be steady.
    "long-context-2k": Workload(
        "long-context@seq=2048", ("BERT-Base @n2048",), budget=8, replica_seconds=20.0
    ),
}


def make_runner(workload: Workload, runner_seed: int, store_dir: Path | None) -> ParallelRunner:
    """A serial runner (``jobs=1``, one search worker) on a JSON-directory store."""
    return ParallelRunner(
        search_budget=workload.budget,
        search_strategy=STRATEGY,
        seed=runner_seed,
        cache_dir=store_dir,
        suite=workload.suite,
        search_workers=1,
        jobs=1,
    )


def entry_names(workload: Workload) -> list[str] | None:
    return list(workload.entries) if workload.entries else None


# ---------------------------------------------------------------------- #
# Sweeps
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PairOutcome:
    """One pair's output: ``result`` is (sorted tiling items, cycles, energy)."""

    result: tuple
    cached: bool


@dataclass
class Sweep:
    """One timed sweep of a replica's matrix."""

    runner_seed: int
    #: Host seconds of the sweep, as measured and scaled to the reference
    #: host speed (see hostspeed.py).
    seconds: float
    scaled: float
    #: Peak resident set of the process during the sweep, in MiB.
    peak_mb: float = 0.0
    evaluations: int = 0
    outcomes: dict[tuple[str, str], PairOutcome] = field(default_factory=dict)
    #: The runs themselves, kept only when asked for (they hold full traces).
    runs: list[MethodRun] = field(default_factory=list)


def run_sweep(
    workload: Workload, runner_seed: int, store_dir: Path, keep_runs: bool = False
) -> Sweep:
    """Sweep the matrix once with a fresh runner through ``iter_matrix``.

    Only the pairs are timed: host-speed calibrations run between pairs,
    outside the timed pieces.  A pair that raises aborts the sweep with no
    outcomes, so the output check counts every pair of the replica as failed.
    """
    runner = make_runner(workload, runner_seed, store_dir)
    gc.collect()
    reset_peak_rss()
    timer = ScaledTimer()
    pairs = runner.iter_matrix(networks=entry_names(workload))
    runs = []
    try:
        while True:
            start = time.perf_counter()
            run = next(pairs, None)
            timer.add(time.perf_counter() - start)
            if run is None:
                break
            runs.append(run)
    except Exception:  # noqa: BLE001 - a failed sweep is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        timer.flush()
        return Sweep(runner_seed, timer.seconds, timer.scaled)
    timer.flush()
    sweep = Sweep(
        runner_seed,
        timer.seconds,
        timer.scaled,
        peak_mb=peak_rss_mb(),
        evaluations=runner.cache_stats()["search_evaluations"],
    )
    for run in runs:
        if run.tuning is not None:
            tiling = run.tuning.best_tiling
        else:
            scheduler = make_scheduler(run.scheduler, runner.hardware)
            tiling = scheduler.default_tiling(runner.workload_for(run.network))
        result = (tuple(sorted(tiling.as_dict().items())), run.cycles, run.energy_pj)
        sweep.outcomes[(run.scheduler, run.network)] = PairOutcome(result, run.cached)
    if keep_runs:
        sweep.runs = runs
    return sweep


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:  # not Linux, or no permission: the peak spans the process
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since the last reset, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# ---------------------------------------------------------------------- #
# Output check
# ---------------------------------------------------------------------- #
def check_replica(
    workload: Workload, cold: Sweep, others: dict[str, Sweep]
) -> tuple[int, list[str]]:
    """``(pairs attempted, failure messages)`` for one replica.

    Every pair must appear in the cold sweep (not served from the store) and
    in each of ``others`` with the same best tiling, cycles and energy.  A
    warm replay must serve every searched pair from the store.  The cycles and
    energy must be at least the scheduler's analytic lower bounds for that
    tiling.
    """
    runner = make_runner(workload, cold.runner_seed, None)
    networks = runner.networks(entry_names(workload))
    pairs = [(method, network) for network in networks for method in runner.methods()]
    failures = []
    for method, network in pairs:
        problem = _pair_problem(runner, method, network, cold, others)
        if problem:
            failures.append(f"seed {cold.runner_seed} {method} x {network}: {problem}")
    return len(pairs), failures


def _pair_problem(runner, method, network, cold: Sweep, others: dict[str, Sweep]) -> str:
    reference = cold.outcomes.get((method, network))
    if reference is None:
        return "missing from the cold sweep"
    if reference.cached:
        return "the cold sweep was served from the store"
    scheduler = make_scheduler(method, runner.hardware)
    for name, sweep in others.items():
        outcome = sweep.outcomes.get((method, network))
        if outcome is None:
            return f"missing from the {name}"
        if outcome.result != reference.result:
            return f"{name} gave {outcome.result}, cold sweep {reference.result}"
        if name.startswith("warm") and scheduler.searchable and not outcome.cached:
            return f"{name} did not serve the pair from the store"
    tiling_items, cycles, energy_pj = reference.result
    bounds = scheduler.analytic_bounds(
        runner.workload_for(network), [TilingConfig(**dict(tiling_items))]
    )
    if cycles < int(bounds.cycles[0]):
        return f"cycles {cycles} below the analytic bound {int(bounds.cycles[0])}"
    if energy_pj < float(bounds.energy_pj[0]) * (1 - 1e-12):
        return f"energy {energy_pj} pJ below the analytic bound {float(bounds.energy_pj[0])}"
    return ""


def result_digest(sweeps: list[Sweep]) -> str:
    """SHA-256 over every pair's tiling, cycles and energy (energy by repr)."""
    rows = sorted(
        [sweep.runner_seed, method, network, [list(item) for item in o.result[0]],
         o.result[1], repr(o.result[2])]
        for sweep in sweeps
        for (method, network), o in sweep.outcomes.items()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# ---------------------------------------------------------------------- #
# Measurements
# ---------------------------------------------------------------------- #
@dataclass
class Measurement:
    """A run's metrics plus its output-check tally."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    digest: str
    notes: list[str] = field(default_factory=list)
    #: False when a benchmark invariant (not a pair) broke, e.g. timing
    #: wrappers that missed calls the sweep makes.
    consistent: bool = True


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def setup_seconds(suite: str, work_dir: Path) -> float:
    """Host seconds from starting a Python process to a ready runner, scaled.

    The child imports the runner, resolves ``suite`` and opens a fresh store:
    everything a sweep needs before its first pair.
    """
    store = tempfile.mkdtemp(dir=work_dir)
    timer = ScaledTimer()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, suite, store], check=True, timeout=60)
    timer.add(time.perf_counter() - start)
    timer.flush()
    return timer.scaled


def measure_sweeps(workload: Workload, seed: int, seconds: float, work_dir: Path) -> Measurement:
    """Cold sweep of every replica, then timed warm replays of each.

    Host times and peak memory are means over replicas, not medians: a
    pair's cost across seeds is heavy-tailed and often two-moded (the search
    does or does not wander into very fine tilings), and the median of a few
    such samples jumps between modes where the mean settles.  ``setup_s`` is
    the median of set-up probes spread over the whole run, two per replica,
    so that a slow spell of the host at one moment cannot move it.
    """
    setup_seconds(workload.suite, work_dir)  # warms the OS and bytecode caches
    setups = []
    stores = {}
    colds: list[Sweep] = []
    for runner_seed in workload.runner_seeds(seed, seconds):
        setups.append(setup_seconds(workload.suite, work_dir))
        stores[runner_seed] = Path(tempfile.mkdtemp(dir=work_dir))
        colds.append(run_sweep(workload, runner_seed, stores[runner_seed]))
    warms: list[Sweep] = []
    attempted, failures = 0, []
    for cold in colds:
        replays = {
            f"warm replay {repeat}": run_sweep(workload, cold.runner_seed, stores[cold.runner_seed])
            for repeat in range(WARM_REPEATS)
        }
        setups.append(setup_seconds(workload.suite, work_dir))
        warms += replays.values()
        pairs, problems = check_replica(workload, cold, replays)
        attempted += pairs
        failures += problems
    cold_s = statistics.fmean(c.scaled for c in colds)
    outcomes = [o.result for cold in colds for o in cold.outcomes.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_sweep_s": (cold_s, "s"),
        "candidates_per_s": (statistics.fmean(c.evaluations for c in colds) / cold_s, "1/s"),
        "warm_sweep_s": (statistics.fmean(w.scaled for w in warms), "s"),
        "peak_rss_mb": (statistics.fmean(c.peak_mb for c in colds), "MiB"),
        "sim_cycles_geomean": (geomean([o[1] for o in outcomes]), "cycles"),
        "sim_energy_geomean": (geomean([o[2] for o in outcomes]), "pJ"),
    }
    notes = [
        f"replicas: {len(colds)} (runner seeds {[c.runner_seed for c in colds]})",
        "as measured, before host-speed scaling: cold_sweep_s "
        f"{statistics.fmean(c.seconds for c in colds):.4f}, warm_sweep_s "
        f"{statistics.fmean(w.seconds for w in warms):.4f}",
    ]
    return Measurement(metrics, attempted, failures, result_digest(colds), notes)


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def layer_targets(counts: dict[str, int]) -> list[Target]:
    """Public entry points of every layer on the sweep path.

    ``execute_pair`` is patched where the runner looks it up and
    ``simulate_graph`` where the executor does, so the wrappers sit on the
    calls the sweep actually makes.
    """

    def on_lookup(args, result):
        counts["store_hits"] += result is not None

    def on_tune(args, result):
        stats = result.analytic_stats or {}
        counts["proposals"] += len(result.history.records)
        counts["evaluations"] += result.objective_evaluations or 0
        counts["simulated"] += stats.get("num_simulated", 0)
        counts["rejected"] += stats.get("num_infeasible", 0)
        counts["pruned"] += stats.get("num_pruned", 0)

    def on_build(args, result):
        counts["built_tasks"] += len(result.graph)

    def on_engine(args, result):
        counts["engine_tasks"] += len(args[0])

    builders = [cls for cls in ALL_SCHEDULERS.values() if "build" in vars(cls)]
    return [
        Target("exec", runner_module, "execute_pair"),
        Target("store", ResultCache, "load", on_lookup),
        Target("store", ResultCache, "store"),
        Target("search", AutoTuner, "tune", on_tune),
        Target("analytic", AttentionScheduler, "analytic_bounds"),
        *(Target("schedulers", cls, "build", on_build) for cls in builders),
        Target("sim", AttentionScheduler, "simulate"),
        Target("sim", executor, "simulate_graph", on_engine),
        Target("sim", Trace, "counters"),
        Target("hardware", EnergyModel, "compute"),
    ]


def model_metrics(runs: list[MethodRun], num_cores: int) -> dict[str, tuple[float, str]]:
    """Simulated statistics of the best tilings, through public Trace methods.

    Utilizations are averaged over cores, then over pairs; the overlap share
    covers MAS pairs only.
    """
    traces = [run.result.trace for run in runs]
    mas = [run.result.trace for run in runs if run.scheduler == "mas"]

    def mean_over(trace_list: list[Trace], per_core) -> float:
        if not trace_list:
            return 0.0
        return statistics.fmean(
            statistics.fmean(per_core(trace, core) for core in range(num_cores))
            for trace in trace_list
        )

    def overlap(trace: Trace, core: int) -> float:
        both = trace.overlap_cycles(mac_resource(core), vec_resource(core))
        return both / trace.total_cycles if trace.total_cycles else 0.0

    return {
        "model.mac_util": (mean_over(traces, lambda t, c: t.utilization(mac_resource(c))), "ratio"),
        "model.vec_util": (mean_over(traces, lambda t, c: t.utilization(vec_resource(c))), "ratio"),
        "model.dma_util": (statistics.fmean(t.utilization("dma") for t in traces), "ratio"),
        "model.mas_mac_vec_overlap_frac": (mean_over(mas, overlap), "ratio"),
        "model.dram_mb": (
            statistics.fmean((r.result.dram_reads + r.result.dram_writes) / 2**20 for r in runs),
            "MiB",
        ),
    }


def coverage_problems(
    tracer: LayerTracer, counts: dict[str, int], pairs: int, searched: int
) -> list[str]:
    """Wrapped calls the traced cold sweep plus warm replay should have made, but did not.

    Over both sweeps every pair runs ``execute_pair`` twice; each searched
    pair is looked up twice, tuned and stored once; every completed
    ``simulate`` (one final per pair and sweep, plus one per candidate the
    searches simulated) builds once and runs the engine and the energy model
    once.  A count that differs means some calls escaped the wrappers, and
    their time was not attributed to their layer.
    """
    stat = tracer.stats
    simulate = stat("AttentionScheduler.simulate")
    completed = simulate.calls - simulate.errors
    builds = sum(s.calls for s in tracer.functions.values() if s.layer == "schedulers")
    expected = {
        "execute_pair": (stat("repro.exec.runner.execute_pair").calls, 2 * pairs),
        "ResultCache.load": (stat("ResultCache.load").calls, 2 * searched),
        "AutoTuner.tune": (stat("AutoTuner.tune").calls, searched),
        "ResultCache.store": (stat("ResultCache.store").calls, searched),
        "completed simulate": (completed, 2 * pairs + counts["simulated"]),
        "scheduler build": (builds, simulate.calls),
        "simulate_graph": (stat("repro.sim.executor.simulate_graph").calls, completed),
        "EnergyModel.compute": (stat("EnergyModel.compute").calls, completed),
    }
    return [
        f"{name}: the wrappers saw {seen} calls, the sweep makes {want}"
        for name, (seen, want) in expected.items()
        if seen != want
    ]


def measure_traced(
    workload: Workload, seed: int, work_dir: Path, targets=layer_targets
) -> Measurement:
    """Untraced cold sweep, then a traced cold sweep and warm replay.

    Uses the run's first replica.  Per-layer metrics cover the traced cold
    sweep and the traced warm replay together; their self times plus
    ``bench.unattributed_s`` add up to ``bench.traced_sweep_s``.  The run is
    inconsistent when the wrappers missed calls the sweep makes (see
    :func:`coverage_problems`) or when more than :data:`MAX_UNATTRIBUTED` of
    the traced sweep falls outside every wrapped call.  ``targets`` maps the
    tally dict to the wrapped entry points.
    """
    runner_seed = workload.runner_seeds(seed, 1)[0]
    cold = run_sweep(workload, runner_seed, Path(tempfile.mkdtemp(dir=work_dir)))
    traced_store = Path(tempfile.mkdtemp(dir=work_dir))
    counts = dict.fromkeys(
        ("store_hits", "proposals", "evaluations", "simulated", "rejected", "pruned",
         "built_tasks", "engine_tasks"),
        0,
    )
    tracer = LayerTracer()
    with installed(tracer, targets(counts)):
        traced_cold = run_sweep(workload, runner_seed, traced_store, keep_runs=True)
        traced_warm = run_sweep(workload, runner_seed, traced_store)
    attempted, failures = check_replica(
        workload, cold, {"traced run": traced_cold, "warm replay (traced)": traced_warm}
    )
    traced_s = traced_cold.seconds + traced_warm.seconds
    top_s = tracer.top_ns / 1e9
    runner = make_runner(workload, runner_seed, None)
    methods = runner.methods()
    searched = sum(make_scheduler(m, runner.hardware).searchable for m in methods)
    networks = len(runner.networks(entry_names(workload)))
    problems = coverage_problems(tracer, counts, networks * len(methods), networks * searched)
    if traced_s - top_s > MAX_UNATTRIBUTED * traced_s:
        problems.append(
            f"{traced_s - top_s:.3f} s of the {traced_s:.3f} s traced sweep is unattributed"
        )

    stat = tracer.stats

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lookup = stat("ResultCache.load")
    simulate = stat("AttentionScheduler.simulate")
    engine = stat("repro.sim.executor.simulate_graph")
    builds = [s for s in tracer.functions.values() if s.layer == "schedulers"]
    build_ns = sum(s.self_ns for s in builds)
    lookup_p50, lookup_tail, lookup_pct = median_and_tail([d / 1e6 for d in lookup.durations_ns])
    sim_p50, sim_tail, sim_pct = median_and_tail([d / 1e6 for d in simulate.durations_ns])
    layer_self = tracer.layer_self_s()
    metrics = {
        "exec.pairs": (stat("repro.exec.runner.execute_pair").calls, "count"),
        "exec.self_s": (layer_self.get("exec", 0.0), "s"),
        "store.lookups": (lookup.calls, "count"),
        "store.hit_ratio": (ratio(counts["store_hits"], lookup.calls), "ratio"),
        "store.lookup_s": (lookup.self_ns / 1e9, "s"),
        "store.lookup_ms_p50": (lookup_p50, "ms"),
        "store.lookup_ms_tail": (lookup_tail, "ms"),
        "store.puts": (stat("ResultCache.store").calls, "count"),
        "store.put_s": (stat("ResultCache.store").self_ns / 1e9, "s"),
        "search.tunes": (stat("AutoTuner.tune").calls, "count"),
        "search.self_s": (layer_self.get("search", 0.0), "s"),
        "search.proposals": (counts["proposals"], "count"),
        "search.evaluations": (counts["evaluations"], "count"),
        "search.distinct_ratio": (ratio(counts["evaluations"], counts["proposals"]), "ratio"),
        "analytic.calls": (stat("AttentionScheduler.analytic_bounds").calls, "count"),
        "analytic.s": (layer_self.get("analytic", 0.0), "s"),
        "analytic.reject_ratio": (ratio(counts["rejected"], counts["evaluations"]), "ratio"),
        "analytic.pruned": (counts["pruned"], "count"),
        "schedulers.builds": (sum(s.calls for s in builds), "count"),
        "schedulers.build_s": (build_ns / 1e9, "s"),
        "schedulers.tasks": (counts["built_tasks"], "count"),
        "schedulers.build_us_per_task": (ratio(build_ns / 1e3, counts["built_tasks"]), "us"),
        "sim.simulates": (simulate.calls, "count"),
        "sim.self_s": (layer_self.get("sim", 0.0), "s"),
        "sim.engine_s": (engine.self_ns / 1e9, "s"),
        "sim.engine_us_per_task": (ratio(engine.self_ns / 1e3, counts["engine_tasks"]), "us"),
        "sim.counters_s": (stat("Trace.counters").self_ns / 1e9, "s"),
        "sim.simulate_ms_p50": (sim_p50, "ms"),
        "sim.simulate_ms_tail": (sim_tail, "ms"),
        "hardware.energy_s": (layer_self.get("hardware", 0.0), "s"),
        **model_metrics(traced_cold.runs, runner.hardware.num_cores),
        "bench.trace_overhead_ratio": (traced_cold.scaled / cold.scaled, "ratio"),
        "bench.unattributed_s": (traced_s - top_s, "s"),
        "bench.traced_sweep_s": (traced_s, "s"),
    }
    notes = [
        f"store.lookup_ms_tail is p{lookup_pct:g} of {lookup.calls} lookups; "
        f"sim.simulate_ms_tail is p{sim_pct:g} of {simulate.calls} simulates",
        "layer self seconds (share of traced sweep "
        f"{traced_s:.3f} s = cold {traced_cold.seconds:.3f} s + warm {traced_warm.seconds:.3f} s):",
        *(
            f"  {layer:<11}{seconds:10.4f} s {seconds / traced_s:7.1%}"
            for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1])
        ),
        f"  {'unattributed':<11}{traced_s - top_s:10.4f} s {(traced_s - top_s) / traced_s:7.1%}",
        f"  {'sum':<11}{sum(layer_self.values()) + traced_s - top_s:10.4f} s",
    ]
    notes += [f"INCONSISTENT: {problem}" for problem in problems]
    return Measurement(metrics, attempted, failures, result_digest([cold]), notes, not problems)
