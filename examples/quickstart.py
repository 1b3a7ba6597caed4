#!/usr/bin/env python
"""Quickstart: compare every attention dataflow on one Table-1 network.

Simulates the six dataflows (Layer-Wise, Soft-Pipe, FLAT, TileFlow, FuseMax
and MAS-Attention) on the paper's simulated edge accelerator for BERT-Base,
first with untuned heuristic tilings and then with a short tiling search, and
prints cycles, latency, energy and DRAM traffic for each.

Run::

    python examples/quickstart.py [network-name]
"""

from __future__ import annotations

import sys

from repro import quick_compare, simulated_edge_device
from repro.analysis import format_table
from repro.schedulers import make_scheduler
from repro.search import AutoTuner
from repro.workloads import get_network


def main() -> None:
    network = sys.argv[1] if len(sys.argv) > 1 else "BERT-Base"
    config = get_network(network)
    hardware = simulated_edge_device()
    workload = config.workload()

    print(f"network : {config.name}  (heads={config.heads}, seq={config.seq}, emb={config.emb})")
    print(f"device  : {hardware.name}  ({hardware.num_cores} cores, "
          f"{hardware.l1_bytes // (1024 * 1024)} MB L1, {hardware.frequency_hz / 1e9:.2f} GHz)")
    print()

    # ---------------------------------------------------------------- #
    # 1. Untuned comparison: one call, heuristic tilings.
    # ---------------------------------------------------------------- #
    rows = quick_compare(config.name, hardware=hardware)
    print(format_table(
        ["method", "cycles", "latency (ms)", "energy (1e9 pJ)", "DRAM read (MB)", "DRAM write (MB)"],
        [
            [
                r["scheduler"],
                r["cycles"],
                round(r["latency_ms"], 4),
                round(r["energy_pj"] / 1e9, 3),
                round(r["dram_bytes_read"] / 1e6, 2),
                round(r["dram_bytes_written"] / 1e6, 2),
            ]
            for r in rows
        ],
        title="Untuned comparison (heuristic tilings)",
    ))

    # ---------------------------------------------------------------- #
    # 2. Tuned comparison: search tiling factors per dataflow (Section 4.2).
    # ---------------------------------------------------------------- #
    print("\nrunning the tiling search (MCTS + GA, small budget) ...")
    tuner = AutoTuner(hardware, budget=60)
    tuned_rows = []
    for name in ("layerwise", "softpipe", "flat", "tileflow", "fusemax", "mas"):
        scheduler = make_scheduler(name, hardware)
        if scheduler.searchable:
            tiling = tuner.tune(scheduler, workload).best_tiling
        else:
            tiling = scheduler.default_tiling(workload)  # FuseMax: manual tiling
        result = scheduler.simulate(workload, tiling)
        tuned_rows.append([name, result.cycles, tiling.as_dict()])

    mas_cycles = next(r[1] for r in tuned_rows if r[0] == "mas")
    print(format_table(
        ["method", "cycles", "speedup of MAS", "tiling"],
        [[name, cycles, round(cycles / mas_cycles, 2), str(tiling)] for name, cycles, tiling in tuned_rows],
        title="Tuned comparison (searched tilings)",
    ))
    print("\nMAS-Attention should be the fastest method in both tables.")

    # ---------------------------------------------------------------- #
    # 3. Full sweeps: run the method x network matrix in parallel, with a
    #    persistent result cache so re-runs skip the search entirely.
    #    (See docs/parallel_sweeps.md.)
    # ---------------------------------------------------------------- #
    print("\nFor full Table-2/3 sweeps, run the matrix in parallel with a result store:")
    print("    from repro.exec import ExperimentRunner")
    print("    from repro.analysis import run_table2")
    print("    runner = ExperimentRunner(jobs=8, cache_dir='~/.cache/mas-attention')")
    print("    print(run_table2(runner).format())   # warm re-runs do zero searches")
    print("    # shared SQLite store (safe across concurrent workers/hosts):")
    print("    runner = ExperimentRunner(jobs=8, cache_uri='sqlite:///fleet.db')")
    print("    # see docs/result_store.md for URIs, eviction and migration")


if __name__ == "__main__":
    main()
