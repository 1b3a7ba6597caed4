#!/usr/bin/env python
"""Long-context attention on a tight on-chip buffer: the proactive overwrite strategy.

This example stresses the memory-aware side of MAS-Attention (Sections 4.3 and
5.6):

1. sweeps the sequence length on a device whose L1 has been shrunk so the
   pipeline's steady-state residency overflows, comparing MAS-Attention with
   the overwrite strategy enabled and disabled (overflowing rounds serialize);
2. reports the extra DRAM reads the strategy pays (the Section-5.4 trade-off);
3. prints the closed-form maximum-sequence-length limits of MAS-Attention and
   FLAT across L1 capacities (Section 5.6).

Run::

    python examples/long_context_overwrite.py
"""

from __future__ import annotations

from repro.analysis import format_table, run_limits
from repro.analysis.ablations import overflowing_tiling, slightly_small_l1_bytes
from repro.hardware.presets import simulated_edge_device
from repro.schedulers.mas import MASAttentionScheduler
from repro.utils.units import MB
from repro.workloads.attention import AttentionWorkload


def overwrite_sweep() -> None:
    base = simulated_edge_device()
    rows = []
    for seq in (512, 1024, 2048, 4096):
        workload = AttentionWorkload.self_attention(heads=2, seq=seq, emb=64, name=f"long-{seq}")
        tiling = overflowing_tiling(workload, base)
        # Shrink the buffer so most of the resident K/V fits: the paper's
        # "slightly too small buffer" long-sequence regime.
        device = base.with_l1_bytes(slightly_small_l1_bytes(workload, tiling))
        on = MASAttentionScheduler(device, enable_overwrite=True).simulate(workload, tiling)
        off = MASAttentionScheduler(device, enable_overwrite=False).simulate(workload, tiling)
        rows.append([
            seq,
            device.l1_bytes // 1024,
            on.cycles,
            off.cycles,
            round(off.cycles / on.cycles, 3),
            int(on.metadata["num_overwrites"]),
            round(int(on.metadata["extra_dram_bytes"]) / 1e6, 2),
            round(on.dram_reads / off.dram_reads, 3),
        ])
    print(format_table(
        ["seq len", "L1 (KB)", "overwrite cycles", "stall cycles", "speedup",
         "overwrite events", "extra DRAM (MB)", "read ratio"],
        rows,
        title="Proactive overwrite vs pipeline stall on a slightly-too-small L1",
    ))


def limits() -> None:
    result = run_limits(l1_sweep_bytes=[1 * MB, 2 * MB, 5 * MB, 8 * MB, 16 * MB])
    print()
    print(result.format())
    print("\nOn the paper's 5 MB device MAS-Attention handles ~1M tokens (FP16) and FLAT")
    print("~2M: the price of keeping two score rows resident to pipeline MAC and VEC.")


def main() -> None:
    overwrite_sweep()
    limits()


if __name__ == "__main__":
    main()
