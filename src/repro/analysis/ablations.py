"""Design-choice ablations called out in DESIGN.md.

Three ablations isolate the contributions of the MAS-Attention design:

* **overwrite** (A1): the proactive buffer-overwrite strategy on/off, on a
  constrained-L1 device where the steady-state residency overflows — with the
  strategy disabled the overflowing rounds degrade to sequential execution;
* **tiling** (A2): the multi-tiered tiling scheme versus single-tier tiling
  (no key/value sub-matrix tiling, i.e. ``nkv = N_kv``);
* **search** (A3): the search algorithm used for tuning (grid / random /
  MCTS / GA / MCTS+GA) under an equal evaluation budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.analysis.report import format_table
from repro.core.tiling import TilingConfig, mas_footprint_bytes, mas_non_evictable_bytes
from repro.hardware.config import HardwareConfig
from repro.hardware.presets import constrained_edge_device, simulated_edge_device
from repro.schedulers.mas import MASAttentionScheduler
from repro.schedulers.registry import make_scheduler
from repro.search.autotuner import AutoTuner, STRATEGIES
from repro.utils.validation import require
from repro.workloads.networks import get_network

__all__ = [
    "AblationResult",
    "overflowing_tiling",
    "slightly_small_l1_bytes",
    "run_overwrite_ablation",
    "run_tiling_ablation",
    "run_search_ablation",
]


@dataclass
class AblationResult:
    """Generic ablation outcome: one row per (network, variant)."""

    name: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    summary: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        text = format_table(self.headers, self.rows, precision=3, title=f"Ablation: {self.name}")
        if self.summary:
            lines = [f"  {k}: {v:.3f}" for k, v in self.summary.items()]
            text += "\nsummary:\n" + "\n".join(lines)
        return text


# --------------------------------------------------------------------------- #
# A1: proactive overwrite strategy
# --------------------------------------------------------------------------- #
#: Share of the resident K/V that fits next to the non-evictable residency on
#: the overwrite ablation's default L1: the paper's long-sequence regime, where
#: the buffer is *slightly* too small.
KV_FIT_FRACTION = 0.9


def overflowing_tiling(workload, hardware: HardwareConfig) -> TilingConfig:
    """A tiling whose steady-state residency overflows ``hardware``'s L1.

    Used by the overwrite ablation and the constrained DRAM analysis to force
    the Section-4.3 code path: K/V stay resident (the reuse every fused
    dataflow wants) and the row-block is shrunk only until the *non-evictable*
    residency fits, so the K/V share is what overflows.
    """
    tiling = TilingConfig(nq=64, nkv=64, kv_resident=True).clamp_to(workload)
    while tiling.nq > 1 and mas_non_evictable_bytes(workload, tiling) > hardware.l1_bytes:
        tiling = TilingConfig(
            nq=max(1, tiling.nq // 2), nkv=tiling.nkv, kv_resident=True
        ).clamp_to(workload)
    return tiling


def slightly_small_l1_bytes(workload, tiling: TilingConfig) -> int:
    """An L1 capacity that holds ``tiling``'s non-evictable MAS residency and
    :data:`KV_FIT_FRACTION` of its resident K/V, so a regular round overflows."""
    non_evictable = mas_non_evictable_bytes(workload, tiling)
    kv = mas_footprint_bytes(workload, tiling) - non_evictable
    return non_evictable + int(KV_FIT_FRACTION * kv)


def run_overwrite_ablation(
    networks: list[str] | None = None,
    l1_bytes: int | None = None,
    hardware: HardwareConfig | None = None,
) -> AblationResult:
    """Compare MAS-Attention with and without the proactive overwrite strategy.

    The device L1 is shrunk so the pipeline's steady-state residency overflows
    for the Table-1 shapes — by default per network, to
    :func:`slightly_small_l1_bytes` of its :func:`overflowing_tiling`.  With
    the strategy disabled the overflowing rounds serialize behind the MAC;
    with it enabled they pay a modest K/V reload instead.
    """
    networks = networks or ["T5-Mini", "BERT-Small", "BERT-Base"]
    result = AblationResult(
        name="proactive overwrite strategy",
        headers=[
            "Network",
            "overwrite cycles",
            "no-overwrite cycles",
            "speedup (x)",
            "extra DRAM reads (B)",
            "overwrite events",
        ],
    )
    speedups = []
    for name in networks:
        workload = get_network(name).workload()
        if hardware is not None:
            device = hardware
        elif l1_bytes is not None:
            device = constrained_edge_device(l1_bytes)
        else:
            base = simulated_edge_device()
            probe = overflowing_tiling(workload, base)
            device = base.with_l1_bytes(slightly_small_l1_bytes(workload, probe))
        enabled = MASAttentionScheduler(device, enable_overwrite=True)
        disabled = MASAttentionScheduler(device, enable_overwrite=False)
        tiling = overflowing_tiling(workload, device)
        on = enabled.simulate(workload, tiling)
        off = disabled.simulate(workload, tiling)
        speedup = off.cycles / on.cycles if on.cycles else 1.0
        speedups.append(speedup)
        result.rows.append(
            [
                get_network(name).name,
                on.cycles,
                off.cycles,
                speedup,
                int(on.metadata.get("extra_dram_bytes", 0)),
                int(on.metadata.get("num_overwrites", 0)),
            ]
        )
    result.summary["mean_speedup"] = sum(speedups) / len(speedups)
    return result


# --------------------------------------------------------------------------- #
# A2: multi-tier versus single-tier tiling
# --------------------------------------------------------------------------- #
def run_tiling_ablation(
    networks: list[str] | None = None,
    hardware: HardwareConfig | None = None,
    search_budget: int = 40,
) -> AblationResult:
    """Compare the multi-tiered tiling scheme against single-tier tiling.

    Single-tier tiling removes the key/value sub-matrix tier: ``nkv`` is fixed
    to the full key/value length, so the MatMul operands are only tiled at the
    row-block granularity the softmax dictates.  For short sequences both fit
    on-chip and perform similarly; the multi-tier scheme wins when ``N >> E``.
    """
    hardware = hardware or simulated_edge_device()
    networks = networks or ["BERT-Base", "Llama3-8B", "T5-Mini"]
    tuner = AutoTuner(hardware, budget=search_budget)
    result = AblationResult(
        name="multi-tier vs single-tier tiling",
        headers=[
            "Network",
            "multi-tier cycles",
            "single-tier cycles",
            "speedup (x)",
            "multi-tier footprint (B)",
            "single-tier footprint (B)",
        ],
    )
    speedups = []
    for name in networks:
        config = get_network(name)
        workload = config.workload()
        scheduler = MASAttentionScheduler(hardware)
        tuned = tuner.tune(scheduler, workload).best_tiling
        single = dc_replace(tuned, nkv=workload.seq_kv)
        multi_run = scheduler.simulate(workload, tuned)
        single_run = scheduler.simulate(workload, single)
        speedup = single_run.cycles / multi_run.cycles if multi_run.cycles else 1.0
        speedups.append(speedup)
        result.rows.append(
            [
                config.name,
                multi_run.cycles,
                single_run.cycles,
                speedup,
                scheduler.footprint_bytes(workload, tuned),
                scheduler.footprint_bytes(workload, single),
            ]
        )
    result.summary["mean_speedup"] = sum(speedups) / len(speedups)
    return result


# --------------------------------------------------------------------------- #
# A3: search algorithm comparison
# --------------------------------------------------------------------------- #
def run_search_ablation(
    network: str = "BERT-Base",
    hardware: HardwareConfig | None = None,
    budget: int = 60,
    strategies: list[str] | None = None,
    method: str = "mas",
    seed: int = 0,
) -> AblationResult:
    """Compare search strategies under an equal evaluation budget."""
    hardware = hardware or simulated_edge_device()
    strategies = strategies or list(STRATEGIES)
    for strategy in strategies:
        require(strategy in STRATEGIES, f"unknown strategy {strategy!r}")
    workload = get_network(network).workload()

    result = AblationResult(
        name=f"search algorithm ({method} on {get_network(network).name})",
        headers=["Strategy", "best cycles", "evaluations", "improvement (x)"],
    )
    best_values: dict[str, float] = {}
    for strategy in strategies:
        tuner = AutoTuner(hardware, strategy=strategy, budget=budget, seed=seed)
        scheduler = make_scheduler(method, hardware)
        tuning = tuner.tune(scheduler, workload)
        best_values[strategy] = tuning.best_value
        result.rows.append(
            [strategy, tuning.best_value, tuning.num_evaluations, tuning.improvement_factor]
        )
    best = min(best_values.values())
    for strategy, value in best_values.items():
        result.summary[f"{strategy}_vs_best"] = value / best if best else 1.0
    return result
