"""Experiment harnesses for every table and figure of the paper.

Each module reproduces one artefact of the evaluation section:

==============================  ==============================================
Module                          Paper artefact
==============================  ==============================================
:mod:`repro.analysis.table2`    Table 2 — cycles and speedups (simulated edge)
:mod:`repro.analysis.table3`    Table 3 — energy and savings
:mod:`repro.analysis.figure5`   Figure 5 — normalized execution time on the
                                DaVinci-like NPU (grid-searched tilings)
:mod:`repro.analysis.figure6`   Figure 6 — energy breakdown by component
:mod:`repro.analysis.figure7`   Figure 7 — search convergence, plus the
                                Section 5.5 tuning-gain numbers
:mod:`repro.analysis.dram`      Section 5.4 — DRAM read/write analysis
:mod:`repro.analysis.limits`    Section 5.6 — maximum sequence length limits
:mod:`repro.analysis.sd_unet`   Section 5.2.2 — Stable Diffusion 1.5 UNet
:mod:`repro.analysis.ablations` Design-choice ablations (overwrite strategy,
                                multi-tier tiling, search algorithm)
==============================  ==============================================

All harnesses are driven by :class:`repro.exec.ExperimentRunner`,
which owns the hardware preset, the tiling auto-tuner and a cache of tuned
simulation results so the tables and figures that share runs (Table 2,
Table 3, Figure 6, Figure 7) only pay for the search once.
"""

from repro.analysis.metrics import (
    energy_savings_pct,
    geometric_mean,
    normalize_to,
    speedup,
)
from repro.exec import ExperimentRunner, MethodRun
from repro.analysis.report import format_table
from repro.analysis.table2 import Table2Result, run_table2
from repro.analysis.table3 import Table3Result, run_table3
from repro.analysis.figure5 import Figure5Result, run_figure5
from repro.analysis.figure6 import Figure6Result, run_figure6
from repro.analysis.figure7 import Figure7Result, run_figure7
from repro.analysis.dram import DramAnalysisResult, run_dram_analysis
from repro.analysis.limits import SequenceLimitResult, run_limits
from repro.analysis.sd_unet import SDUNetResult, run_sd_unet
from repro.analysis.ablations import (
    AblationResult,
    run_overwrite_ablation,
    run_search_ablation,
    run_tiling_ablation,
)
from repro.analysis.timeline import TimelineOptions, render_comparison, render_timeline
from repro.analysis.sensitivity import SensitivityResult, run_sensitivity

__all__ = [
    "speedup",
    "energy_savings_pct",
    "geometric_mean",
    "normalize_to",
    "ExperimentRunner",
    "MethodRun",
    "format_table",
    "Table2Result",
    "run_table2",
    "Table3Result",
    "run_table3",
    "Figure5Result",
    "run_figure5",
    "Figure6Result",
    "run_figure6",
    "Figure7Result",
    "run_figure7",
    "DramAnalysisResult",
    "run_dram_analysis",
    "SequenceLimitResult",
    "run_limits",
    "SDUNetResult",
    "run_sd_unet",
    "AblationResult",
    "run_overwrite_ablation",
    "run_tiling_ablation",
    "run_search_ablation",
    "TimelineOptions",
    "render_timeline",
    "render_comparison",
    "SensitivityResult",
    "run_sensitivity",
]
