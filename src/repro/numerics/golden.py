"""Golden-data check: replay every scheduler's task graph against the reference.

The paper states that every workload "undergoes a rigorous golden data check
for all methods"; this module is that check.  It generates random Q/K/V
tensors for an :class:`~repro.workloads.attention.AttentionWorkload`, runs the
reference attention, replays every registered scheduler's simulated task
graph on the same tensors (:func:`repro.numerics.replay.replay`), and reports
the maximum element-wise error per scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tiling import TilingConfig
from repro.hardware.presets import simulated_edge_device
from repro.numerics.reference import reference_attention
from repro.numerics.replay import replay
from repro.schedulers.registry import list_schedulers, make_scheduler
from repro.utils.rng import make_rng
from repro.workloads.attention import AttentionWorkload

__all__ = ["GoldenCheckResult", "golden_check", "make_qkv"]


def make_qkv(
    workload: AttentionWorkload,
    seed: int = 0,
    dtype: np.dtype | type = np.float32,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random Q/K/V tensors with the workload's ``(B, H, N, E)`` shapes."""
    rng = make_rng(seed)
    q_shape = (workload.batch, workload.heads, workload.seq_q, workload.emb)
    kv_shape = (workload.batch, workload.heads, workload.seq_kv, workload.emb)
    q = (scale * rng.standard_normal(q_shape)).astype(dtype)
    k = (scale * rng.standard_normal(kv_shape)).astype(dtype)
    v = (scale * rng.standard_normal(kv_shape)).astype(dtype)
    return q, k, v


@dataclass
class GoldenCheckResult:
    """Outcome of one golden-data check run."""

    workload: AttentionWorkload
    tiling: TilingConfig
    tolerance: float
    max_errors: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every scheduler's replay matched the reference within tolerance."""
        return all(err <= self.tolerance for err in self.max_errors.values())

    def failures(self) -> dict[str, float]:
        """Schedulers whose replay error exceeded the tolerance."""
        return {name: err for name, err in self.max_errors.items() if err > self.tolerance}

    def summary(self) -> str:
        """One-line textual summary."""
        status = "PASS" if self.passed else "FAIL"
        worst = max(self.max_errors.values()) if self.max_errors else 0.0
        return (
            f"golden check [{status}] {self.workload.describe()} "
            f"tiling={self.tiling.as_dict()} worst_err={worst:.3e} tol={self.tolerance:.1e}"
        )


def golden_check(
    workload: AttentionWorkload,
    tiling: TilingConfig | None = None,
    seed: int = 0,
    tolerance: float = 1e-4,
    dtype: np.dtype | type = np.float32,
) -> GoldenCheckResult:
    """Replay every registered scheduler's graph for ``workload`` under ``tiling``.

    Parameters
    ----------
    workload:
        Attention shape to validate.  The replay runs one numpy operation per
        task, so tests use reduced shapes with the Table-1 structure.
    tiling:
        Tiling every scheduler builds its graph with, on the simulated edge
        device; defaults to ``nq=nkv=64`` clamped to the workload.
    tolerance:
        Maximum allowed element-wise absolute error against the reference.

    A graph that reads a tile before its producer finishes raises
    :class:`~repro.numerics.replay.ReplayError`.
    """
    tiling = (tiling or TilingConfig()).clamp_to(workload)
    q, k, v = make_qkv(workload, seed=seed, dtype=dtype)
    reference = reference_attention(q, k, v)
    hardware = simulated_edge_device()
    result = GoldenCheckResult(workload=workload, tiling=tiling, tolerance=tolerance)
    for name in list_schedulers():
        output = replay(make_scheduler(name, hardware), workload, tiling, q, k, v)
        result.max_errors[name] = float(np.max(np.abs(output - reference)))
    return result
