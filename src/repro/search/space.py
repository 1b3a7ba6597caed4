"""Tiling search space for one workload on one device.

The multi-tiered tiling scheme exposes five decisions per workload: the batch
tile ``bb``, the head tile ``hh``, the query row-block ``nq`` (softmax
granularity), the key/value sub-matrix tile ``nkv`` (MatMul granularity), and
the compute-ordering flag ``kv_resident`` (keep K/V resident across a head
group's row-blocks or stream them per block).  The space enumerates sensible
candidates per decision — powers of two aligned with the PE-array shape plus
the full dimension — which mirrors the loop-tiling factor choices the paper's
MCTS assigns level by level.

A space is defined by its workload and device alone: a row block is never
shorter than the MAC array height (or ``seq_q``), a K/V tile never narrower
than its width (or ``seq_kv``), and ``nq`` and ``nkv`` keep at most
:data:`MAX_CANDIDATES_PER_DIM` candidates each.  So the search's grid and
the grid :class:`~repro.search.objective.SchedulerObjective` bounds in one
call are the same by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from repro.core.tiling import TilingConfig
from repro.hardware.config import HardwareConfig
from repro.utils.validation import check_positive_int
from repro.workloads.attention import AttentionWorkload

__all__ = ["TilingSearchSpace", "MAX_CANDIDATES_PER_DIM"]

#: Order in which decisions are made by tree-structured searchers (MCTS).
DECISIONS: tuple[str, ...] = ("bb", "hh", "nq", "nkv", "kv_resident")

#: Cap on the ``nq`` and ``nkv`` candidates (keeps grid search tractable on
#: long sequences).  Stored tunings are keyed without it, so changing it
#: changes stored tunings: bump the cache's ``KEY_SCHEMA_VERSION`` with it.
MAX_CANDIDATES_PER_DIM = 12


def _pow2_candidates(limit: int, minimum: int = 1) -> list[int]:
    """Powers of two up to ``limit`` plus ``limit`` itself, ascending."""
    check_positive_int(limit, "limit")
    values = []
    v = minimum
    while v < limit:
        values.append(v)
        v *= 2
    values.append(limit)
    return sorted(set(values))


@dataclass(frozen=True)
class TilingSearchSpace:
    """Candidate tiling factors for one ``(workload, hardware)`` pair."""

    workload: AttentionWorkload
    hardware: HardwareConfig
    _candidates: dict[str, tuple] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        # A row block never underfills the PE array's height.
        row_floor = min(self.hardware.mac.rows, self.workload.seq_q)
        nq_values = [v for v in _pow2_candidates(self.workload.seq_q) if v >= row_floor]
        nkv_values = [
            v
            for v in _pow2_candidates(self.workload.seq_kv)
            if v >= min(self.hardware.mac.cols, self.workload.seq_kv)
        ]
        # The row/column tile candidates are ordered coarse-to-fine: under a
        # small budget, grid search then visits the large (cheap-to-simulate
        # and usually near-optimal) tilings first, mirroring how a human would
        # prune the space on the structured DaVinci memory model.
        candidates = {
            "bb": tuple(_pow2_candidates(self.workload.batch)),
            "hh": tuple(_pow2_candidates(self.workload.heads)),
            "nq": tuple(reversed(self._cap(nq_values))),
            "nkv": tuple(reversed(self._cap(nkv_values))),
            "kv_resident": (True, False),
        }
        object.__setattr__(self, "_candidates", candidates)

    def _cap(self, values: Sequence[int]) -> list[int]:
        values = sorted(set(values))
        if len(values) <= MAX_CANDIDATES_PER_DIM:
            return list(values)
        # Keep the extremes and evenly thin the middle.
        idx = np.linspace(0, len(values) - 1, MAX_CANDIDATES_PER_DIM).round().astype(int)
        return [values[i] for i in sorted(set(idx.tolist()))]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def candidates(self, decision: str) -> tuple:
        """Candidate values of one decision (``bb``/``hh``/``nq``/``nkv``/``kv_resident``)."""
        if decision not in self._candidates:
            raise KeyError(f"unknown decision {decision!r}; expected one of {DECISIONS}")
        return self._candidates[decision]

    @property
    def decisions(self) -> tuple[str, ...]:
        """Decision names in tree order."""
        return DECISIONS

    @property
    def size(self) -> int:
        """Number of points in the full cartesian space."""
        n = 1
        for decision in DECISIONS:
            n *= len(self._candidates[decision])
        return n

    # ------------------------------------------------------------------ #
    # Point constructors
    # ------------------------------------------------------------------ #
    def make(self, **choices) -> TilingConfig:
        """Build a :class:`TilingConfig` from per-decision choices (validated)."""
        for decision, value in choices.items():
            if value not in self.candidates(decision):
                raise ValueError(
                    f"{decision}={value!r} is not a candidate; options: {self.candidates(decision)}"
                )
        return TilingConfig(
            bb=choices.get("bb", 1),
            hh=choices.get("hh", 1),
            nq=choices.get("nq", self.candidates("nq")[0]),
            nkv=choices.get("nkv", self.candidates("nkv")[0]),
            kv_resident=choices.get("kv_resident", False),
        ).clamp_to(self.workload)

    def enumerate(self) -> Iterator[TilingConfig]:
        """Every point of the cartesian space (grid-search order)."""
        dims = [self._candidates[d] for d in DECISIONS]
        for values in product(*dims):
            yield self.make(**dict(zip(DECISIONS, values)))

    def sample(self, rng: np.random.Generator) -> TilingConfig:
        """Uniform random point of the space."""
        choices = {d: self._candidates[d][rng.integers(len(self._candidates[d]))] for d in DECISIONS}
        return self.make(**choices)

    def default(self) -> TilingConfig:
        """A mid-of-the-road starting point (PE-array-aligned factors)."""
        nq = min(self.workload.seq_q, 4 * self.hardware.mac.rows)
        nkv = min(self.workload.seq_kv, 4 * self.hardware.mac.cols)
        nq = max(v for v in self.candidates("nq") if v <= nq)
        nkv = max(v for v in self.candidates("nkv") if v <= nkv)
        return self.make(bb=1, hh=1, nq=nq, nkv=nkv, kv_resident=False)

    # ------------------------------------------------------------------ #
    # Local moves (used by GA mutation and neighbourhood exploration)
    # ------------------------------------------------------------------ #
    def mutate(self, tiling: TilingConfig, rng: np.random.Generator) -> TilingConfig:
        """Perturb one decision of ``tiling`` to a neighbouring candidate."""
        decision = DECISIONS[rng.integers(len(DECISIONS))]
        options = self.candidates(decision)
        current = getattr(tiling, decision)
        if len(options) == 1:
            return tiling
        if decision == "kv_resident":
            new_value = not current
        else:
            try:
                pos = options.index(current)
            except ValueError:
                pos = int(rng.integers(len(options)))
            step = int(rng.choice([-1, 1]))
            pos = min(len(options) - 1, max(0, pos + step))
            new_value = options[pos]
            if new_value == current:
                new_value = options[int(rng.integers(len(options)))]
        choices = {d: getattr(tiling, d) for d in DECISIONS}
        choices[decision] = new_value
        return self.make(**{d: self._snap(d, v) for d, v in choices.items()})

    def crossover(
        self, a: TilingConfig, b: TilingConfig, rng: np.random.Generator
    ) -> TilingConfig:
        """Uniform crossover of two tilings, snapped back onto the candidate grid."""
        choices = {}
        for decision in DECISIONS:
            parent = a if rng.random() < 0.5 else b
            choices[decision] = self._snap(decision, getattr(parent, decision))
        return self.make(**choices)

    def _snap(self, decision: str, value):
        """Snap an arbitrary value onto the nearest candidate of ``decision``."""
        options = self.candidates(decision)
        if value in options:
            return value
        if decision == "kv_resident":
            return bool(value)
        return min(options, key=lambda option: abs(option - value))
