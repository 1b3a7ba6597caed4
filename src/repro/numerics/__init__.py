"""Reference attention and the golden-data check.

The paper validates every dataflow (including MAS-Attention) against golden
data: the scheduling only changes *when* tiles are computed, never *what* is
computed, so the output must match the unfused reference up to
floating-point accumulation order.  The check runs the very task graphs the
simulator times.  This package provides

* :mod:`repro.numerics.reference` — the unfused NumPy reference attention and
  the softmax variants (naive, max-stabilized, online/running);
* :mod:`repro.numerics.replay` — the replay loop that runs a scheduler's
  simulated task graph, task by task in start order, on numpy tiles and
  raises when a task reads a tile before its producer finished;
* :mod:`repro.numerics.golden` — the golden-data check harness that generates
  random Q/K/V for a workload and checks every scheduler's replay against the
  reference.
"""

from repro.numerics.reference import (
    naive_softmax,
    online_softmax,
    reference_attention,
    stable_softmax,
)
from repro.numerics.replay import ReplayError, replay
from repro.numerics.golden import (
    GoldenCheckResult,
    golden_check,
    make_qkv,
)

__all__ = [
    "naive_softmax",
    "stable_softmax",
    "online_softmax",
    "reference_attention",
    "ReplayError",
    "replay",
    "GoldenCheckResult",
    "golden_check",
    "make_qkv",
]
