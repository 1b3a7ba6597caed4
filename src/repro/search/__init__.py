"""Offline tiling search (Section 4.2 and Section 5.5).

The paper tunes the tiling factors of every dataflow offline: Monte Carlo Tree
Search proposes tiling factors, a Genetic Algorithm refines the compute
ordering, and each candidate is evaluated with the analytical simulator
(Timeloop/Accelergy in the paper, :mod:`repro.sim` here).  On the DaVinci NPU
the structured memory model allows plain grid search.  This package implements
those searchers over the :class:`~repro.core.tiling.TilingConfig` space:

* :mod:`repro.search.space` — the candidate tiling factors per workload/device;
* :mod:`repro.search.objective` — candidate evaluation (simulated cycles, the
  paper's objective) with feasibility handling and caching;
* :mod:`repro.search.history` — per-iteration search records (Figure 7);
* :mod:`repro.search.grid`, :mod:`repro.search.random_search`,
  :mod:`repro.search.mcts`, :mod:`repro.search.genetic` — the algorithms;
* :mod:`repro.search.autotuner` — the facade the experiments use
  (``mcts+ga`` on the simulated device, ``grid`` on the DaVinci-like preset).
"""

from repro.search.space import TilingSearchSpace
from repro.search.objective import SchedulerObjective, TilingEvaluation
from repro.search.history import SearchHistory, SearchRecord
from repro.search.base import SearchAlgorithm
from repro.search.grid import GridSearch
from repro.search.random_search import RandomSearch
from repro.search.mcts import MCTSSearch
from repro.search.genetic import GeneticSearch
from repro.search.autotuner import AutoTuner, TuningResult

__all__ = [
    "TilingSearchSpace",
    "SchedulerObjective",
    "TilingEvaluation",
    "SearchHistory",
    "SearchRecord",
    "SearchAlgorithm",
    "GridSearch",
    "RandomSearch",
    "MCTSSearch",
    "GeneticSearch",
    "AutoTuner",
    "TuningResult",
]
