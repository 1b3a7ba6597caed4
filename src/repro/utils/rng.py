"""Deterministic random-number helpers.

Search algorithms (MCTS, GA, random search) and synthetic workload generators
must be reproducible; all randomness in the library is drawn from generators
created here.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` seeded deterministically.

    Parameters
    ----------
    seed:
        Seed value. ``None`` produces a non-deterministic generator and is
        only intended for exploratory use.
    """
    return np.random.default_rng(seed)
