"""Genetic Algorithm over tiling factors and compute ordering (Section 4.2).

In the paper's toolchain the Genetic Algorithm refines the *compute ordering*
of the analysis tree produced from the MCTS tiling factors: it "generates a
population of analysis trees, applies crossover and mutation, and evaluates
each tree using the tiling factors".  In our tiling model the ordering freedom
is captured by the ``kv_resident`` flag (reuse K/V across a head group's
row-blocks versus streaming them per block) together with the relative sizes
of ``nq``/``nkv``; the GA therefore evolves full
:class:`~repro.core.tiling.TilingConfig` individuals with uniform crossover
and single-decision mutation, optionally seeded from an MCTS result.  Its
parameters are the module constants below.
"""

from __future__ import annotations

import numpy as np

from repro.core.tiling import TilingConfig
from repro.search.base import SearchAlgorithm
from repro.search.history import SearchHistory
from repro.search.objective import SchedulerObjective
from repro.search.space import TilingSearchSpace

__all__ = ["GeneticSearch", "POPULATION_SIZE", "TOURNAMENT_SIZE", "MUTATION_RATE", "ELITISM"]

# The GA's parameters.  Stored tunings are keyed without them, so changing
# one changes stored tunings: bump the cache's ``KEY_SCHEMA_VERSION`` with it.

#: Individuals per generation (the initial population included).
POPULATION_SIZE = 16
#: Random contenders per tournament; the fittest becomes a parent.
TOURNAMENT_SIZE = 3
#: Chance that a child is mutated after crossover.
MUTATION_RATE = 0.3
#: Fittest individuals carried unchanged into the next generation.
ELITISM = 2


class GeneticSearch(SearchAlgorithm):
    """Tournament-selection GA with uniform crossover and point mutation.

    Each generation (and the initial population) is evaluated as one batch
    through :meth:`SchedulerObjective.evaluate_batch`.  Evaluation budgets
    smaller than a full generation truncate the batch — never overshoot —
    and the unevaluated remainder is dropped from selection entirely.
    """

    name = "ga"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: Optional individuals injected into the initial population (e.g. the
        #: MCTS best tiling when the GA runs as a refinement stage).
        self.seeds: list[TilingConfig] = []

    # ------------------------------------------------------------------ #
    def _run(
        self,
        objective: SchedulerObjective,
        space: TilingSearchSpace,
        budget: int,
        rng: np.random.Generator,
        history: SearchHistory,
    ) -> None:
        evaluations = 0

        def evaluate_population(tilings: list[TilingConfig]) -> list[float]:
            """Evaluate the budget's worth of ``tilings`` as one batch.

            Individuals past the budget cut-off are *not* evaluated and get no
            fitness at all; callers truncate the population to the returned
            length so an unevaluated individual can never be ranked as an
            elite or win a tournament on a placeholder fitness.
            """
            nonlocal evaluations
            batch = tilings[: budget - evaluations]
            results = self._evaluate_batch(objective, batch, history)
            evaluations += len(batch)
            return [evaluation.value for evaluation in results]

        # -------- initial population: seeds + default + random samples ---- #
        population: list[TilingConfig] = list(self.seeds[:POPULATION_SIZE])
        if len(population) < POPULATION_SIZE:
            population.append(space.default())
        while len(population) < POPULATION_SIZE:
            population.append(space.sample(rng))
        fitness = evaluate_population(population)
        population = population[: len(fitness)]

        # -------------------------- generations --------------------------- #
        while evaluations < budget:
            ranked = sorted(range(len(population)), key=lambda i: fitness[i])
            next_population = [population[i] for i in ranked[:ELITISM]]
            while len(next_population) < POPULATION_SIZE:
                parent_a = self._tournament(population, fitness, rng)
                parent_b = self._tournament(population, fitness, rng)
                child = space.crossover(parent_a, parent_b, rng)
                if rng.random() < MUTATION_RATE:
                    child = space.mutate(child, rng)
                next_population.append(child)
            fitness = evaluate_population(next_population)
            population = next_population[: len(fitness)]

    def _tournament(
        self,
        population: list[TilingConfig],
        fitness: list[float],
        rng: np.random.Generator,
    ) -> TilingConfig:
        """Pick the fittest of :data:`TOURNAMENT_SIZE` random individuals."""
        contenders = rng.integers(0, len(population), size=TOURNAMENT_SIZE)
        winner = min(contenders, key=lambda i: fitness[int(i)])
        return population[int(winner)]
