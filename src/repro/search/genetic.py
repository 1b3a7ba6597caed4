"""Genetic Algorithm over tiling factors and compute ordering (Section 4.2).

In the paper's toolchain the Genetic Algorithm refines the *compute ordering*
of the analysis tree produced from the MCTS tiling factors: it "generates a
population of analysis trees, applies crossover and mutation, and evaluates
each tree using the tiling factors".  In our tiling model the ordering freedom
is captured by the ``kv_resident`` flag (reuse K/V across a head group's
row-blocks versus streaming them per block) together with the relative sizes
of ``nq``/``nkv``; the GA therefore evolves full
:class:`~repro.core.tiling.TilingConfig` individuals with uniform crossover
and single-decision mutation, optionally seeded from an MCTS result.
"""

from __future__ import annotations

import numpy as np

from repro.core.tiling import TilingConfig
from repro.search.base import SearchAlgorithm
from repro.search.history import SearchHistory
from repro.search.objective import SchedulerObjective
from repro.search.space import TilingSearchSpace
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["GeneticSearch"]


class GeneticSearch(SearchAlgorithm):
    """Tournament-selection GA with uniform crossover and point mutation.

    Each generation (and the initial population) is evaluated as one batch
    through :meth:`SchedulerObjective.evaluate_batch`.  Evaluation budgets
    smaller than a full generation truncate the batch — never overshoot —
    and the unevaluated remainder is dropped from selection entirely.
    """

    name = "ga"

    def __init__(
        self,
        seed: int = 0,
        population_size: int = 16,
        tournament_size: int = 3,
        mutation_rate: float = 0.3,
        elitism: int = 2,
    ) -> None:
        super().__init__(seed)
        check_positive_int(population_size, "population_size")
        check_positive_int(tournament_size, "tournament_size")
        check_probability(mutation_rate, "mutation_rate")
        if elitism < 0 or elitism > population_size:
            raise ValueError(f"elitism must lie in [0, population_size], got {elitism}")
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.mutation_rate = mutation_rate
        self.elitism = elitism
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
        population: list[TilingConfig] = list(self.seeds[: self.population_size])
        if len(population) < self.population_size:
            population.append(space.default())
        while len(population) < self.population_size:
            population.append(space.sample(rng))
        fitness = evaluate_population(population)
        population = population[: len(fitness)]

        # -------------------------- generations --------------------------- #
        while evaluations < budget:
            ranked = sorted(range(len(population)), key=lambda i: fitness[i])
            next_population = [population[i] for i in ranked[: self.elitism]]
            while len(next_population) < self.population_size:
                parent_a = self._tournament(population, fitness, rng)
                parent_b = self._tournament(population, fitness, rng)
                child = space.crossover(parent_a, parent_b, rng)
                if rng.random() < self.mutation_rate:
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
        """Pick the fittest of ``tournament_size`` random individuals."""
        contenders = rng.integers(0, len(population), size=self.tournament_size)
        winner = min(contenders, key=lambda i: fitness[int(i)])
        return population[int(winner)]
