"""Monte Carlo Tree Search over tiling factors (Section 4.2).

The paper's MCTS assigns a tiling factor per loop level: "at each step, MCTS
selects a loop and assigns a tiling factor ..., updating constraints and
passing them to the next untiled loop.  Once all tiling factors are
determined, a complete fusion mapping is produced ... which is then
evaluated.  The results of each evaluation are fed back to MCTS to update the
upper confidence bounds (UCB), guiding subsequent searches."

The tree here mirrors that structure: level ``d`` of the tree fixes decision
``d`` of :data:`repro.search.space.DECISIONS` (``bb``, ``hh``, ``nq``,
``nkv``, ``kv_resident``); a leaf is a complete tiling.  Each iteration runs
the classic four MCTS phases — UCB1 selection, expansion, random rollout to a
complete tiling, and reward backpropagation — with the reward defined as the
best-known objective divided by the candidate's objective (so rewards lie in
``(0, 1]`` and improve as cycles shrink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.tiling import TilingConfig
from repro.search.base import SearchAlgorithm
from repro.search.history import SearchHistory
from repro.search.objective import SchedulerObjective
from repro.search.space import DECISIONS, TilingSearchSpace

__all__ = ["MCTSSearch", "MCTSNode"]


@dataclass
class MCTSNode:
    """One node of the search tree: a partial assignment of tiling decisions."""

    depth: int
    choices: dict[str, object] = field(default_factory=dict)
    parent: "MCTSNode | None" = None
    children: dict[object, "MCTSNode"] = field(default_factory=dict)
    visits: int = 0
    total_reward: float = 0.0

    @property
    def is_leaf(self) -> bool:
        """Whether all decisions have been assigned."""
        return self.depth >= len(DECISIONS)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0

    def ucb_score(self, exploration: float) -> float:
        """UCB1 score relative to the parent's visit count."""
        if self.visits == 0:
            return float("inf")
        parent_visits = self.parent.visits if self.parent is not None else self.visits
        return self.mean_reward + exploration * math.sqrt(
            math.log(max(parent_visits, 1)) / self.visits
        )

    def untried_values(self, space: TilingSearchSpace) -> list[object]:
        """Candidate values of the next decision not yet expanded."""
        if self.is_leaf:
            return []
        decision = DECISIONS[self.depth]
        return [v for v in space.candidates(decision) if v not in self.children]


class MCTSSearch(SearchAlgorithm):
    """UCB1 Monte Carlo Tree Search over the tiling-decision tree.

    One leaf rollout runs per iteration.  Its tiling is evaluated as a batch
    of one through :meth:`SchedulerObjective.evaluate_batch`, the pruned path,
    so a candidate whose analytic bound already loses is ranked by that bound
    instead of being simulated.
    """

    name = "mcts"

    def __init__(self, seed: int = 0, exploration: float = 1.2) -> None:
        super().__init__(seed)
        self.exploration = exploration

    # ------------------------------------------------------------------ #
    def _run(
        self,
        objective: SchedulerObjective,
        space: TilingSearchSpace,
        budget: int,
        rng: np.random.Generator,
        history: SearchHistory,
    ) -> None:
        root = MCTSNode(depth=0)
        best_value = float("inf")
        evaluations = 0

        while evaluations < budget:
            node = self._select(root, space)
            node = self._expand(node, space, rng)
            tiling = self._rollout(node, space, rng)
            (evaluation,) = self._evaluate_batch(objective, [tiling], history)
            if evaluation.feasible:
                best_value = min(best_value, evaluation.value)
            self._backpropagate(node, self._reward(evaluation.value, best_value))
            evaluations += 1

    # ------------------------------------------------------------------ #
    # MCTS phases
    # ------------------------------------------------------------------ #
    def _select(self, node: MCTSNode, space: TilingSearchSpace) -> MCTSNode:
        """Descend via UCB1 until a node with untried children (or a leaf) is reached."""
        while not node.is_leaf and not node.untried_values(space) and node.children:
            node = max(node.children.values(), key=lambda c: c.ucb_score(self.exploration))
        return node

    def _expand(
        self, node: MCTSNode, space: TilingSearchSpace, rng: np.random.Generator
    ) -> MCTSNode:
        """Add one unexplored child of ``node`` (no-op at a leaf)."""
        untried = node.untried_values(space)
        if node.is_leaf or not untried:
            return node
        value = untried[int(rng.integers(len(untried)))]
        decision = DECISIONS[node.depth]
        child = MCTSNode(
            depth=node.depth + 1,
            choices={**node.choices, decision: value},
            parent=node,
        )
        node.children[value] = child
        return child

    def _rollout(
        self, node: MCTSNode, space: TilingSearchSpace, rng: np.random.Generator
    ) -> TilingConfig:
        """Complete the partial assignment with uniform random choices."""
        choices = dict(node.choices)
        for decision in DECISIONS[node.depth :]:
            options = space.candidates(decision)
            choices[decision] = options[int(rng.integers(len(options)))]
        return space.make(**choices)

    def _reward(self, value: float, best_value: float) -> float:
        """Reward in (0, 1]: 1 for the best candidate seen so far, less for worse ones."""
        if value == float("inf") or value <= 0:
            return 0.0
        if best_value == float("inf"):
            return 1.0
        return min(1.0, best_value / value)

    def _backpropagate(self, node: MCTSNode | None, reward: float) -> None:
        while node is not None:
            node.visits += 1
            node.total_reward += reward
            node = node.parent
