"""Stream-processing round structure (Section 4.1, Algorithm 1).

MAS-Attention schedules two streams of tiled work — MatMuls on the MAC unit
and softmaxes on the VEC unit — as a semi-synchronous pipeline over the
row-blocks ``i = 1..Tr``:

* **warm-up**: ``C_1`` alone, then ``C_2`` in parallel with ``P_1``;
* **regular** round ``i`` (``3 <= i <= Tr``): the MAC computes ``O_{i-2}`` and
  then ``C_i`` while the VEC computes ``P_{i-1}``;
* **finalize**: ``O_{Tr-1}`` in parallel with ``P_{Tr}``, then ``O_{Tr}``.

:func:`plan_rounds` is the one encoding of that structure.  The MAS-Attention
and TileFlow graph builders emit their cores round by round from it; the task
graphs add the fine-grained tile dependencies of Algorithms 2-4 (and, for
TileFlow, a barrier after each round).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from enum import Enum

from repro.utils.validation import check_positive_int


class RoundKind(str, Enum):
    """Phase of the stream-processing pipeline a round belongs to."""

    WARMUP = "warmup"
    REGULAR = "regular"
    FINALIZE = "finalize"


class OpKind(str, Enum):
    """The three tiled operators of the attention mechanism."""

    QK = "QK"          # C_i = Q_i K^T        (MAC stream)
    SOFTMAX = "SM"     # P_i = softmax(C_i)   (VEC stream)
    PV = "PV"          # O_i = P_i V          (MAC stream)


@dataclass(frozen=True)
class StreamOp:
    """One tiled operator instance: operator kind plus its 1-based block index."""

    kind: OpKind
    block: int

    def __str__(self) -> str:
        return f"{self.kind.value}{self.block}"


@dataclass(frozen=True)
class StreamRound:
    """One computation round: what the MAC and VEC units execute concurrently."""

    index: int
    kind: RoundKind
    mac_ops: tuple[StreamOp, ...] = ()
    vec_ops: tuple[StreamOp, ...] = ()

    def op_blocks(self) -> dict[OpKind, int]:
        """The 0-based index of the block each operator of this round works on."""
        return {op.kind: op.block - 1 for op in self.mac_ops + self.vec_ops}

    def describe(self) -> str:
        mac = ", ".join(str(op) for op in self.mac_ops) or "-"
        vec = ", ".join(str(op) for op in self.vec_ops) or "-"
        return f"round {self.index} [{self.kind.value}] MAC: {mac} | VEC: {vec}"


def plan_rounds(num_blocks: int) -> list[StreamRound]:
    """Plan the warm-up / regular / finalize rounds of Algorithm 1 for ``Tr`` blocks.

    The returned rounds satisfy the invariants checked by the test-suite:
    every ``QK``/``SM``/``PV`` appears exactly once per block, ``SM_i`` never
    appears before the round after ``QK_i``, and ``PV_i`` never appears before
    the round after ``SM_i``.
    """
    check_positive_int(num_blocks, "num_blocks")
    return list(_planned_rounds(num_blocks))


@lru_cache(maxsize=256)
def _planned_rounds(num_blocks: int) -> tuple[StreamRound, ...]:
    """:func:`plan_rounds`, made once per block count (every build of a
    search asks for the same few)."""
    rounds: list[StreamRound] = []

    def add(kind: RoundKind, mac: list[StreamOp], vec: list[StreamOp]) -> None:
        rounds.append(
            StreamRound(index=len(rounds), kind=kind, mac_ops=tuple(mac), vec_ops=tuple(vec))
        )

    t = num_blocks
    add(RoundKind.WARMUP, [StreamOp(OpKind.QK, 1)], [])
    if t == 1:
        add(RoundKind.FINALIZE, [], [StreamOp(OpKind.SOFTMAX, 1)])
        add(RoundKind.FINALIZE, [StreamOp(OpKind.PV, 1)], [])
        return tuple(rounds)

    add(RoundKind.WARMUP, [StreamOp(OpKind.QK, 2)], [StreamOp(OpKind.SOFTMAX, 1)])
    for i in range(3, t + 1):
        add(
            RoundKind.REGULAR,
            [StreamOp(OpKind.PV, i - 2), StreamOp(OpKind.QK, i)],
            [StreamOp(OpKind.SOFTMAX, i - 1)],
        )
    add(
        RoundKind.FINALIZE,
        [StreamOp(OpKind.PV, t - 1)],
        [StreamOp(OpKind.SOFTMAX, t)],
    )
    add(RoundKind.FINALIZE, [StreamOp(OpKind.PV, t)], [])
    return tuple(rounds)

