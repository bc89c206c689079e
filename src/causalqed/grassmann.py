"""The fermionic sign rule for reorderings of Bose/Fermi-graded lists.

Reordering a list of graded variables picks up (-1)**k, where k is the
number of inversions among the fermionic (grade-1) entries; bosonic
entries never contribute.  `inversion_sign` is that rule on positions;
the partition sums of the induction and the normal ordering and
contraction signs of the Wick calculus all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

BOSE = 0
FERMI = 1


class PartitionError(ValueError):
    """A reordering whose source list repeats a variable."""


@dataclass(frozen=True)
class GradedVar:
    id: str
    grade: int  # 0 = bose, 1 = fermi

    def __post_init__(self):
        if self.grade not in (BOSE, FERMI):
            raise ValueError(f"grade must be 0 or 1, got {self.grade!r}")


def inversion_sign(positions: Sequence) -> int:
    """(-1)**(number of pairs i < j with positions[i] > positions[j]).

    `positions` lists where each fermionic entry of the target order
    stood in the source order.
    """
    inv = 0
    for i, p in enumerate(positions):
        for q in positions[i + 1:]:
            if p > q:
                inv += 1
    return -1 if inv % 2 else 1


def reorder_sign(source: Sequence[GradedVar], target: Sequence[GradedVar]) -> int:
    """Sign of the reordering source -> target."""
    pos = {v.id: i for i, v in enumerate(source)}
    if len(pos) != len(source):
        raise PartitionError("duplicate ids in source")
    return inversion_sign([pos[v.id] for v in target if v.grade == FERMI])
