"""The fermionic sign rule for reorderings of Bose/Fermi-graded lists.

Reordering a list of graded entries picks up (-1)**k, where k is the
number of inversions among the fermionic (grade-1) entries; bosonic
entries never contribute.  `inversion_sign` is that rule on positions;
the normal ordering and contraction signs of the Wick calculus go
through it.  The partition sums of the induction need no sign rule: their
vertices and switching functions are bosonic.
"""

from __future__ import annotations

from typing import Sequence

FERMI = 1


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
