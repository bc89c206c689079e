import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalqed.grassmann import (BOSE, FERMI, GradedVar, PartitionError,
                                 reorder_sign)


def brute_sign(source, target):
    """Oracle: bubble the source into the target by adjacent swaps,
    flipping the sign whenever two fermionic entries cross."""
    work = list(source)
    sign = 1
    for pos, want in enumerate(target):
        i = next(k for k in range(pos, len(work)) if work[k].id == want.id)
        while i > pos:
            if work[i].grade == FERMI and work[i - 1].grade == FERMI:
                sign = -sign
            work[i - 1], work[i] = work[i], work[i - 1]
            i -= 1
    return sign


def test_identity_reorder():
    vs = [GradedVar("a", FERMI), GradedVar("b", BOSE), GradedVar("c", FERMI)]
    assert reorder_sign(vs, vs) == 1


def test_fermi_swap_is_odd():
    a, b = GradedVar("a", FERMI), GradedVar("b", FERMI)
    assert reorder_sign([a, b], [b, a]) == -1


def test_bose_swap_is_even():
    a, b = GradedVar("a", BOSE), GradedVar("b", FERMI)
    assert reorder_sign([a, b], [b, a]) == 1


def test_reorder_sign_matches_bubble_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        grades = rng.integers(0, 2, size=n)
        source = [GradedVar(f"v{i}", int(g)) for i, g in enumerate(grades)]
        target = list(source)
        rng.shuffle(target)
        assert reorder_sign(source, target) == brute_sign(source, target)


@st.composite
def _graded_reorderings(draw):
    grades = draw(st.lists(st.sampled_from([BOSE, FERMI]), min_size=1, max_size=9))
    source = [GradedVar(f"v{i}", g) for i, g in enumerate(grades)]
    return source, draw(st.permutations(source))


@settings(max_examples=300, deadline=None, database=None)
@given(_graded_reorderings())
def test_reorder_sign_is_the_parity_of_fermionic_transpositions(case):
    source, target = case
    assert reorder_sign(source, target) == brute_sign(source, target)


def test_reorder_sign_is_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        source = [GradedVar(f"v{i}", int(g)) for i, g in
                  enumerate(rng.integers(0, 2, size=n))]
        mid = list(source)
        rng.shuffle(mid)
        tgt = list(source)
        rng.shuffle(tgt)
        assert (reorder_sign(source, tgt)
                == reorder_sign(source, mid) * reorder_sign(mid, tgt))


def test_all_permutations_of_four_fermis():
    vs = [GradedVar(f"f{i}", FERMI) for i in range(4)]
    for perm in itertools.permutations(vs):
        assert reorder_sign(vs, perm) == brute_sign(vs, list(perm))


def test_bad_grade_rejected():
    with pytest.raises(ValueError):
        GradedVar("x", 2)
    a = GradedVar("a", FERMI)
    with pytest.raises(PartitionError):
        reorder_sign([a, a], [a, a])
