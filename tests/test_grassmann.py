import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalqed.grassmann import FERMI, inversion_sign

BOSE = 0


def brute_sign(grades, perm):
    """Oracle: bubble the source order into the target order (target entry
    k is source entry perm[k]) by adjacent swaps, flipping the sign
    whenever two fermionic entries cross."""
    work = list(range(len(grades)))
    sign = 1
    for pos, want in enumerate(perm):
        i = work.index(want)
        while i > pos:
            if grades[work[i]] == FERMI and grades[work[i - 1]] == FERMI:
                sign = -sign
            work[i - 1], work[i] = work[i], work[i - 1]
            i -= 1
    return sign


def fermi_positions(grades, perm):
    """Where each fermionic entry of the target order stood in the source."""
    return [p for p in perm if grades[p] == FERMI]


def reorder_sign(grades, perm):
    return inversion_sign(fermi_positions(grades, perm))


def test_identity_reorder():
    assert reorder_sign([FERMI, BOSE, FERMI], [0, 1, 2]) == 1


def test_fermi_swap_is_odd():
    assert reorder_sign([FERMI, FERMI], [1, 0]) == -1


def test_bose_swap_is_even():
    assert reorder_sign([BOSE, FERMI], [1, 0]) == 1


def test_reorder_sign_matches_bubble_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        grades = [int(g) for g in rng.integers(0, 2, size=n)]
        perm = [int(p) for p in rng.permutation(n)]
        assert reorder_sign(grades, perm) == brute_sign(grades, perm)


@st.composite
def _graded_reorderings(draw):
    grades = draw(st.lists(st.sampled_from([BOSE, FERMI]), min_size=1, max_size=9))
    return grades, draw(st.permutations(range(len(grades))))


@settings(max_examples=300, deadline=None, database=None)
@given(_graded_reorderings())
def test_reorder_sign_is_the_parity_of_fermionic_transpositions(case):
    grades, perm = case
    assert reorder_sign(grades, perm) == brute_sign(grades, perm)


def test_reorder_sign_is_multiplicative():
    # source -> mid -> target: mid entry k is source entry m[k], target
    # entry k is source entry t[k] and mid entry q[k]
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        grades = [int(g) for g in rng.integers(0, 2, size=n)]
        m, t = list(rng.permutation(n)), list(rng.permutation(n))
        q = [m.index(p) for p in t]
        assert (reorder_sign(grades, t)
                == reorder_sign(grades, m) * reorder_sign([grades[p] for p in m], q))


def test_all_permutations_of_four_fermis():
    grades = [FERMI] * 4
    for perm in itertools.permutations(range(4)):
        assert inversion_sign(list(perm)) == brute_sign(grades, perm)
