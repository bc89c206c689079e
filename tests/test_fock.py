import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalqed.fock import (BOSE, FERMI, DiscreteKernel, FockGridState,
                            GridPoint, MomentumGrid, TruncationError,
                            _basis_configs, apply_annihilation, apply_creation,
                            apply_kernel, commutator_check,
                            grid_inner, uniform_grid,
                            vacuum_state, xi_matrix_element)


def test_creation_matrix_elements_bose():
    grid = uniform_grid(3, statistic=BOSE)
    w = grid.weights[1]
    st = vacuum_state(grid, cutoff=4)
    st = apply_creation(1, st)
    st = apply_creation(1, st)
    # a+ a+ |0> = sqrt(1) sqrt(2) / w |0,2,0>
    amp = st.amplitudes[(0, 2, 0)]
    assert amp == pytest.approx(np.sqrt(2.0) / w)


def test_annihilation_inverts_creation():
    grid = uniform_grid(3, statistic=BOSE)
    st = vacuum_state(grid, cutoff=3)
    up = apply_creation(2, st)
    back = apply_annihilation(2, up)
    # a a+ |0> = (1/w) |0>
    assert back.amplitudes[(0, 0, 0)] == pytest.approx(1.0 / grid.weights[2])


def test_truncation_error():
    grid = uniform_grid(2, statistic=BOSE)
    st = apply_creation(0, apply_creation(0, vacuum_state(grid, cutoff=2)))
    with pytest.raises(TruncationError):
        apply_creation(0, st)
    for l, m in ((1, 0), (2, 1)):  # a kernel that creates past the cutoff
        kernel = DiscreteKernel(l, m, np.ones((2,) * (l + m)))
        with pytest.raises(TruncationError):
            apply_kernel(kernel, st)


def test_pauli_exclusion():
    grid = uniform_grid(2, statistic=FERMI)
    st = vacuum_state(grid, cutoff=3)
    double = apply_creation(0, apply_creation(0, st))
    assert double.amplitudes == {}


def test_fermi_anticommutation_of_creations():
    grid = uniform_grid(3, statistic=FERMI)
    st = vacuum_state(grid, cutoff=3)
    ab = apply_creation(0, apply_creation(2, st))
    ba = apply_creation(2, apply_creation(0, st))
    assert ab.amplitudes and ba.amplitudes == {c: -a for c, a in ab.amplitudes.items()}


def test_commutator_check_small_grids():
    for stat in (BOSE, FERMI):
        dev = commutator_check(uniform_grid(4, statistic=stat), cutoff=3)
        assert dev <= 1e-12
    with pytest.raises(ValueError):  # an empty check would report 0.0
        commutator_check(uniform_grid(2), cutoff=0)


def test_grid_inner_and_krein():
    grid = uniform_grid(2, statistic=BOSE, krein=[1.0, -1.0])
    st = apply_creation(1, vacuum_state(grid, cutoff=2))
    plain = grid_inner(st, st)
    indefinite = grid_inner(st, st, krein=True)
    assert plain.real > 0
    assert indefinite == pytest.approx(-plain)


def test_xi_matrix_element_of_one_mode_pair_equals_explicit_ladder_route():
    # a kernel that picks out (p, q) = (1, 2) and cancels their weights
    # gives eta(1, 2) = <Phi, a+(1) a(2) Psi>
    grid = uniform_grid(3, statistic=BOSE)
    cutoff = 3
    phi = apply_creation(1, apply_creation(1, vacuum_state(grid, cutoff)))
    psi = apply_creation(1, apply_creation(2, vacuum_state(grid, cutoff)))
    direct = grid_inner(phi, apply_creation(1, apply_annihilation(2, psi)))
    assert abs(direct) > 0.1
    values = np.zeros((3, 3))
    values[1, 2] = 1.0 / (grid.weights[1] * grid.weights[2])
    via_eta = xi_matrix_element(DiscreteKernel(1, 1, values), phi, psi)
    assert via_eta == pytest.approx(direct)


def test_xi_matrix_element_against_apply_kernel():
    rng = np.random.default_rng(3)
    grid = uniform_grid(3, statistic=BOSE)
    cutoff = 3
    kernel = DiscreteKernel(1, 1, rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
    phi = apply_creation(0, apply_creation(1, vacuum_state(grid, cutoff)))
    psi = apply_creation(1, apply_creation(2, vacuum_state(grid, cutoff)))
    lhs = xi_matrix_element(kernel, phi, psi)
    rhs = grid_inner(phi, apply_kernel(kernel, psi))
    assert lhs == pytest.approx(rhs)


def test_kernel_rank_validation():
    with pytest.raises(ValueError):
        DiscreteKernel(1, 1, np.zeros(3))
    # a kernel of a 4-mode grid on a 3-mode grid, by either route
    grid = uniform_grid(3)
    psi = apply_creation(0, vacuum_state(grid, 3))
    kernel = DiscreteKernel(1, 1, np.ones((4, 4)))
    with pytest.raises(ValueError):
        apply_kernel(kernel, psi)
    with pytest.raises(ValueError):
        xi_matrix_element(kernel, psi, psi)


def test_grid_rejects_duplicates_and_bad_weights():
    grid = uniform_grid(2, statistic=BOSE)
    with pytest.raises(ValueError):
        MomentumGrid(grid.points + [grid.points[0]],
                     np.append(grid.weights, 1.0), grid.statistics)
    with pytest.raises(ValueError):
        MomentumGrid(grid.points, [1.0, -1.0], grid.statistics)


@pytest.mark.parametrize("change", [
    {"weights": [0.5, 0.5]},
    {"weights": [0.5, float("nan"), 0.5]},
    {"krein": [1.0, -1.0]},
    {"krein": [1.0, 0.5, 1.0]},
    {"statistics": {"scalar": "fermion"}},
])
def test_grid_rejects_malformed_input(change):
    grid = uniform_grid(3)
    fields = {"weights": grid.weights, "statistics": grid.statistics, "krein": grid.krein}
    with pytest.raises(ValueError):
        MomentumGrid(grid.points, **{**fields, **change})


def test_configuration_outside_the_basis_is_rejected():
    grid = uniform_grid(2)
    beyond = FockGridState(grid, 2, {(3, 0): 1.0 + 0.0j})
    with pytest.raises(ValueError):
        apply_annihilation(0, beyond)


@st.composite
def mixed_grids(draw):
    n = draw(st.integers(1, 5))
    fermi = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    krein = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    points = [GridPoint((float(i), 0.0, 0.0), 0, "psi" if f else "phi")
              for i, f in enumerate(fermi)]
    grid = MomentumGrid(points, weights, {"phi": BOSE, "psi": FERMI}, krein)
    cutoff = draw(st.integers(1, 3))
    config = draw(st.sampled_from(_basis_configs(grid, cutoff)))
    return grid, cutoff, config, draw(st.integers(0, n - 1))


@settings(max_examples=60, deadline=None, database=None)
@given(mixed_grids())
def test_single_ladder_amplitudes_on_mixed_grids(case):
    grid, cutoff, config, mode = case
    fermi = [grid.is_fermi(j) for j in range(grid.n_modes)]
    # a Fermi ladder carries the Jordan-Wigner sign over the occupied
    # fermionic modes left of `mode`; a Bose ladder commutes with all others
    sign = (-1) ** sum(config[j] for j in range(mode) if fermi[j]) if fermi[mode] else 1
    state = FockGridState(grid, cutoff, {config: 1.0 + 0.0j})
    w = grid.weights[mode]

    lowered = list(config)
    lowered[mode] -= 1
    got = apply_annihilation(mode, state).amplitudes
    if config[mode] == 0:
        assert got == {}
    else:
        assert got == {tuple(lowered): pytest.approx(sign * math.sqrt(config[mode]) / math.sqrt(w),
                                                     rel=1e-14)}

    if sum(config) == cutoff:
        with pytest.raises(TruncationError):
            apply_creation(mode, state)
    else:
        raised = list(config)
        raised[mode] += 1
        got = apply_creation(mode, state).amplitudes
        if fermi[mode] and config[mode] == 1:
            assert got == {}
        else:
            assert got == {tuple(raised): pytest.approx(
                sign * math.sqrt(config[mode] + 1) / math.sqrt(w), rel=1e-14)}

    assert commutator_check(grid, cutoff) <= 1e-12 / float(np.min(grid.weights))
