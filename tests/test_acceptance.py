"""Acceptance gate: the eleven headline properties of the engine, each at
its stated tolerance.  Oracles are closed forms, independent brute-force
enumerations, or second code paths through the operator layer."""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate

from causalqed.adiabatic import (ScalingFamily, bump_profile, classify_sweep,
                                 epsilon_free_evaluation, gaussian_profile,
                                 sweep, weak_limit_vacuum)
from causalqed.distributions import METRIC
from causalqed.fock import (BOSE, FERMI, DiscreteKernel, FockGridState,
                            apply_kernel, commutator_check, grid_inner,
                            uniform_grid, xi_matrix_element, _basis_configs)
from causalqed.grassmann import FERMI as FERMI_GRADE
from causalqed.induction import (LatticeToy, OrderData, build_Aprime_Rprime,
                                 extend_series, lattice_support_check,
                                 partition_count, symbolic_split, window_smear)
from causalqed.qed2 import (SelfEnergy, build_self_energy,
                            build_vacuum_polarization)
from causalqed.splitting import (SplitSpec, order_preservation_check,
                                 polynomial_fit_residual, split, toy_causal,
                                 toy_retarded_exact)
from causalqed.wick import (FIELDS, WickMonomial, WickPolynomial,
                            operator_product, pair_factor, qed_vertex,
                            scalar_vertex)


# -- 1. grid ladder operators satisfy the CCR/CAR exactly ---------------------

def test_criterion_1_fock_grid_ccr_car():
    t0 = time.time()
    for stat in (BOSE, FERMI):
        grid = uniform_grid(6, statistic=stat)
        assert commutator_check(grid, cutoff=3) <= 1e-12
    assert time.time() - t0 < 5.0


# -- 2. kernel-operator pairing agrees with direct ladder application ---------

def test_criterion_2_kernel_pairing_vs_direct_application():
    t0 = time.time()
    rng = np.random.default_rng(42)
    grid_b = uniform_grid(3, statistic=BOSE)
    grid_f = uniform_grid(3, statistic=FERMI)
    cutoff = 5  # headroom: an (l=2) kernel on a 2-particle state makes 4
    checked = 0
    while checked < 100:
        grid = grid_b if checked % 2 == 0 else grid_f
        l = int(rng.integers(0, 3))
        m = int(rng.integers(0, 3))
        shape = (grid.n_modes,) * (l + m)
        kernel = DiscreteKernel(l, m, rng.normal(size=shape)
                                + 1j * rng.normal(size=shape))
        configs = _basis_configs(grid, 2)
        amps_phi = {c: complex(*rng.normal(size=2)) for c in configs}
        amps_psi = {c: complex(*rng.normal(size=2)) for c in configs}
        phi = FockGridState(grid, cutoff, amps_phi)
        psi = FockGridState(grid, cutoff, amps_psi)
        via_eta = xi_matrix_element(kernel, phi, psi)
        direct = grid_inner(phi, apply_kernel(kernel, psi))
        scale = max(abs(direct), 1.0)
        assert abs(via_eta - direct) / scale <= 1e-10
        checked += 1
    assert time.time() - t0 < 30.0


# -- 3. Wick theorem against a brute-force contraction oracle -----------------

def brute_force_product(A, B):
    """Independent oracle: enumerate contraction sets by explicit subset
    and permutation choice; compute each sign by literally bubbling the
    two partners adjacent with signed transpositions."""
    out = []
    for ma in A.terms:
        for mb in B.terms:
            legs = list(ma.legs) + list(mb.legs)
            nA = len(ma.legs)
            ann = [i for i in range(nA) if legs[i].character == "ann"]
            cre = [j for j in range(nA, len(legs)) if legs[j].character == "cre"]
            for r in range(min(len(ann), len(cre)) + 1):
                for asub in itertools.combinations(ann, r):
                    for bperm in itertools.permutations(cre, r):
                        pairs = list(zip(asub, bperm))
                        if any(FIELDS[legs[i].field][1] != legs[j].field
                               for i, j in pairs):
                            continue
                        sign = 1
                        work = [(k, legs[k]) for k in range(len(legs))]
                        factors = list(ma.factors) + list(mb.factors)
                        for i, j in pairs:
                            pos_i = next(t for t, (k, _) in enumerate(work) if k == i)
                            pos_j = next(t for t, (k, _) in enumerate(work) if k == j)
                            # move leg j leftward until adjacent to leg i
                            while pos_j > pos_i + 1:
                                if (work[pos_j][1].grade == FERMI_GRADE
                                        and work[pos_j - 1][1].grade == FERMI_GRADE):
                                    sign = -sign
                                work[pos_j - 1], work[pos_j] = work[pos_j], work[pos_j - 1]
                                pos_j -= 1
                            factors.append(pair_factor(legs[i], legs[j]))
                            del work[pos_i + 1]
                            del work[pos_i]
                        rest = tuple(leg for _, leg in work)
                        out.append(WickMonomial(sign * ma.coeff * mb.coeff,
                                                tuple(sorted(factors)), rest))
    return WickPolynomial(out)


def test_criterion_3_wick_theorem_and_associativity():
    vx, vy = qed_vertex("x"), qed_vertex("y")
    prod = operator_product(vx, vy)
    oracle = brute_force_product(vx, vy)
    assert prod == oracle
    # associativity after canonicalization, on a mixed triple
    a = qed_vertex("x")
    b = qed_vertex("y")
    c = scalar_vertex("z", power=2)
    left = operator_product(operator_product(a, b), c)
    right = operator_product(a, operator_product(b, c))
    assert left == right


# -- 4. splitting: oracle match, ambiguity polynomial, reconstruction, order --

ES = np.linspace(-5.0, 5.0, 21)


def test_criterion_4a_negative_order_split_matches_theta_oracle():
    d = toy_causal(0)
    result = split(d, SplitSpec(omega=-1))
    exact = toy_retarded_exact(0)
    for E in ES:
        assert abs(result.retarded.eval_fn(E) - exact(E)) <= 1e-8


def test_criterion_4b_split_difference_is_degree_two_polynomial():
    d = toy_causal(3)
    r1 = split(d, SplitSpec(omega=2, normalization=(0.0, 0.0, 0.0)))
    r2 = split(d, SplitSpec(omega=2, normalization=(0.7, -1.3, 0.4)))
    diff = [r2.retarded.eval_fn(E) - r1.retarded.eval_fn(E) for E in ES]
    assert polynomial_fit_residual(diff, ES, 2) <= 1e-6


def test_criterion_4c_retarded_minus_advanced_reconstructs_input():
    for power, omega, consts in ((0, -1, ()), (3, 2, (0.0, 0.0, 0.0))):
        d = toy_causal(power)
        result = split(d, SplitSpec(omega=omega, normalization=consts))
        for E in ES:
            dv = d.eval_fn(E)
            back = result.retarded.eval_fn(E) - result.advanced.eval_fn(E)
            assert abs(back - dv) <= 1e-8 * max(1.0, abs(dv))


def test_criterion_4d_split_preserves_scaling_degree():
    d = toy_causal(3)
    result = split(d, SplitSpec(omega=2, normalization=(0.0, 0.0, 0.0)))
    e_in, e_ret = order_preservation_check(d, result)
    assert abs(e_ret - e_in) <= 0.2


# -- 5. on-shell normalization of the second-order Green functions ------------

@pytest.fixture(scope="module")
def vp():
    return build_vacuum_polarization(1.0)


@pytest.fixture(scope="module")
def se():
    return build_self_energy(1.0)


def test_criterion_5_on_shell_normalization(vp, se):
    assert abs(vp.scalar_part(0.0)) <= 1e-10
    # p^2 -> 0 condition by Richardson extrapolation of Pi(s)/s
    h = -0.04
    r = [vp.scalar_part(h / 2 ** k) / (h / 2 ** k) for k in range(3)]
    extrap = (4.0 * (2 * r[2] - r[1]) - (2 * r[1] - r[0])) / 3.0
    assert abs(extrap) <= 1e-8

    m = se.m
    assert se.photon_mass == pytest.approx(m / 10.0)
    assert abs(se.shell_combination()) <= 1e-8
    assert abs(2 * m * se.a_prime_shell() + se.b(m * m)
               + 2 * m * m * se.b_prime_shell()) <= 1e-8


def test_criterion_5_injected_constants_reappear_as_residuals(se):
    d0, d1 = 0.15, -0.08
    off = SelfEnergy(se.m, se.photon_mass,
                     (se.constants[0] + d0, se.constants[1] + d1))
    m = se.m
    r1 = abs(off.shell_combination())
    r2 = abs(2 * m * off.a_prime_shell() + off.b(m * m)
             + 2 * m * m * off.b_prime_shell())
    assert abs(r1 - abs(d0 + m * d1)) <= 1e-8
    assert abs(r2 - abs(d1)) <= 1e-8


# -- 6. transversality of the vacuum-polarization tensor ----------------------

def test_criterion_6_gauge_transversality(vp):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        p = rng.normal(size=4) * 0.8
        T = vp.tensor(p)
        resid = np.max(np.abs((METRIC @ p) @ T))
        scale = max(np.max(np.abs(T)), 1e-300)
        worst = max(worst, resid / scale)
    assert worst <= 1e-12


# -- 7/8. adiabatic sweeps: convergence on shell, divergence off shell --------

SCHED = tuple(2.0 ** (-k) for k in range(3, 13))


def xi(pvec):
    return float(np.exp(-float(np.dot(pvec, pvec))))


def phi(p4):
    return float(np.exp(-float(np.dot(p4, p4))))


def profiles():
    fams = [gaussian_profile(), gaussian_profile(width=2.0), bump_profile()]
    return [ScalingFamily(g_hat=f.g_hat, alpha0=f.alpha0, epsilon_schedule=SCHED)
            for f in fams]


def test_criterion_7_on_shell_sweep_converges(se):
    verdicts = []
    for family in profiles():
        result = sweep("Sigma_into_psi", se, xi, phi, family)
        verdicts.append(result.verdict)
        direct = epsilon_free_evaluation("Sigma_into_psi", se, xi, phi)
        assert result.verdict == "converged"
        assert abs(result.limit_estimate - direct) <= 1e-6
    assert len(set(verdicts)) == 1


def test_criterion_8_off_shell_sweep_diverges(se):
    family = profiles()[0]
    off = SelfEnergy(se.m, se.photon_mass,
                     (se.constants[0] + 0.3, se.constants[1] + 0.1))
    result = sweep("Sigma_into_psi", off, xi, phi, family)
    assert result.verdict == "diverged"
    assert abs(result.fitted_exponent - (-1.0)) <= 0.15


def test_criterion_8_massless_charge_diverges_for_all_normalizations():
    family = profiles()[0]
    for consts in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (3.0, -2.0), (-5.0, 4.0)):
        result = sweep("massless_charge", None, xi, phi, family, constants=consts)
        assert result.verdict == "diverged"


# -- 9. weak adiabatic limit of the vacuum graph with tuned constants ---------

def test_criterion_9_weak_limit_vacuum_graph():
    fam = gaussian_profile()
    family = ScalingFamily(g_hat=fam.g_hat,
                           epsilon_schedule=tuple(2.0 ** (-k) for k in range(3, 15)))
    result = weak_limit_vacuum(2, family, constants=(0.0, 0.0, 0.0))
    first = abs(result.values[0])
    last = abs(result.values[-1])
    assert last <= 1e-6 * first
    assert result.verdict == "converged"
    # order 1 vanishes identically (normal-ordered vertex)
    triv = weak_limit_vacuum(1, family)
    assert triv.verdict == "converged" and triv.limit_estimate == 0.0


# -- 10. inductive construction: route equality, counts, lattice support ------

def test_criterion_10_routes_agree_to_order_5():
    data = OrderData(S={1: scalar_vertex("x1", power=1).scaled(1j)})
    extend_series(data, 5)  # raises SeriesError if any routes disagree
    for n in range(2, 6):
        step = build_Aprime_Rprime(n, data)
        assert step.n_partitions == partition_count(n)
        ret, adv = symbolic_split(step.D, n)
        via_ret = ret - step.Rprime
        via_adv = adv - step.Aprime
        scale = max(step.Rprime.max_abs_coeff(), step.Aprime.max_abs_coeff(), 1.0)
        assert (via_ret - via_adv).chopped(1e-9, scale=scale).is_zero()


def test_criterion_10_cubic_vertex_routes_to_order_3():
    data = OrderData(S={1: scalar_vertex("x1", power=3).scaled(1j)})
    extend_series(data, 3)
    assert 3 in data.S and len(data.S[3]) > 0


def test_criterion_10_lattice_retarded_support_and_chronological():
    from causalqed.distributions import CausalDistribution

    toy = LatticeToy()
    k = 2
    dist = split(
        CausalDistribution(eval_fn=lambda E: toy.commutator_hat(E, k),
                           omega=-2, support_tag="causal"),
        SplitSpec(omega=-2))
    # split matches the closed-form retarded transform
    for E in (-2.5, -0.5, 0.8, 3.0):
        assert abs(dist.retarded.eval_fn(E)
                   - toy.retarded_hat_exact(E, k)) <= 1e-10
    leak = lattice_support_check(lambda E: dist.retarded.eval_fn(E),
                                 side="retarded")
    assert leak["leakage"] <= 1e-8

    # chronological product: ret(d_k) plus the backward branch transform
    # equals the theta-ordered pairing power; the oracle smears the
    # closed-form time-ordered function directly in t
    def rev_hat(E):
        kw, kg = k * toy.omega0, k * toy.gamma
        return (2.0 * kg / (kg * kg + (E + kw) ** 2)) / (2.0 * toy.omega0) ** k

    sig = 0.1
    for t0 in (-1.5, -0.4, 0.6, 1.5):
        lhs = window_smear(lambda E: dist.retarded.eval_fn(E) + rev_hat(E),
                           t0, sigma=sig)
        ts = np.linspace(t0 - 10 * sig, t0 + 10 * sig, 4001)
        chi = np.exp(-0.5 * ((ts - t0) / sig) ** 2)
        vals = np.array([toy.timeordered_t(t, k) for t in ts])
        rhs = integrate.trapezoid(vals * chi, ts)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


# -- 11. composed kernel operators reproduce operator products ----------------

def test_criterion_11_product_of_limits_matches_composition():
    from causalqed.adiabatic import product_of_limits
    rng = np.random.default_rng(9)
    grid = uniform_grid(4, statistic=BOSE)
    cutoff = 4  # headroom: a (2,1) kernel on a 2-particle state makes 3
    nm = grid.n_modes
    configs = _basis_configs(grid, 2)
    amps_phi = {c: complex(*rng.normal(size=2)) for c in configs}
    amps_psi = {c: complex(*rng.normal(size=2)) for c in configs}
    phi_s = FockGridState(grid, cutoff, amps_phi)
    psi_s = FockGridState(grid, cutoff, amps_psi)
    for (al, am), (bl, bm) in (((1, 1), (1, 1)), ((1, 2), (2, 1)),
                               ((2, 1), (1, 2)), ((2, 2), (2, 2))):
        A = DiscreteKernel(al, am, rng.normal(size=(nm,) * (al + am))
                           + 1j * rng.normal(size=(nm,) * (al + am)))
        B = DiscreteKernel(bl, bm, rng.normal(size=(nm,) * (bl + bm))
                           + 1j * rng.normal(size=(nm,) * (bl + bm)))
        terms = product_of_limits(A, B, grid)
        # the first (tensor-product) term has no contracted slots
        assert (terms[0].l, terms[0].m) == (al + bl, am + bm)
        if (al, am, bl, bm) == (1, 1, 1, 1):
            assert np.allclose(
                terms[0].values,
                np.einsum("ij,kl->ikjl", A.values, B.values))
        composed = grid_inner(phi_s, apply_kernel(A, apply_kernel(B, psi_s)))
        summed = sum(xi_matrix_element(t, phi_s, psi_s) for t in terms)
        assert abs(summed - composed) <= 1e-10 * max(abs(composed), 1.0)
