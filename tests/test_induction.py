import math

import numpy as np
import pytest
from scipy import integrate

from causalqed.induction import (LatticeToy, OrderData, SeriesError,
                                 build_Aprime_Rprime, extend_series,
                                 invert_series, lattice_support_check,
                                 partition_count, slot_names, symbolic_split,
                                 window_smear)
from causalqed.wick import ONE, operator_product, scalar_vertex


def make_data(power=1):
    return OrderData(S={1: scalar_vertex("x1", power=power).scaled(1j)})


def test_partition_count():
    assert [partition_count(n) for n in (1, 2, 3, 4, 5)] == [0, 1, 3, 7, 15]


def test_slot_names():
    assert slot_names(3) == ("x1", "x2", "x3")
    assert slot_names(2, offset=2) == ("x3", "x4")


def test_series_inversion_first_orders():
    data = make_data(power=3)
    invert_series(data, 1)
    assert data.Sbar[1] == data.S[1].scaled(-1)
    # order-2 identity: S2 + S1 Sbar1 + Sbar2 = 0 requires S2; check the
    # defining relation instead on what inversion used: Sbar2 = -S2 - S1 Sbar1
    # with S2 absent must fail
    data2 = OrderData(S={1: scalar_vertex("x1").scaled(1j)})
    with pytest.raises(SeriesError):
        invert_series(data2, 3)


def test_inverse_series_neutralizes_S_up_to_order():
    data = make_data(power=3)
    from causalqed.induction import extend_series
    extend_series(data, 3)
    invert_series(data, 3)
    # sum over splittings of {x1..xk} of sign S(X) Sbar(Y) must vanish
    from causalqed.induction import _proper_partitions
    from causalqed.grassmann import reorder_sign
    for k in (2, 3):
        labels = slot_names(k)
        total = data.Sbar_at(labels)
        for X, Y in _proper_partitions(labels):
            sign = reorder_sign(data.graded(labels), data.graded(X + Y))
            total = total + operator_product(
                data.S_at(X), data.Sbar_at(Y)).scaled(sign)
        scale = max(total.max_abs_coeff(), 1.0)
        assert total.chopped(1e-10, scale=scale).is_zero()


def test_build_validates_order():
    data = make_data()
    with pytest.raises(SeriesError):
        build_Aprime_Rprime(0, data)
    with pytest.raises(SeriesError):
        build_Aprime_Rprime(7, data)


def test_partition_sum_sizes():
    data = make_data(power=3)
    from causalqed.induction import extend_series
    extend_series(data, 3)
    for n in (2, 3):
        step = build_Aprime_Rprime(n, data)
        assert step.n_partitions == partition_count(n)


def test_symbolic_split_reproduces_D():
    data = make_data(power=3)
    step = build_Aprime_Rprime(2, data)
    ret, adv = symbolic_split(step.D, 2)
    assert (ret - adv) == step.D


def test_lattice_commutator_transform_against_numeric_ft():
    toy = LatticeToy()
    for k in (1, 2):
        for E in (-1.5, 0.3, 2.0):
            def integrand(t):
                return toy.commutator_t(t, k) * np.exp(1j * E * t)
            re, _ = integrate.quad(lambda t: integrand(t).real, -60, 60,
                                   points=[0.0], limit=800,
                                   epsabs=1e-12, epsrel=1e-11)
            assert toy.commutator_hat(E, k).real == pytest.approx(re, abs=1e-7)
            # the commutator transform is real (odd imaginary part cancels)
            im, _ = integrate.quad(lambda t: integrand(t).imag, -60, 60,
                                   points=[0.0], limit=800,
                                   epsabs=1e-12, epsrel=1e-11)
            assert abs(im) < 1e-7


def test_window_smear_gaussian_oracle():
    # fhat(E) = exp(-E^2/2) <-> f(t) = exp(-t^2/2)/sqrt(2 pi); the window
    # pairing is then a closed-form Gaussian convolution
    sigma, t0 = 0.4, 0.8
    got = window_smear(lambda E: np.exp(-0.5 * E * E), t0, sigma)
    s2 = sigma * sigma
    exact = (sigma / math.sqrt(1.0 + s2)) * math.exp(-0.5 * t0 * t0 / (1.0 + s2))
    assert got == pytest.approx(exact, abs=1e-12)


def test_window_smear_of_retarded_oracle_matches_closed_form_pairing():
    # allowed side: the window sits inside t > 0, where theta(t) D_2(t) is a
    # sum of two exponentials whose Gaussian pairings are in closed form
    toy, k, sigma = LatticeToy(), 2, 0.1
    cs = (k * toy.gamma + 1j * k * toy.omega0, k * toy.gamma - 1j * k * toy.omega0)
    for t0 in (1.5, 2.0, 3.0):
        exact = sum(sign * sigma * math.sqrt(2.0 * math.pi)
                    * np.exp(-c * t0 + 0.5 * (c * sigma) ** 2)
                    for sign, c in zip((1.0, -1.0), cs)) / (2.0 * toy.omega0) ** k
        got = window_smear(lambda E: toy.retarded_hat_exact(E, k), t0, sigma)
        assert abs(got - exact) <= 1e-12


def test_window_smear_fails_loudly_on_an_unresolved_pole():
    with pytest.raises(ArithmeticError):
        window_smear(lambda E: 1.0 / (E - 3.0 + 1e-6j), 1.0, 0.1)


def test_window_smear_fails_fast_on_a_non_finite_sample():
    points = []

    def fhat(E):
        points.extend(E.tolist())
        return np.where((10.0 < E) & (E < 20.0), math.nan, np.exp(-0.5 * E * E))

    with pytest.raises(ArithmeticError, match="non-finite"):
        window_smear(fhat, 1.0, 0.1)
    # the first level with a node in (10, 20) has 16 intervals: 17 samples in all
    assert len(points) == 17


def test_retarded_support_check_flags_wrong_side():
    toy = LatticeToy()
    ret = toy.retarded_hat_exact
    good = lattice_support_check(lambda E: ret(E, 2), side="retarded")
    assert good["leakage"] < 1e-8
    # the advanced check applied to a retarded function must fail loudly
    bad = lattice_support_check(lambda E: ret(E, 2), side="advanced")
    assert bad["leakage"] > 1e3
    causal = lattice_support_check(lambda E: toy.commutator_hat(E, 2),
                                   side="causal")
    assert causal["leakage"] == 0.0


def test_ordata_relabels_canonical_slots():
    data = make_data(power=3)
    poly = data.S_at(("y", ))
    assert poly == scalar_vertex("y").scaled(1j)
    assert data.S_at(()) == ONE


def test_linear_vertex_series_keeps_leg_parity():
    # every term of S_n for a one-leg vertex has n legs minus two per
    # contraction
    data = make_data(power=1)
    extend_series(data, 4)
    assert len(data.S[4]) > 0
    assert all(len(m.legs) % 2 == 0 for m in data.S[4].terms)
