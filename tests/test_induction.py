import math

import numpy as np
import pytest
from scipy import integrate

from causalqed import induction
from causalqed.grassmann import reorder_sign
from causalqed.induction import (LatticeToy, OrderData, SeriesError,
                                 _proper_partitions, _smear_levels, build_Aprime_Rprime,
                                 extend_series, invert_series,
                                 lattice_support_check, partition_count,
                                 slot_names, symbolic_split, window_smear)
from causalqed.splitting import _converge
from causalqed.wick import (ONE, WickPolynomial, free_field, operator_product,
                            qed_vertex, scalar_vertex, wick_product)


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


def _sectors(D):
    """D's terms grouped by the sorted fields of their legs, one polynomial each."""
    groups = {}
    for m in D.terms:
        groups.setdefault(tuple(sorted(leg.field for leg in m.legs)), []).append(m)
    return {fields: WickPolynomial(terms) for fields, terms in groups.items()}


@pytest.mark.parametrize("vertex, counts, pairs", [
    (qed_vertex,
     {(): 2, ("photon", "photon"): 8, ("psi", "psibar"): 16,
      ("photon", "photon", "psi", "psibar"): 64, ("psi", "psi", "psibar", "psibar"): 32},
     {(): [("D0+", "S+", "Sbar+")], ("photon", "photon"): [("S+", "Sbar+")],
      ("psi", "psibar"): [("D0+", "S+"), ("D0+", "Sbar+")]}),
    (scalar_vertex,
     {(): 2, ("scalar",) * 2: 8, ("scalar",) * 4: 18},
     {(): [("D+",) * 3], ("scalar",) * 2: [("D+",) * 2]}),
], ids=["qed", "cubic"])
def test_order_2_causal_kernel_sectors(vertex, counts, pairs):
    # D_2 = R'_2 - A'_2 sorts into vacuum, two-leg loop and four-leg tree
    # sectors; each is a difference P(x1, x2) - P(x2, x1), so it is odd
    # under x1 <-> x2
    D = build_Aprime_Rprime(2, OrderData(S={1: vertex("x1").scaled(1j)})).D
    sectors = _sectors(D)
    assert {fields: len(P) for fields, P in sectors.items()} == counts
    for fields, P in sectors.items():
        names = {tuple(sorted(f.name for f in m.factors if f.kind == "pair")) for m in P.terms}
        # the two vertices have six legs; each contraction pairs two of them
        assert all(len(n) == (6 - len(fields)) // 2 for n in names)
        if fields in pairs:
            assert sorted(names) == pairs[fields]
        assert (P.relabel({"x1": "x2", "x2": "x1"}) + P).is_zero()
    assert (D.relabel({"x1": "x2", "x2": "x1"}) + D).is_zero()


def test_lattice_commutator_transform_against_numeric_ft():
    toy = LatticeToy()
    for k in (1, 2):
        for E in (-1.5, 0.3, 2.0):
            def integrand(t):
                # D_k(t) = Dplus(t)^k - Dplus(-t)^k, the causal coefficient
                return (toy.dplus_t(t, k) - toy.dplus_t(-t, k)) * np.exp(1j * E * t)
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


def test_window_smear_reports_intervals_and_estimate():
    # N trapezoid intervals draw N + 1 samples, the old nodes reused
    points = []

    def fhat(E):
        points.extend(E.tolist())
        return np.exp(-0.5 * E * E)

    value, N, estimate = _converge("window_smear", _smear_levels(fhat, 0.8, 0.4))
    assert len(points) == len(set(points)) == N + 1
    assert value == window_smear(lambda E: np.exp(-0.5 * E * E), 0.8, 0.4)
    assert estimate <= max(1e-13, 1e-12 * abs(value) * 2.0 * math.pi)


def test_window_smear_fails_loudly_on_an_unresolved_pole():
    with pytest.raises(ArithmeticError, match=r"^window_smear not converged at N = 65536: "
                                              r"estimate \S+ > bound \S+$"):
        window_smear(lambda E: 1.0 / (E - 3.0 + 1e-6j), 1.0, 0.1)


def test_window_smear_fails_fast_on_a_non_finite_sample():
    points = []

    def fhat(E):
        points.extend(E.tolist())
        return np.where((10.0 < E) & (E < 20.0), math.nan, np.exp(-0.5 * E * E))

    with pytest.raises(ArithmeticError, match=r"^non-finite window_smear sample at 1\d\.\d+$"):
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


# The partition sums as a loop with one operator product per partition:
# the reference that the slot-symmetric sums must equal exactly.

def _reference_invert(data, n):
    for k in range(1, n + 1):
        labels = slot_names(k)
        total = WickPolynomial()
        for X, Y in _proper_partitions(labels):
            sign = reorder_sign(data.graded(labels), data.graded(X + Y))
            total = total + operator_product(data.S_at(X), data.Sbar_at(Y)).scaled(-sign)
        data.Sbar[k] = total


def _reference_Aprime_Rprime(n, data):
    Z, xn = slot_names(n - 1), f"x{n}"
    source = data.graded(Z + (xn,))
    Ap, Rp = WickPolynomial(), WickPolynomial()
    for X, Y in _proper_partitions(Z):
        s_a = reorder_sign(source, data.graded(X + Y + (xn,)))
        s_r = reorder_sign(source, data.graded(Y + (xn,) + X))
        SY, SbX = data.S_at(Y + (xn,)), data.Sbar_at(X)
        Ap = Ap + operator_product(SbX, SY).scaled(s_a)
        Rp = Rp + operator_product(SY, SbX).scaled(s_r)
    return Ap, Rp


# a coupling whose float products leave cancellation residues, so a change
# of summation order shows as extra terms (linear order 5: 452 -> 524)
_COUPLING = 0.7j * (0.6 + 0.8j)


@pytest.mark.parametrize("vertex, n", [("linear", 5), ("cubic", 3), ("qed", 2)])
def test_partition_sums_equal_the_per_partition_loop_exactly(vertex, n):
    V = {"linear": lambda: scalar_vertex("x1", power=1),
         "cubic": lambda: scalar_vertex("x1", power=3),
         "qed": lambda: qed_vertex("x1")}[vertex]()
    data = OrderData(S={1: V.scaled(1j * _COUPLING)})
    extend_series(data, n - 1)
    reference = OrderData(S=dict(data.S))
    _reference_invert(reference, n - 1)
    step = build_Aprime_Rprime(n, data)  # fills data.Sbar up to n - 1
    for k in range(1, n):
        assert data.Sbar[k]._terms == reference.Sbar[k]._terms
    Ap, Rp = _reference_Aprime_Rprime(n, reference)
    assert step.Aprime._terms == Ap._terms
    assert step.Rprime._terms == Rp._terms


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_partition_sums_make_one_product_per_block_size(monkeypatch, n):
    data = make_data(power=1)
    extend_series(data, n)
    invert_series(data, n - 1)
    calls = {"products": 0, "partitions": 0}
    product, partitions = induction.operator_product, induction._proper_partitions

    def counting_product(A, B):
        calls["products"] += 1
        return product(A, B)

    def counting_partitions(labels):
        for item in partitions(labels):
            calls["partitions"] += 1
            yield item

    monkeypatch.setattr(induction, "operator_product", counting_product)
    monkeypatch.setattr(induction, "_proper_partitions", counting_partitions)
    build_Aprime_Rprime(n, data)
    assert calls == {"products": 2 * (n - 1), "partitions": partition_count(n)}
    calls.update(products=0, partitions=0)
    invert_series(data, n)
    assert calls == {"products": n, "partitions": 2 ** n - 1}


def test_linear_series_reaches_order_6_with_its_top_sector():
    data = OrderData(S={1: scalar_vertex("x1", power=1).scaled(1j * _COUPLING)})
    extend_series(data, 6)  # raises SeriesError if the routes disagree
    top = WickPolynomial._canonical(
        (key, c) for key, c in data.S[6]._terms.items() if len(key[1]) == 6)
    want = wick_product([free_field("scalar", x) for x in slot_names(6)],
                        coeff=(1j * _COUPLING) ** 6)
    assert top._terms.keys() == want._terms.keys()
    for key, c in want._terms.items():
        assert top._terms[key] == pytest.approx(c, rel=1e-12)
