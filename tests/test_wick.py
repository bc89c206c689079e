import functools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalqed import wick
from causalqed.induction import OrderData, extend_series, slot_names
from causalqed.wick import (ONE, ContractionError, Factor, FieldLeg,
                            WickMonomial, WickPolynomial, free_field,
                            operator_product, pair_factor, qed_vertex,
                            scalar_vertex, vacuum_expectation, wick_product)


def test_free_field_has_two_legs():
    phi = free_field("scalar", "x")
    assert len(phi) == 2
    assert {m.legs[0].character for m in phi.terms} == {"cre", "ann"}


def test_unknown_field_rejected():
    with pytest.raises(ValueError):
        free_field("gluon", "x")


def test_wick_product_multiplies_kernels_without_contraction():
    phi = free_field("scalar", "x")
    sq = wick_product([phi, phi])
    # :phi^2: has cre-cre, cre-ann (merged), ann-ann -> 3 monomials
    assert len(sq) == 3
    assert all(not m.factors for m in sq.terms)


def test_two_point_function_is_single_pairing():
    phi_x = free_field("scalar", "x")
    phi_y = free_field("scalar", "y")
    prod = operator_product(phi_x, phi_y)
    vac = vacuum_expectation(prod)
    assert len(vac) == 1
    (term,) = vac.terms
    assert term.coeff == pytest.approx(1.0)
    assert term.factors == (Factor("pair", "D+", ("x", "y", "", "")),)


def test_fermion_pairings_are_directional():
    psi, psibar = free_field("psi", "x"), free_field("psibar", "y")
    vac1 = vacuum_expectation(operator_product(psi, psibar))
    vac2 = vacuum_expectation(operator_product(psibar, free_field("psi", "y")))
    assert vac1.terms[0].factors[0].name == "S+"
    assert vac2.terms[0].factors[0].name == "Sbar+"


def test_incompatible_contraction_raises():
    a = FieldLeg("scalar", "ann", "x")
    b = FieldLeg("photon", "cre", "y")
    with pytest.raises(ContractionError):
        pair_factor(a, b)


def test_identical_fermi_legs_vanish():
    leg = FieldLeg("psi", "cre", "x", "a")
    poly = WickPolynomial([WickMonomial(1.0, (), (leg, leg))])
    assert poly.is_zero()


def test_qed_vertex_structure():
    v = qed_vertex("x")
    assert len(v) == 8  # 2^3 emission/absorption choices
    assert all(any(f.name == "gamma" for f in m.factors) for m in v.terms)
    assert all(len(m.legs) == 3 for m in v.terms)


def test_scalar_vertex_factorial():
    v = scalar_vertex("x", power=3)
    # the pure-emission monomial keeps the bare 1/3! kernel; mixed
    # monomials are merged with their multinomial multiplicity
    pure = [m for m in v.terms
            if all(l.character == "cre" for l in m.legs) and len(m.legs) == 3]
    assert len(pure) == 1
    assert pure[0].coeff == pytest.approx(1.0 / 6.0)
    mixed = max(abs(m.coeff) for m in v.terms)
    assert mixed == pytest.approx(3.0 / 6.0)


def test_polynomial_algebra():
    phi = free_field("scalar", "x")
    assert (phi - phi).is_zero()
    assert (phi + phi) == phi.scaled(2.0)
    assert WickPolynomial().is_zero()
    assert len(ONE) == 1


def test_relabel_moves_slots_and_factor_args():
    prod = operator_product(free_field("scalar", "x"), free_field("scalar", "y"))
    renamed = prod.relabel({"x": "u", "y": "v"})
    direct = operator_product(free_field("scalar", "u"), free_field("scalar", "v"))
    assert renamed == direct
    # vertex tags and fermion pairings carry slots too
    prod = operator_product(qed_vertex("x"), qed_vertex("y"))
    assert prod.relabel({"x": "v", "y": "u"}) == operator_product(qed_vertex("v"), qed_vertex("u"))


def test_json_roundtrip():
    prod = operator_product(qed_vertex("x"), qed_vertex("y"))
    again = WickPolynomial.from_json(prod.to_json())
    assert again == prod


def test_from_json_rejects_unknown_legs():
    # a leg no contraction can reach must not enter a polynomial unseen
    for leg in (["scalar", "foo", "x", ""], ["gluon", "cre", "x", ""]):
        text = json.dumps({"terms": [{"coeff": [1.0, 0.0], "factors": [], "legs": [leg]}]})
        with pytest.raises(ValueError):
            WickPolynomial.from_json(text)


def test_chopped_drops_residue():
    phi = free_field("scalar", "x")
    noisy = phi + phi.scaled(1e-15)
    cleaned = noisy.chopped(1e-12)
    assert cleaned == phi.scaled(1.0 + 1e-15).chopped(0.0)
    tiny = phi.scaled(1e-15) - phi.scaled(1e-15)
    assert tiny.is_zero()


def test_operator_product_distributes_over_sums():
    a = free_field("scalar", "x")
    b = free_field("scalar", "y")
    c = free_field("scalar", "z")
    lhs = operator_product(a, b + c)
    rhs = operator_product(a, b) + operator_product(a, c)
    assert lhs == rhs


def test_scalar_operator_product_is_associative():
    # each creation leg is contracted at most once, so the product of
    # phi^3(x), phi(y), phi^2(z) associates
    A = wick_product([free_field("scalar", "x")] * 3)
    B = free_field("scalar", "y")
    C = wick_product([free_field("scalar", "z")] * 2)
    left = operator_product(operator_product(A, B), C)
    right = operator_product(A, operator_product(B, C))
    scale = max(left.max_abs_coeff(), right.max_abs_coeff())
    assert (left - right).chopped(1e-12, scale=scale).is_zero()


def test_canonical_operations_skip_normal_ordering(monkeypatch):
    P = (operator_product(qed_vertex("x"), qed_vertex("y"))
         + operator_product(scalar_vertex("x"), scalar_vertex("y")))
    Q = operator_product(qed_vertex("y"), qed_vertex("x")).scaled(0.5)
    cut = 0.5 * P.max_abs_coeff()
    raw = (WickPolynomial(P.terms + Q.terms),
           WickPolynomial(P.terms + [WickMonomial(-m.coeff, m.factors, m.legs)
                                     for m in Q.terms]),
           WickPolynomial([WickMonomial(2j * m.coeff, m.factors, m.legs) for m in P.terms]),
           WickPolynomial([m for m in P.terms if abs(m.coeff) > cut]))

    def refuse(legs):
        raise AssertionError("canonical polynomial normal-ordered again")

    monkeypatch.setattr(wick, "_normal_order", refuse)
    merged = (P + Q, P - Q, P.scaled(2j), P.chopped(0.5))
    monkeypatch.undo()
    assert merged == raw
    assert 0 < len(merged[3]) < len(P)


_LEGS = st.builds(FieldLeg, st.sampled_from(sorted(wick.FIELDS)),
                  st.sampled_from(["cre", "ann"]), st.sampled_from(["x1", "x2", "y"]),
                  st.sampled_from(["", "a", "mu"]))


@settings(max_examples=300, deadline=None, database=None)
@given(_LEGS, _LEGS)
def test_leg_comparisons_follow_sort_key(a, b):
    ka, kb = a.sort_key(), b.sort_key()
    assert (a < b, a <= b, a > b, a >= b, a == b) == (ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb)
    assert (a == b) == (hash(a) == hash(b) and a == FieldLeg(*b))


def test_factor_order_is_key_order():
    fs = [Factor("tag", "gamma", ("y",)), Factor("pair", "S+", ("x", "y", "a", "b")),
          Factor("ret", "k", (2,)), Factor("pair", "D+", ("x", "y", "", ""))]
    assert sorted(fs) == sorted(fs, key=lambda f: (f.kind, f.name, f.args))


@functools.lru_cache(maxsize=None)
def _order_two(vertex):
    data = OrderData(S={1: (qed_vertex("x1") if vertex == "qed" else scalar_vertex("x1", 3))
                        .scaled(0.7j * (0.6 + 0.8j))})
    extend_series(data, 2)
    return data.S[2]


def _operand(kind, first):
    """A kernel on the slots x<first>, ... and the number of slots it uses."""
    if kind.startswith("S2"):
        return _order_two(kind[3:]).relabel(dict(zip(slot_names(2), slot_names(2, first - 1)))), 2
    if kind == "qed":
        return qed_vertex(f"x{first}"), 1
    return scalar_vertex(f"x{first}", int(kind[-1])), 1


_OPERANDS = st.sampled_from(["qed", "phi1", "phi2", "phi3", "S2 qed", "S2 phi3"])


@settings(max_examples=50, deadline=None, database=None)
@given(_OPERANDS, _OPERANDS, st.permutations(slot_names(4)))
def test_relabel_commutes_with_operator_product_exactly(kind_a, kind_b, image):
    # the slot-symmetric partition sums of the induction rely on this identity;
    # a product of two order-2 kernels takes seconds, so each draw has at most one
    assume(not (kind_a.startswith("S2") and kind_b.startswith("S2")))
    A, used = _operand(kind_a, 1)
    B, _ = _operand(kind_b, 1 + used)
    sigma = dict(zip(slot_names(4), image))
    assert (operator_product(A, B).relabel(sigma)._terms
            == operator_product(A.relabel(sigma), B.relabel(sigma))._terms)
