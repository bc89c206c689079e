import functools
import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalqed import cli, wick
from causalqed.induction import OrderData, extend_series, slot_names
from causalqed.wick import (ONE, ContractionError, Factor, FieldLeg,
                            WickMonomial, WickPolynomial, free_field,
                            operator_product, pair_factor, qed_vertex,
                            scalar_vertex, vacuum_expectation, wick_product)
from test_acceptance import brute_force_product


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
    for leg in (["scalar", "foo", "x", ""], ["gluon", "cre", "x", ""], ["scalar", "cre", 1, ""],
                ["psi", "ann", "x", None]):
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
    merged = (P + Q, P - Q, P.scaled(2j), P.chopped(0.5), vacuum_expectation(P))
    monkeypatch.undo()
    assert merged == raw + (WickPolynomial([m for m in P.terms if not m.legs]),)
    assert 0 < len(merged[3]) < len(P)
    assert 0 < len(merged[4]) < len(P)


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


def _mixed(slot, fermion, index, coeff):
    """:A phi fermion:(slot) with its fermion on `index`, scaled by coeff."""
    return wick_product([free_field("photon", slot), free_field(fermion, slot, index),
                         free_field("scalar", slot)]).scaled(coeff)


@pytest.mark.parametrize("A, B", [
    # uncontracted legs of A on y and of B on x interleave in sort order
    (_mixed("y", "psi", "a", 0.3 + 0.7j), _mixed("x", "psibar", "b", -1.1 + 0.2j)),
    (_mixed("y", "psibar", "a", 0.3 + 0.7j), _mixed("x", "psi", "b", 0.9j)),
    # identical fermionic legs of A and B collide only after the merge
    (free_field("psi", "x", "a"), free_field("psi", "x", "a")),
    (_mixed("x", "psi", "a", 0.3 + 0.7j), _mixed("x", "psi", "a", 0.6 - 0.8j)),
    (wick_product([free_field("psi", "x", "a"), free_field("psibar", "y", "b")]).scaled(0.7j),
     wick_product([free_field("psi", "x", "a"), free_field("psibar", "y", "b")]).scaled(1.3)),
])
def test_merged_legs_match_the_brute_force_product_exactly(A, B):
    assert operator_product(A, B) == brute_force_product(A, B)


def test_qed_order_two_times_a_vertex_matches_the_brute_force_product_exactly():
    S2 = _order_two("qed")
    assert operator_product(S2, qed_vertex("x3")) == brute_force_product(S2, qed_vertex("x3"))


def test_a_repeated_series_adds_no_codes():
    # the intern tables are process-wide: another coupling must reuse the
    # codes of the first run, so the tables do not grow with the jobs run
    def cubic_series(coupling):
        extend_series(OrderData(S={1: scalar_vertex("x1", 3).scaled(1j * coupling)}), 3)

    cubic_series(0.7)
    sizes = len(wick._LEGS.items), len(wick._FACTORS.items)
    cubic_series(1.3 * (0.6 + 0.8j))
    assert (len(wick._LEGS.items), len(wick._FACTORS.items)) == sizes


def test_relabel_renames_string_args_in_any_position():
    # a ret tag that carries its order and its slots moves with them
    name = "pair:D+:('x1', 'x3', '', '')"
    P = WickPolynomial([WickMonomial(0.5, (Factor("ret", name, (3, "x1", "x3")),),
                                     (FieldLeg("scalar", "cre", "x1"),))])
    assert P.relabel({"x1": "x3", "x3": "x1"}).terms == [
        WickMonomial(0.5, (Factor("ret", name, (3, "x3", "x1")),),
                     (FieldLeg("scalar", "cre", "x3"),))]


def test_factor_ranks_order_int_and_str_args_at_one_position():
    # factors that never share a monomial still share the process-wide
    # table, so its order must not fail on args of different types
    P = WickPolynomial([WickMonomial(1.0, (Factor("tag", "mixed", ("x1",)),), ()),
                        WickMonomial(2.0, (Factor("tag", "mixed", (1,)),), ())])
    assert [m.factors for m in P.terms] == [(Factor("tag", "mixed", (1,)),),
                                            (Factor("tag", "mixed", ("x1",)),)]


# SHA-256 digests of the Wick layer's outputs, taken before its keys became
# int codes: a change of representation must leave every byte as it was.
# A change of the kernels themselves must update them.
_WICK_EXPAND_SHA256 = {
    1: "fc7fc0d608e6dd51eb2fd92979f850566cd9edca97f4f7af7a07a500534095f1",
    2: "8fce1bd8cc619f1458957dc0ddd99e47b48cd18d9de508ba44cf167cb6ccca01",
    3: "dfd5320b88f50f79061588161139c0c51a1a30eb53c3aef892432a33135577bd",
    4: "cade9ba55bd7831655880420a46bbedb1d1de114f16c63378a2a6640130c0c22",
    5: "f9702615cd1ef87b3414f82fb4470a6806b262ae1145a721818872e66cc90cbe",
}
_SERIES_SHA256 = {
    "linear": {
        "S1": "647cc45b31667f17d32c9e438b67d14da80fc39eb94217c30bb651bb888079cc",
        "S2": "b8f951f41237185a6240d41c0d65b34cf69ecb5714df756a51a9d6985dd985df",
        "S3": "be14384a6a2aa458fdf8d48e5c4404c36b0ce035063311ba2c8eb6f39e05ca71",
        "Sbar1": "765366eefac77a022f40e695fa48dc70cde92d71ffa6567d18ba196940b14bf3",
        "Sbar2": "068d4e44816ba5fd57f610a447a2c92d17781310dc74454bcf9834a33f20683b",
    },
    "quadratic": {
        "S1": "08a9bc338e18f70cd71f8f5bc12b9ffb8f4507148feb84cbea2cda3a8b49a3f4",
        "S2": "5ac726128badfa4e28964fb2a22eac0ce0494d8792496d0f5d68f64c365ff35a",
        "S3": "eac4b07848ccba551c183eacc8cac6bf7fea5d981a5ddcd048a03d3551b40b1d",
        "Sbar1": "5ca34b48808b2786a01d47f436aa6627d13853acb84004171b3625a550060992",
        "Sbar2": "614e94c8891144fef7e234b83cd10f212aa8f961d5932e2e7fa6a639f65dff30",
    },
    "cubic": {
        "S1": "1f2c25f269c17a3f7791161614ac2d7df0e0e3c5831348f527a4f3754fa0c820",
        "S2": "e62e95c5e677fe479e85d929f39711c3a6a8c6ac1fb1fdcb1eb2d93479395452",
        "S3": "e59bd571efba663a5d8bea66510695272bb0aecff7c725b2ea134b5f8214bc1c",
        "Sbar1": "3d8df43831384747256005551caccf821f52e490789035259946dbebe7e45813",
        "Sbar2": "930b3c86687f29f8fbdbb59656ea4af7fcc907bce044baac80e4c371a6e8f816",
    },
    "qed": {
        "S1": "dd63b9e577884e37b0cb622b860de87287318ff5573fe57040ad1904690c9cbc",
        "S2": "7305bd9429c2a0265a4233f9d61db1209717dc4c8f5e8cfa1e3c330081e24468",
        "S3": "c58232309bd7370885ed0cfbc15de7954f825891ceecab546247087db1ad3d63",
        "Sbar1": "d4d274ae3a6bafaa2bfe4ec80f3d764c00eb390c90d088a256de8520f765d375",
        "Sbar2": "a54bebf9acae26aed244fd0eaf58b6647f59071eda389ae94811a751920be1a5",
    },
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("order", sorted(_WICK_EXPAND_SHA256))
def test_wick_expand_json_is_unchanged(order, tmp_path):
    assert cli.main(["wick-expand", "--order", str(order), "--out", str(tmp_path)]) == 0
    text = (tmp_path / f"wick_order{order}.json").read_text()
    assert _sha256(text) == _WICK_EXPAND_SHA256[order]


@pytest.mark.parametrize("vertex", sorted(_SERIES_SHA256))
def test_series_json_is_unchanged(vertex):
    V = {"linear": lambda: scalar_vertex("x1", 1), "quadratic": lambda: scalar_vertex("x1", 2),
         "cubic": lambda: scalar_vertex("x1", 3), "qed": lambda: qed_vertex("x1")}[vertex]()
    data = OrderData(S={1: V.scaled(0.3j)})
    extend_series(data, 3)
    got = {f"{name}{k}": _sha256(kernels[k].to_json())
           for name, kernels in (("S", data.S), ("Sbar", data.Sbar)) for k in kernels}
    assert got == _SERIES_SHA256[vertex]
