"""Symbolic Wick calculus: fields as sums of emission/absorption legs,
normal-ordered monomials, and operator products expanded by contraction
enumeration.

Coefficients stay symbolic: a monomial carries a complex prefactor and a
multiset of factors (pairing functions, vertex tags, retarded-part
wrappers).  Nothing here evaluates an integral; the numeric layers map
factor tags to functions.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .grassmann import FERMI, inversion_sign

CREATION = "cre"
ANNIHILATION = "ann"

# field name -> (grade, contraction partner)
FIELDS = {
    "scalar": (0, "scalar"),
    "photon": (0, "photon"),
    "psi": (1, "psibar"),
    "psibar": (1, "psi"),
}

# pairing-function tag for an annihilation leg of `left` meeting a
# creation leg of `right`
_PAIR_NAMES = {
    ("scalar", "scalar"): "D+",
    ("photon", "photon"): "D0+",
    ("psi", "psibar"): "S+",
    ("psibar", "psi"): "Sbar+",
}


class ContractionError(ValueError):
    """Requested contraction between incompatible field legs."""


class FieldLeg(NamedTuple):
    """One emission or absorption leg of a field at a spacetime slot.

    A tuple, so hashing and equality run in C; every ordering operator
    follows `sort_key` (creation legs first), not tuple order.
    """

    field: str
    character: str  # "cre" | "ann"
    slot: str  # spacetime variable label
    index: str = ""

    @property
    def grade(self) -> int:
        return FIELDS[self.field][0]

    def sort_key(self):
        # creation legs left of annihilation legs, then field/slot/index
        return (0 if self.character == CREATION else 1, self.field, self.slot, self.index)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()


class Factor(NamedTuple):
    """A symbolic coefficient factor, ordered by (kind, name, args)."""

    kind: str  # "pair" | "tag" | "ret"
    name: str
    args: tuple = ()


def pair_factor(left: FieldLeg, right: FieldLeg) -> Factor:
    name = _PAIR_NAMES.get((left.field, right.field))
    if name is None:
        raise ContractionError(f"cannot contract {left.field} with {right.field}")
    return Factor("pair", name, (left.slot, right.slot, left.index, right.index))


class _Memo(dict):
    """A dict that fills a missing key k with fn(k)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _normal_order(legs):
    """Stable-sort legs into canonical order; return (sign, tuple) or None.

    Returns None when two identical fermionic legs collide (the monomial
    vanishes).  The sign is the fermionic sign of the reordering.
    """
    keys = [leg.sort_key() for leg in legs]
    indexed = sorted(range(len(legs)), key=keys.__getitem__)
    ordered = tuple([legs[i] for i in indexed])
    if len(set(ordered)) < len(ordered):
        for a, b in zip(ordered, ordered[1:]):
            if a == b and a.grade == FERMI:
                return None
    return inversion_sign([i for i in indexed if legs[i].grade == FERMI]), ordered


class WickMonomial(NamedTuple):
    coeff: complex
    factors: tuple  # sorted tuple of Factor
    legs: tuple  # normal-ordered tuple of FieldLeg


class WickPolynomial:
    """Finite sum of normal-ordered monomials, merged on construction.

    `_terms` maps (sorted factors, normal-ordered legs) to a nonzero
    coefficient.  Sums, scalings and filters of polynomials keep that
    form, so they merge or filter `_terms` without normal-ordering again.
    """

    def __init__(self, monomials=()):
        table = {}
        orders = _Memo(_normal_order)  # monomials repeat few leg tuples
        for coeff, factors, legs in monomials:
            res = orders[tuple(legs)]
            if res is None:
                continue
            sign, ordered = res
            key = (tuple(sorted(factors)), ordered)
            table[key] = table.get(key, 0) + sign * coeff
        self._terms = {k: v for k, v in table.items() if v != 0}

    @classmethod
    def _canonical(cls, items):
        """Polynomial from (key, coeff) pairs with distinct canonical keys."""
        poly = cls.__new__(cls)
        poly._terms = {k: c for k, c in items if c != 0}
        return poly

    @property
    def terms(self):
        return [WickMonomial(c, f, l) for (f, l), c in sorted(
            self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))]

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return isinstance(other, WickPolynomial) and self._terms == other._terms

    def __add__(self, other):
        merged = dict(self._terms)
        for key, c in other._terms.items():
            merged[key] = merged.get(key, 0) + c
        return WickPolynomial._canonical(merged.items())

    def __sub__(self, other):
        merged = dict(self._terms)
        for key, c in other._terms.items():
            merged[key] = merged.get(key, 0) - c
        return WickPolynomial._canonical(merged.items())

    def scaled(self, z):
        return WickPolynomial._canonical((k, z * c) for k, c in self._terms.items())

    def is_zero(self):
        return not self._terms

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def chopped(self, rel_tol: float, scale: float = None) -> "WickPolynomial":
        """Drop terms with |coeff| <= rel_tol * scale (float-residue cleanup)."""
        if scale is None:
            scale = self.max_abs_coeff()
        cut = rel_tol * scale
        return WickPolynomial._canonical((k, c) for k, c in self._terms.items() if abs(c) > cut)

    def relabel(self, mapping):
        """Rename spacetime slots in legs and factor args.

        A polynomial repeats few distinct legs and factors over many
        terms, so each is renamed once per call.
        """

        def ren(s):
            return mapping.get(s, s)

        leg = _Memo(lambda l: FieldLeg(l.field, l.character, ren(l.slot), l.index))
        factor = _Memo(lambda f: Factor(
            f.kind, f.name, tuple(ren(a) if isinstance(a, str) else a for a in f.args)))
        return WickPolynomial([
            (c, tuple(map(factor.__getitem__, factors)), tuple(map(leg.__getitem__, legs)))
            for (factors, legs), c in self._terms.items()])

    def to_json(self) -> str:
        rows = []
        for m in self.terms:
            c = complex(m.coeff)
            rows.append(
                {
                    # + 0.0 prints a signed zero as 0.0
                    "coeff": [c.real + 0.0, c.imag + 0.0],
                    "factors": [[f.kind, f.name, list(f.args)] for f in m.factors],
                    "legs": [[l.field, l.character, l.slot, l.index] for l in m.legs],
                }
            )
        return json.dumps({"terms": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WickPolynomial":
        """Inverse of to_json; a leg of a field outside FIELDS or with a
        character other than cre/ann raises ValueError."""
        obj = json.loads(text)
        monos = []
        for row in obj["terms"]:
            coeff = complex(row["coeff"][0], row["coeff"][1])
            factors = tuple(Factor(k, n, tuple(a)) for k, n, a in row["factors"])
            legs = tuple(FieldLeg(f, c, s, i) for f, c, s, i in row["legs"])
            for leg in legs:
                if leg.field not in FIELDS:
                    raise ValueError(f"unknown field {leg.field!r}")
                if leg.character not in (CREATION, ANNIHILATION):
                    raise ValueError(f"unknown leg character {leg.character!r}")
            monos.append(WickMonomial(coeff, factors, legs))
        return cls(monos)


ONE = WickPolynomial([WickMonomial(1.0 + 0.0j, (), ())])


def free_field(fname: str, slot: str, index: str = "") -> WickPolynomial:
    """A free field as its emission plus absorption kernel parts."""
    if fname not in FIELDS:
        raise ValueError(f"unknown field {fname!r}")
    return WickPolynomial(
        [
            WickMonomial(1.0 + 0.0j, (), (FieldLeg(fname, CREATION, slot, index),)),
            WickMonomial(1.0 + 0.0j, (), (FieldLeg(fname, ANNIHILATION, slot, index),)),
        ]
    )


def wick_product(factors, coeff=1.0 + 0.0j, extra_factors=()) -> WickPolynomial:
    """Normal-ordered (Wick) product: no contractions, kernels multiply."""
    result = [((coeff), tuple(sorted(extra_factors)), ())]
    for poly in factors:
        new = []
        for c0, f0, l0 in result:
            for m in poly.terms:
                new.append((c0 * m.coeff, tuple(sorted(f0 + m.factors)), l0 + m.legs))
        result = new
    return WickPolynomial(result)


def qed_vertex(slot: str) -> WickPolynomial:
    """The spinor QED interaction monomial :psibar gamma^mu psi A_mu:(x)."""
    gamma = Factor("tag", "gamma", (slot,))
    return wick_product(
        [
            free_field("psibar", slot, "a"),
            free_field("psi", slot, "b"),
            free_field("photon", slot, "mu"),
        ],
        extra_factors=(gamma,),
    )


def scalar_vertex(slot: str, power: int = 3) -> WickPolynomial:
    """Scalar toy interaction :phi^power:(x) / power!."""
    fact = 1.0
    for k in range(2, power + 1):
        fact *= k
    return wick_product([free_field("scalar", slot) for _ in range(power)], coeff=1.0 / fact)


def _matchings(ann_legs, cre_legs):
    """All injective partial matchings of contractible (ann, cre) pairs,
    each listed in annihilation-position order."""

    def rec(i):
        if i == len(ann_legs):
            yield []
            return
        pos_a, leg_a = ann_legs[i]
        partner = FIELDS[leg_a.field][1]
        for rest in rec(i + 1):
            yield rest
            used = {pos_b for _, (pos_b, _) in rest}
            for pos_b, leg_b in cre_legs:
                if pos_b in used:
                    continue
                if leg_b.field == partner:
                    yield [((pos_a, leg_a), (pos_b, leg_b))] + rest

    return rec(0)


def _contractions(legs):
    """(pairing factors, sign, uncontracted legs) of every contraction of
    annihilation legs of legs_a against creation legs of legs_b, for
    legs = (legs_a, legs_b).

    The sign is the fermionic sign of the reorder that puts each
    contracted pair side by side, in annihilation-position order, ahead of
    the uncontracted legs.
    """
    legs_a, legs_b = legs
    legs_all = legs_a + legs_b
    offset = len(legs_a)
    ann_a = [(i, leg) for i, leg in enumerate(legs_a) if leg.character == ANNIHILATION]
    cre_b = [(offset + j, leg) for j, leg in enumerate(legs_b) if leg.character == CREATION]
    out = []
    for pairs in _matchings(ann_a, cre_b):
        pair_factors, order = [], []
        for (pa, la), (pb, lb) in pairs:
            order += (pa, pb)
            pair_factors.append(pair_factor(la, lb))
        dead = set(order)
        alive = [k for k in range(len(legs_all)) if k not in dead]
        sign = inversion_sign([k for k in order + alive if legs_all[k].grade == FERMI])
        out.append((tuple(pair_factors), sign, tuple(legs_all[k] for k in alive)))
    return out


def operator_product(A: WickPolynomial, B: WickPolynomial) -> WickPolynomial:
    """Operator product expanded into normal form (Wick theorem).

    Sums over all ways to contract annihilation legs of A against
    creation legs of B of the matching field type; every contraction
    contributes a pairing factor and a fermionic sign (`_contractions`).
    Many monomials share their legs, so the contractions are enumerated
    once per pair of leg tuples.
    """
    out = []
    contractions = _Memo(_contractions)
    b_terms = B.terms
    for ma in A.terms:
        for mb in b_terms:
            factors = ma.factors + mb.factors
            for pair_factors, sign, alive in contractions[ma.legs, mb.legs]:
                out.append((sign * ma.coeff * mb.coeff, factors + pair_factors, alive))
    return WickPolynomial(out)


def vacuum_expectation(P: WickPolynomial) -> WickPolynomial:
    """Leg-free (vacuum graph) part of a polynomial."""
    return WickPolynomial._canonical((k, c) for k, c in P._terms.items() if not k[1])
