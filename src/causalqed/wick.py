"""Symbolic Wick calculus: fields as sums of emission/absorption legs,
normal-ordered monomials, and operator products expanded by contraction
enumeration.

Coefficients stay symbolic: a monomial carries a complex prefactor and a
multiset of factors (pairing functions, vertex tags, retarded-part
wrappers).  Nothing here evaluates an integral; the numeric layers map
factor tags to functions.

Inside a polynomial every leg and every factor is a small int code.  Two
process-wide tables, `_LEGS` and `_FACTORS`, intern each distinct
`FieldLeg` and `Factor` once, in first-seen order, and map each code back
to its object.  Codes do not follow the objects' order, so each table
also ranks its codes, and every ordering operator sorts codes by rank.
The tables grow with the distinct legs and factors a process meets, not
with the number of polynomials it builds.
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


class _Codes(dict):
    """Intern table: maps each distinct object to a small int code, handed
    out in first-seen order, and `items[code]` back to the object.

    Codes do not follow the objects' order, so every ordering operator
    sorts codes by `rank`: rank[code] is the object's place in `sort_key`
    order (equal keys share a rank).  The ranks are rebuilt only when a
    code has arrived since they were last read, so an operation interns
    all its objects before it reads them.  Interning is not safe from two
    threads at once.
    """

    def __init__(self, sort_key):
        super().__init__()
        self.items = []
        self._sort_key = sort_key
        self._keys = []
        self._rank = []

    def __missing__(self, obj):
        key = self._sort_key(obj)
        code = self[obj] = len(self.items)
        self.items.append(obj)
        self._keys.append(key)
        return code

    @property
    def rank(self):
        if len(self._rank) < len(self._keys):
            place = {k: i for i, k in enumerate(sorted(set(self._keys)))}
            self._rank = [place[k] for k in self._keys]
        return self._rank


class _LegCodes(_Codes):
    """The leg table; `fermi[code]` says whether the leg is fermionic."""

    def __init__(self):
        super().__init__(FieldLeg.sort_key)
        self.fermi = []

    def __missing__(self, leg):
        fermi = FIELDS[leg.field][0] == FERMI
        code = super().__missing__(leg)
        self.fermi.append(fermi)
        return code


def _factor_sort_key(f):
    # Factor order, made total: within one arg position, numbers sort
    # before strings instead of failing to compare
    return f.kind, f.name, tuple((isinstance(a, str), a) for a in f.args)


# process-wide, so equal polynomials have equal keys in every call
_LEGS = _LegCodes()
_FACTORS = _Codes(_factor_sort_key)


def _normal_order(legs):
    """Stable-sort leg codes by rank; return (sign, tuple) or None.

    Returns None when two identical fermionic legs collide (the monomial
    vanishes).  The sign is the fermionic sign of the reordering.
    """
    rank, fermi = _LEGS.rank, _LEGS.fermi
    if not any(map(fermi.__getitem__, legs)):
        return 1, tuple(sorted(legs, key=rank.__getitem__))
    indexed = sorted(range(len(legs)), key=lambda i: rank[legs[i]])
    ordered = tuple([legs[i] for i in indexed])
    if len(set(ordered)) < len(ordered) and any(
            a == b and fermi[a] for a, b in zip(ordered, ordered[1:])):
        return None
    return inversion_sign([i for i in indexed if fermi[legs[i]]]), ordered


class WickMonomial(NamedTuple):
    coeff: complex
    factors: tuple  # sorted tuple of Factor
    legs: tuple  # normal-ordered tuple of FieldLeg


class WickPolynomial:
    """Finite sum of normal-ordered monomials, merged on construction.

    `_terms` maps (factor codes sorted by rank, normal-ordered leg codes)
    to a nonzero coefficient; the codes are those of `_FACTORS` and
    `_LEGS`.  Sums, scalings and filters of polynomials keep that form,
    so they merge or filter `_terms` without normal-ordering again.
    """

    def __init__(self, monomials=()):
        coded = [(coeff, tuple(map(_FACTORS.__getitem__, factors)),
                  tuple(map(_LEGS.__getitem__, legs))) for coeff, factors, legs in monomials]
        frank = _FACTORS.rank
        orders = _Memo(_normal_order)  # monomials repeat few leg tuples
        table = {}
        for coeff, factors, legs in coded:
            res = orders[legs]
            if res is None:
                continue
            sign, ordered = res
            key = (tuple(sorted(factors, key=frank.__getitem__)), ordered)
            table[key] = table.get(key, 0) + sign * coeff
        self._terms = {k: v for k, v in table.items() if v != 0}

    @classmethod
    def _canonical(cls, items):
        """Polynomial from (key, coeff) pairs with distinct canonical keys."""
        poly = cls.__new__(cls)
        poly._terms = {k: c for k, c in items if c != 0}
        return poly

    def _ordered(self):
        """(factor codes, leg codes, coeff) of every term, in `terms` order."""
        lrank, frank = _LEGS.rank, _FACTORS.rank
        return sorted(((f, l, c) for (f, l), c in self._terms.items()),
                      key=lambda t: (tuple(map(lrank.__getitem__, t[1])),
                                     tuple(map(frank.__getitem__, t[0]))))

    @property
    def terms(self):
        factor, leg = _FACTORS.items.__getitem__, _LEGS.items.__getitem__
        return [WickMonomial(c, tuple(map(factor, f)), tuple(map(leg, l)))
                for f, l, c in self._ordered()]

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
        """Rename spacetime slots in legs and factor args."""
        table = {}
        for key, c in self._relabelled(mapping):
            table[key] = table.get(key, 0) + c
        return WickPolynomial._canonical(table.items())

    def _relabelled(self, mapping):
        """(key, coeff) of every term with its slots renamed, in `_terms`
        order and not merged.  A mapping that is injective on the slots
        keeps distinct keys distinct and no term vanishes.

        A polynomial repeats few distinct legs and factors over many
        terms, so each is renamed once per call, into one code-to-code
        table for legs and one for factors.
        """

        def ren(s):
            return mapping.get(s, s)

        if not self._terms:
            return
        factor_tuples, leg_tuples = map(dict.fromkeys, zip(*self._terms))
        factors, legs = _FACTORS.items, _LEGS.items
        fmap = {}
        for code in {c for f in factor_tuples for c in f}:
            f = factors[code]
            fmap[code] = _FACTORS[Factor(
                f.kind, f.name, tuple(ren(a) if isinstance(a, str) else a for a in f.args))]
        lmap = {}
        for code in {c for l in leg_tuples for c in l}:
            l = legs[code]
            lmap[code] = _LEGS[FieldLeg(l.field, l.character, ren(l.slot), l.index)]
        frank = _FACTORS.rank
        for f in factor_tuples:
            factor_tuples[f] = tuple(sorted(map(fmap.__getitem__, f), key=frank.__getitem__))
        for l in leg_tuples:
            leg_tuples[l] = _normal_order(tuple(map(lmap.__getitem__, l)))
        for (f, l), c in self._terms.items():
            res = leg_tuples[l]
            if res is not None:
                yield (factor_tuples[f], res[1]), res[0] * c

    def to_json(self) -> str:
        def factor_row(code):
            f = _FACTORS.items[code]
            return [f.kind, f.name, list(f.args)]

        # each distinct factor and leg is written out once and shared by rows
        factor, leg = _Memo(factor_row), _Memo(lambda code: list(_LEGS.items[code]))
        rows = []
        for f, l, c in self._ordered():
            c = complex(c)
            rows.append(
                {
                    # + 0.0 prints a signed zero as 0.0
                    "coeff": [c.real + 0.0, c.imag + 0.0],
                    "factors": list(map(factor.__getitem__, f)),
                    "legs": list(map(leg.__getitem__, l)),
                }
            )
        return json.dumps({"terms": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WickPolynomial":
        """Inverse of to_json; a leg of a field outside FIELDS, with a
        character other than cre/ann, or with a slot or index that is not a
        string raises ValueError."""
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
                if not (isinstance(leg.slot, str) and isinstance(leg.index, str)):
                    raise ValueError(f"leg slot and index must be strings: {leg!r}")
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


def _contractions(legs_a, legs_b, pair_code):
    """(pair-factor codes, sign, uncontracted leg codes, repeats) of the
    contractions of annihilation legs of legs_a against creation legs of
    legs_b, for two normal-ordered tuples of leg codes.  pair_code maps an
    (annihilation, creation) pair of leg codes to its pairing-factor code.

    The uncontracted legs come normal-ordered: those of A and of B are two
    sorted runs, merged by one stable sort by rank.  The sign is the
    fermionic sign of the reorder that puts each contracted pair side by
    side, in annihilation-position order, ahead of the normal-ordered
    uncontracted legs.  A contraction that leaves two identical fermionic
    legs vanishes and is left out.

    Matchings that differ only in which of several identical bosonic legs
    they contract give the same factors, legs and sign; they are listed
    once, where the first of them falls in `_matchings` order, with their
    count as `repeats`.
    """
    legs, rank, fermi = _LEGS.items, _LEGS.rank, _LEGS.fermi
    legs_all = legs_a + legs_b
    offset = len(legs_a)
    ann_a = [(i, legs[c]) for i, c in enumerate(legs_a) if legs[c].character == ANNIHILATION]
    cre_b = [(offset + j, legs[c]) for j, c in enumerate(legs_b)
             if legs[c].character == CREATION]
    # a stable sort of all legs, filtered, is the stable sort of the alive ones
    merged = sorted(range(len(legs_all)), key=[rank[c] for c in legs_all].__getitem__)
    is_fermi = list(map(fermi.__getitem__, legs_all))
    graded = any(is_fermi)
    out = {}
    for pairs in _matchings(ann_a, cre_b):
        contracted = tuple(sorted([(legs_all[pa], legs_all[pb]) for (pa, _), (pb, _) in pairs]))
        entry = out.get(contracted)
        if entry is None:
            order = [p for (pa, _), (pb, _) in pairs for p in (pa, pb)]
            alive = [k for k in merged if k not in order] if pairs else merged
            ordered = tuple([legs_all[k] for k in alive])
            sign = 1
            if graded:
                if len(set(ordered)) < len(ordered) and any(
                        a == b and fermi[a] for a, b in zip(ordered, ordered[1:])):
                    sign = 0  # vanishes
                else:
                    sign = inversion_sign([k for k in order + alive if is_fermi[k]])
            entry = out[contracted] = [tuple(map(pair_code.__getitem__, contracted)),
                                       sign, ordered, 0]
        entry[3] += 1
    return [entry for entry in out.values() if entry[1]]


def operator_product(A: WickPolynomial, B: WickPolynomial) -> WickPolynomial:
    """Operator product expanded into normal form (Wick theorem).

    Sums over all ways to contract annihilation legs of A against
    creation legs of B of the matching field type; every contraction
    contributes a pairing factor and a fermionic sign (`_contractions`).
    Many monomials share their legs, so the contractions are enumerated
    once per pair of leg tuples.  Each matching adds sign * (ca * cb) to
    its key, in `terms` order of A and of B and in `_matchings` order.
    """
    a_terms, b_terms = A._ordered(), B._ordered()
    legs = _LEGS.items
    pair_code = _Memo(lambda ab: _FACTORS[pair_factor(legs[ab[0]], legs[ab[1]])])
    contractions = {(la, lb): _contractions(la, lb, pair_code)
                    for la in dict.fromkeys(t[1] for t in a_terms)
                    for lb in dict.fromkeys(t[1] for t in b_terms)}
    frank = _FACTORS.rank  # read after every pair factor is interned
    out = {}
    for fa, la, ca in a_terms:
        for fb, lb, cb in b_terms:
            factors, cab = fa + fb, ca * cb
            for pair_factors, sign, alive, repeats in contractions[la, lb]:
                key = (tuple(sorted(factors + pair_factors, key=frank.__getitem__)), alive)
                total, term = out.get(key, 0), sign * cab
                for _ in range(repeats):  # one float addition per matching
                    total = total + term
                out[key] = total
    return WickPolynomial._canonical(out.items())


def vacuum_expectation(P: WickPolynomial) -> WickPolynomial:
    """Leg-free (vacuum graph) part of a polynomial."""
    return WickPolynomial._canonical((k, c) for k, c in P._terms.items() if not k[1])
