"""Inductive construction of the perturbative scattering operator:
series inversion, the partition sums for the auxiliary kernels A'_n and
R'_n, their causal difference D_n, and assembly of S_n from a splitting
of D_n.  Every vertex and switching function is bosonic, so each
partition term enters its sum with one fixed sign: +1 in A'_n and R'_n,
-1 in Sbar_n.  Numeric causal-support verification runs on a 1D lattice
toy model (a single damped oscillator mode) where retarded support is
machine-checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .splitting import _converge, _sampled
from .wick import ONE, Factor, WickMonomial, WickPolynomial, operator_product


class SeriesError(ValueError):
    """Missing or inconsistent perturbative orders."""


def slot_names(k: int, offset: int = 0):
    return tuple(f"x{i}" for i in range(1 + offset, k + 1 + offset))


def partition_count(n: int) -> int:
    """Number of (X, Y) partitions of n-1 variables with X nonempty."""
    return 2 ** (n - 1) - 1


@dataclass
class OrderData:
    """Perturbative orders S_k and the inverse-series orders Sbar_k.

    Kernels are stored with canonical slots x1..xk and relabeled to
    subsets on demand (permutation symmetry of the kernels assumed).
    """

    S: dict = field(default_factory=dict)
    Sbar: dict = field(default_factory=dict)

    def S_at(self, labels) -> WickPolynomial:
        k = len(labels)
        if k == 0:
            return ONE
        if k not in self.S:
            raise SeriesError(f"S_{k} not available")
        return self.S[k].relabel(dict(zip(slot_names(k), labels)))

    def Sbar_at(self, labels) -> WickPolynomial:
        k = len(labels)
        if k == 0:
            return ONE
        if k not in self.Sbar:
            raise SeriesError(f"Sbar_{k} not available")
        return self.Sbar[k].relabel(dict(zip(slot_names(k), labels)))


def invert_series(data: OrderData, n: int) -> None:
    """Fill data.Sbar up to order n from S Sbar = 1 order by order.

    Sbar(Z) = - sum over subsets X of Z with X nonempty of
    S(X) Sbar(Z minus X); in particular Sbar_1 = -S_1.
    """
    for k in range(1, n + 1):
        if k in data.Sbar:
            continue
        if k not in data.S:
            raise SeriesError(f"S_{k} needed to invert the series at order {k}")

        def products(j):
            return (operator_product(data.S_at(slot_names(j)),
                                     data.Sbar_at(slot_names(k - j, offset=j))),)

        (data.Sbar[k],) = _partition_sums(slot_names(k), (), (-1,), products)


def _proper_partitions(labels):
    """Ordered pairs (X, Y) of complementary sublists with X nonempty."""
    labels = tuple(labels)
    n = len(labels)
    for mask in range(1, 2 ** n):
        X = tuple(labels[i] for i in range(n) if mask & (1 << i))
        Y = tuple(labels[i] for i in range(n) if not mask & (1 << i))
        yield X, Y


def _partition_sums(Z, tail, signs, products):
    """Partition sums over Z = X disjoint-union Y with X nonempty.

    The kernels are permutation symmetric (Epstein-Glaser), so every
    partition with |X| = j gives a relabelled copy of one product on
    canonical slots.  products(j) returns one product per sum, one per
    entry of `signs`, with X on x1..xj, Y on the next slots and tail last.
    Each sum adds its product relabelled to X + Y + tail, times its fixed
    sign, term by term with no polynomial built per partition: the
    relabelling permutes the canonical slots, so no two terms of a product
    merge or vanish.  The partitions are visited in `_proper_partitions`
    order, so every key adds its float terms in the order of a
    per-partition loop, and each size's products are dropped after their
    last partition.
    """
    canonical = slot_names(len(Z) + len(tail))
    remaining = {j: math.comb(len(Z), j) for j in range(1, len(Z) + 1)}
    held, sums = {}, [{} for _ in signs]
    for X, Y in _proper_partitions(Z):
        j = len(X)
        if j not in held:
            held[j] = products(j)
        mapping = dict(zip(canonical, X + Y + tail))
        for total, product, sign in zip(sums, held[j], signs):
            for key, c in product._relabelled(mapping):
                total[key] = total.get(key, 0) + sign * c
        remaining[j] -= 1
        if not remaining[j]:
            del held[j]
    return [WickPolynomial._canonical(total.items()) for total in sums]


@dataclass
class InductiveStep:
    order: int
    Aprime: WickPolynomial
    Rprime: WickPolynomial
    D: WickPolynomial
    n_partitions: int


MAX_SYMBOLIC_ORDER = 6


def build_Aprime_Rprime(n: int, data: OrderData) -> InductiveStep:
    """Partition sums over Z = X disjoint-union Y with X nonempty:

    A'_n = sum Sbar(X) S(Y, x_n)
    R'_n = sum S(Y, x_n) Sbar(X)
    D_n  = R'_n - A'_n
    """
    if n > MAX_SYMBOLIC_ORDER:
        raise SeriesError(f"symbolic order {n} exceeds the cap {MAX_SYMBOLIC_ORDER}")
    if n < 1:
        raise SeriesError("order must be >= 1")
    invert_series(data, n - 1)

    def products(j):
        SbX = data.Sbar_at(slot_names(j))
        SY = data.S_at(slot_names(n - j, offset=j))
        return operator_product(SbX, SY), operator_product(SY, SbX)

    Ap, Rp = _partition_sums(slot_names(n - 1), (f"x{n}",), (1, 1), products)
    scale = max(Ap.max_abs_coeff(), Rp.max_abs_coeff(), 1.0)
    D = (Rp - Ap).chopped(1e-12, scale=scale)
    return InductiveStep(order=n, Aprime=Ap, Rprime=Rp, D=D, n_partitions=partition_count(n))


def _coefficient_key(factors) -> str:
    """Canonical string identifying a monomial's coefficient factors."""
    return ";".join(f"{f.kind}:{f.name}:{f.args}" for f in sorted(factors))


def symbolic_split(D: WickPolynomial, order: int):
    """Symbolic splitting of the causal kernel D.

    Each monomial's coefficient c is replaced by a retarded-part tag
    ret[c]; the advanced polynomial is ret - D, so the defining relation
    ret - adv = D holds identically.
    """
    ret_terms = []
    for m in D.terms:
        tag = Factor("ret", _coefficient_key(m.factors), (order,))
        ret_terms.append(WickMonomial(m.coeff, (tag,), m.legs))
    ret_poly = WickPolynomial(ret_terms)
    adv_poly = ret_poly - D
    return ret_poly, adv_poly


def assemble_Sn(step: InductiveStep, splits=None):
    """S_n = ret D_n - R'_n = adv D_n - A'_n.

    splits: optional (ret, adv) pair of WickPolynomials; defaults to the
    symbolic split of step.D.  Returns (S_n, route_difference) where the
    difference of the two assembly routes must be the zero polynomial.
    """
    if splits is None:
        splits = symbolic_split(step.D, step.order)
    ret_poly, adv_poly = splits
    if not (ret_poly - adv_poly) == step.D:
        raise SeriesError("supplied split does not reproduce D = ret - adv")
    via_ret = ret_poly - step.Rprime
    via_adv = adv_poly - step.Aprime
    scale = max(step.Rprime.max_abs_coeff(), step.Aprime.max_abs_coeff(), 1.0)
    diff = (via_ret - via_adv).chopped(1e-9, scale=scale)
    return via_ret, diff


def extend_series(data: OrderData, up_to: int) -> None:
    """Build S_2..S_up_to by induction with symbolic splits."""
    for k in range(2, up_to + 1):
        if k in data.S:
            continue
        step = build_Aprime_Rprime(k, data)
        Sk, diff = assemble_Sn(step)
        if not diff.is_zero():
            raise SeriesError(f"assembly routes disagree at order {k}")
        data.S[k] = Sk


# ---------------------------------------------------------------------------
# 1D lattice toy model: one damped oscillator mode.  The pairing function
# is Dplus(t) = exp(-i w0 t - g |t|) / (2 w0); its k-th power drives the
# order-2 causal kernels, with transforms given by Lorentzian pairs.

@dataclass
class LatticeToy:
    omega0: float = 1.0
    gamma: float = 0.3

    def dplus_t(self, t: float, k: int = 1) -> complex:
        w, g = self.omega0, self.gamma
        return np.exp(-1j * k * w * t - k * g * abs(t)) / (2.0 * w) ** k

    def commutator_hat(self, E: float, k: int = 1) -> complex:
        """Transform of the causal coefficient D_k(t) = Dplus(t)^k -
        Dplus(-t)^k: two Lorentzian pairs."""
        w, g = self.omega0, self.gamma
        kw, kg = k * w, k * g

        def lor(x):
            return 2.0 * kg / (kg * kg + x * x)

        return (lor(E - kw) - lor(E + kw)) / (2.0 * w) ** k

    def retarded_hat_exact(self, E: float, k: int = 1) -> complex:
        """theta(t) D_k(t) transformed, in closed form (the oracle)."""
        w, g = self.omega0, self.gamma
        kw, kg = k * w, k * g
        return (1.0 / (kg - 1j * (E - kw)) - 1.0 / (kg - 1j * (E + kw))) / (2.0 * w) ** k


# trapezoid interval counts at which window_smear tests convergence
_SMEAR_MIN, _SMEAR_MAX = 64, 2 ** 16


def _smear_levels(fhat, t0: float, sigma: float):
    """The trapezoid sum of `window_smear` with n = 64, 128, ... intervals,
    against its every-other-node sum; each level reuses the old nodes and
    passes only the new ones to fhat."""
    pref = sigma * math.sqrt(2.0 * math.pi)
    L = 10.0 / sigma

    def node_sum(Es):
        vals = np.asarray(_sampled("window_smear", fhat, Es), dtype=complex)
        return np.sum(pref * vals * np.exp(-0.5 * (sigma * Es) ** 2 - 1j * Es * t0))

    n, total = 1, 0.5 * node_sum(np.array([-L, L]))  # trapezoid sum / h, one interval
    while n < _SMEAR_MAX:
        n, h = 2 * n, L / n  # h = 2L / (new n)
        coarse, total = 2.0 * h * total, total + node_sum(-L + h * np.arange(1, n, 2))
        if n >= _SMEAR_MIN:
            fine = h * total
            yield n, complex(fine) / (2.0 * math.pi), abs(fine - coarse), max(
                1e-13, 1e-12 * abs(fine))


def window_smear(fhat, t0: float, sigma: float = 0.1) -> complex:
    """Pairing of f with the Gaussian window centered at t0.

    Computes integral f(t) chi(t) dt = (1/2 pi) integral fhat(E)
    chihat(-E) dE for chi(t) = exp(-(t-t0)^2 / (2 sigma^2)); the Gaussian
    transform factor makes the E-integral converge on a finite range.  It is
    a trapezoid sum (Trefethen & Weideman, SIAM Rev. 56 (2014) 385) whose
    step is halved until it agrees with its every-other-node sum.  fhat
    takes the new nodes of each level as one ndarray and returns an array
    of its shape.
    """
    return _converge("window_smear", _smear_levels(fhat, t0, sigma))[0]


# window centers |t| and width at which lattice_support_check smears
_SUPPORT_T, _SUPPORT_SIGMA = (1.0, 2.0, 3.0), 0.1


def lattice_support_check(fhat, side: str = "retarded") -> dict:
    """Max window-smeared magnitude on the forbidden side.

    side = "retarded": windows at t = -1, -2, -3 must pair to ~0;
    "advanced": windows at t = +1, +2, +3.  Any other side raises
    ValueError.
    """
    if side not in ("retarded", "advanced"):
        raise ValueError(f"side must be 'retarded' or 'advanced', got {side!r}")
    sgn = -1.0 if side == "retarded" else 1.0
    forbidden = [window_smear(fhat, sgn * t, _SUPPORT_SIGMA) for t in _SUPPORT_T]
    allowed = [window_smear(fhat, -sgn * t, _SUPPORT_SIGMA) for t in _SUPPORT_T]
    ref = max(abs(v) for v in allowed)
    return {
        "leakage": max(abs(v) for v in forbidden) / max(ref, 1e-300),
        "reference": ref,
        "side": side,
    }
