"""Truncated Fock space over a finite momentum grid.

Creation/annihilation operators at sharp grid momenta are realized with
the discrete delta normalization delta(p-q) -> delta_ij / w_i, so that
quadrature sums over the grid approximate the continuum momentum
integrals and the (anti)commutators come out exactly delta_ij / w_i on
states below the particle-number cutoff.  Kernel operators with l
creation and m annihilation slots are evaluated through the dual
pairing against the function eta(p_1..p_l, q_1..q_m) built from ladder
operators.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

BOSE = "bose"
FERMI = "fermi"


class TruncationError(RuntimeError):
    """Creation would push a state past the particle-number cutoff."""


@dataclass(frozen=True)
class GridPoint:
    momentum: tuple  # 3-momentum sample
    spin: int = 0
    field: str = "scalar"


@dataclass
class MomentumGrid:
    points: list
    weights: np.ndarray
    statistics: dict  # field name -> "bose" | "fermi"
    krein: np.ndarray = None  # per-mode sign, all +1 unless Gupta-Bleuler modes

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.krein is None:
            self.krein = np.ones(len(self.points))
        self.krein = np.asarray(self.krein, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        keys = [(p.momentum, p.spin, p.field) for p in self.points]
        if len(set(keys)) != len(keys):
            raise ValueError("grid points must be distinct (momentum, spin, field) triples")
        for p in self.points:
            if p.field not in self.statistics:
                raise ValueError(f"no statistics entry for field {p.field!r}")

    @property
    def n_modes(self) -> int:
        return len(self.points)

    def is_fermi(self, mode: int) -> bool:
        return self.statistics[self.points[mode].field] == FERMI

    def to_json(self) -> str:
        return json.dumps(
            {
                "points": [
                    {"momentum": list(p.momentum), "spin": p.spin, "field": p.field}
                    for p in self.points
                ],
                "weights": list(self.weights),
                "statistics": dict(self.statistics),
                "krein": list(self.krein),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MomentumGrid":
        obj = json.loads(text)
        points = [
            GridPoint(tuple(d["momentum"]), d["spin"], d["field"]) for d in obj["points"]
        ]
        return cls(points, np.array(obj["weights"]), obj["statistics"], np.array(obj["krein"]))


def uniform_grid(n_modes, statistic=BOSE, pmax=1.0, field="scalar", krein=None):
    """Evenly spaced radial momenta on (0, pmax] with trapezoid-like weights."""
    ps = np.linspace(pmax / n_modes, pmax, n_modes)
    points = [GridPoint((p, 0.0, 0.0), 0, field) for p in ps]
    w = np.full(n_modes, pmax / n_modes)
    return MomentumGrid(points, w, {field: statistic}, krein)


@dataclass
class FockGridState:
    """Sparse amplitude table over occupation configurations."""

    grid: MomentumGrid
    cutoff: int
    amplitudes: dict = field(default_factory=dict)  # tuple occupation -> complex

    def cleaned(self, tol=0.0):
        amps = {c: a for c, a in self.amplitudes.items() if abs(a) > tol}
        return FockGridState(self.grid, self.cutoff, amps)

    def norm2(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def scaled(self, z) -> "FockGridState":
        return FockGridState(self.grid, self.cutoff, {c: z * a for c, a in self.amplitudes.items()})

    def __add__(self, other):
        amps = dict(self.amplitudes)
        for c, a in other.amplitudes.items():
            amps[c] = amps.get(c, 0.0) + a
        return FockGridState(self.grid, self.cutoff, amps).cleaned()

    def to_json(self) -> str:
        rows = sorted(
            (list(c), a.real, a.imag) for c, a in self.amplitudes.items()
        )
        return json.dumps({"cutoff": self.cutoff, "amplitudes": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, grid: MomentumGrid, text: str) -> "FockGridState":
        obj = json.loads(text)
        amps = {tuple(c): complex(re, im) for c, re, im in obj["amplitudes"]}
        return cls(grid, obj["cutoff"], amps)


def vacuum_state(grid: MomentumGrid, cutoff: int) -> FockGridState:
    return FockGridState(grid, cutoff, {tuple([0] * grid.n_modes): 1.0 + 0.0j})


def zero_state(grid: MomentumGrid, cutoff: int) -> FockGridState:
    return FockGridState(grid, cutoff, {})


def _jw_sign(config, mode, grid):
    """Jordan-Wigner string over fermionic modes left of `mode`."""
    s = 1
    for j in range(mode):
        if grid.is_fermi(j) and config[j] % 2 == 1:
            s = -s
    return s


def apply_creation(mode: int, state: FockGridState) -> FockGridState:
    grid = state.grid
    w = grid.weights[mode]
    out = {}
    for config, amp in state.amplitudes.items():
        if amp == 0:
            continue
        n_tot = sum(config)
        if n_tot >= state.cutoff:
            raise TruncationError(
                f"creation on mode {mode} exceeds particle-number cutoff {state.cutoff}"
            )
        n = config[mode]
        if grid.is_fermi(mode):
            if n == 1:
                continue  # Pauli exclusion
            factor = _jw_sign(config, mode, grid) / np.sqrt(w)
        else:
            factor = np.sqrt(n + 1) / np.sqrt(w)
        new = list(config)
        new[mode] = n + 1
        key = tuple(new)
        out[key] = out.get(key, 0.0) + amp * factor
    return FockGridState(grid, state.cutoff, out).cleaned()


def apply_annihilation(mode: int, state: FockGridState) -> FockGridState:
    grid = state.grid
    w = grid.weights[mode]
    out = {}
    for config, amp in state.amplitudes.items():
        n = config[mode]
        if n == 0:
            continue
        if grid.is_fermi(mode):
            factor = _jw_sign(config, mode, grid) / np.sqrt(w)
        else:
            factor = np.sqrt(n) / np.sqrt(w)
        new = list(config)
        new[mode] = n - 1
        key = tuple(new)
        out[key] = out.get(key, 0.0) + amp * factor
    return FockGridState(grid, state.cutoff, out).cleaned()


def basis_state(grid: MomentumGrid, cutoff: int, modes) -> FockGridState:
    """Creation operators applied to the vacuum, rightmost mode first."""
    st = vacuum_state(grid, cutoff)
    for m in reversed(list(modes)):
        st = apply_creation(m, st)
    return st


def grid_inner(phi: FockGridState, psi: FockGridState, krein: bool = False):
    """<<phi, psi>> = sum over configurations of conj(phi) * psi.

    With krein=True each configuration carries the product of per-mode
    Krein signs raised to the occupation numbers.
    """
    total = 0.0 + 0.0j
    signs = phi.grid.krein
    for config, a in phi.amplitudes.items():
        b = psi.amplitudes.get(config)
        if b is None:
            continue
        s = 1.0
        if krein:
            for j, n in enumerate(config):
                if n and signs[j] < 0:
                    s *= (-1.0) ** n
        total += np.conj(a) * b * s
    return total


def eta_pairing(l: int, m: int, modes, phi: FockGridState, psi: FockGridState,
                krein: bool = False):
    """eta_{Phi,Psi}(p_1..p_l, q_1..q_m) via successive ladder applications.

    `modes` lists l creation-mode indices followed by m annihilation-mode
    indices; eta is the matrix element <Phi, a+(p_1)..a+(p_l)
    a(q_1)..a(q_m) Psi>, the string acting on psi right-to-left.
    """
    if len(modes) != l + m:
        raise ValueError("modes must supply l+m grid indices")
    if l + m > 2 * phi.cutoff:
        raise TruncationError("operator string too long for the cutoff")
    st = psi
    for q in reversed(modes[l:]):
        st = apply_annihilation(q, st)
    for p in reversed(modes[:l]):
        st = apply_creation(p, st)
    return grid_inner(phi, st, krein=krein)


@dataclass
class DiscreteKernel:
    """Kernel with l creation slots and m annihilation slots on the grid."""

    l: int
    m: int
    values: np.ndarray  # shape (n_modes,) * (l + m); scalar () for l = m = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != self.l + self.m:
            raise ValueError("kernel array rank must equal l + m")


def xi_matrix_element(kernel: DiscreteKernel, phi: FockGridState, psi: FockGridState,
                      krein: bool = False):
    """Matrix element of Xi(kernel): quadrature-weighted sum of kernel * eta."""
    grid = phi.grid
    n = grid.n_modes
    if kernel.l + kernel.m > 0 and kernel.values.shape != (n,) * (kernel.l + kernel.m):
        raise ValueError("kernel shape does not match the grid")
    if kernel.l == 0 and kernel.m == 0:
        return complex(kernel.values) * grid_inner(phi, psi, krein=krein)
    total = 0.0 + 0.0j
    w = grid.weights
    for tup in itertools.product(range(n), repeat=kernel.l + kernel.m):
        kval = kernel.values[tup]
        if kval == 0:
            continue
        weight = np.prod(w[list(tup)])
        total += weight * kval * eta_pairing(kernel.l, kernel.m, tup, phi, psi, krein=krein)
    return total


def apply_kernel(kernel: DiscreteKernel, state: FockGridState) -> FockGridState:
    """Apply Xi(kernel) to a state: sum over grid tuples with weights."""
    grid = state.grid
    n = grid.n_modes
    w = grid.weights
    out = zero_state(grid, state.cutoff)
    if kernel.l == 0 and kernel.m == 0:
        return state.scaled(complex(kernel.values))
    for tup in itertools.product(range(n), repeat=kernel.l + kernel.m):
        kval = kernel.values[tup]
        if kval == 0:
            continue
        st = state
        for q in reversed(tup[kernel.l:]):
            st = apply_annihilation(q, st)
        for p in reversed(tup[:kernel.l]):
            st = apply_creation(p, st)
        weight = np.prod(w[list(tup)])
        out = out + st.scaled(weight * kval)
    return out


def _basis_configs(grid, max_total):
    """All occupation configurations with total particle number <= max_total."""
    n = grid.n_modes
    configs = []

    def rec(i, remaining, acc):
        if i == n:
            configs.append(tuple(acc))
            return
        top = min(1, remaining) if grid.is_fermi(i) else remaining
        for k in range(top + 1):
            rec(i + 1, remaining - k, acc + [k])

    rec(0, max_total, [])
    return configs


def commutator_check(grid: MomentumGrid, cutoff: int = 3) -> float:
    """Max deviation of [a_i, a_j^+]-+ from delta_ij / w_i below the cutoff.

    Anticommutator for fermi-fermi pairs, commutator otherwise; evaluated
    on every occupation basis state with total number <= cutoff - 1.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1: no basis state lies below it")
    worst = 0.0
    configs = _basis_configs(grid, cutoff - 1)
    for i in range(grid.n_modes):
        for j in range(grid.n_modes):
            fermi_pair = grid.is_fermi(i) and grid.is_fermi(j)
            sign = 1.0 if fermi_pair else -1.0
            expected = (1.0 / grid.weights[i]) if i == j else 0.0
            for config in configs:
                st = FockGridState(grid, cutoff, {config: 1.0 + 0.0j})
                term1 = apply_annihilation(i, apply_creation(j, st))
                term2 = apply_creation(j, apply_annihilation(i, st)).scaled(sign)
                combo = term1 + term2
                ref = st.scaled(expected)
                diff = combo + ref.scaled(-1.0)
                worst = max(worst, np.sqrt(diff.norm2()))
    return worst
