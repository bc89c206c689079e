"""Truncated Fock space over a finite momentum grid.

Creation/annihilation operators at sharp grid momenta are realized with
the discrete delta normalization delta(p-q) -> delta_ij / w_i, so that
quadrature sums over the grid approximate the continuum momentum
integrals and the (anti)commutators come out exactly delta_ij / w_i on
states below the particle-number cutoff.  Kernel operators with l
creation and m annihilation slots are evaluated through the dual
pairing against the function eta(p_1..p_l, q_1..q_m) built from ladder
operators.

States are dicts from occupation tuples to amplitudes at the boundary.
Inside, operators act on vectors over the occupation basis up to the
cutoff, enumerated once per (Bose/Fermi pattern, cutoff) and cached with
one creation index table per mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

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
        n = len(self.points)
        self.weights = np.asarray(self.weights, dtype=float)
        self.krein = np.ones(n) if self.krein is None else np.asarray(self.krein, dtype=float)
        if self.weights.shape != (n,):
            raise ValueError("need one quadrature weight per grid point")
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("quadrature weights must be positive and finite")
        if self.krein.shape != (n,) or not np.all(np.abs(self.krein) == 1.0):
            raise ValueError("need one Krein sign, +1 or -1, per grid point")
        keys = [(p.momentum, p.spin, p.field) for p in self.points]
        if len(set(keys)) != len(keys):
            raise ValueError("grid points must be distinct (momentum, spin, field) triples")
        for p in self.points:
            if p.field not in self.statistics:
                raise ValueError(f"no statistics entry for field {p.field!r}")
        if not set(self.statistics.values()) <= {BOSE, FERMI}:
            raise ValueError(f"statistics must be {BOSE!r} or {FERMI!r}")

    @property
    def n_modes(self) -> int:
        return len(self.points)

    def is_fermi(self, mode: int) -> bool:
        return self.statistics[self.points[mode].field] == FERMI


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

    def scaled(self, z) -> "FockGridState":
        return FockGridState(self.grid, self.cutoff, {c: z * a for c, a in self.amplitudes.items()})


def vacuum_state(grid: MomentumGrid, cutoff: int) -> FockGridState:
    return FockGridState(grid, cutoff, {tuple([0] * grid.n_modes): 1.0 + 0.0j})


class _Basis(NamedTuple):
    cutoff: int
    configs: tuple  # occupation tuples in lexicographic order
    index: dict  # occupation tuple -> position in configs
    occupations: np.ndarray  # (len(configs), n_modes)
    full: np.ndarray  # positions at total == cutoff, where creation truncates
    tables: tuple  # per mode (src, dst, factor) of a+(mode), before 1/sqrt(w)


@functools.lru_cache(maxsize=16)
def _occupation_basis(fermi: tuple, cutoff: int) -> _Basis:
    """Occupation basis with total <= cutoff; a+(mode) has the factor
    sqrt(n + 1) on a Bose mode and the Jordan-Wigner sign over the occupied
    Fermi modes to its left on a Fermi mode.  1/sqrt(w) is applied at use,
    so grids that differ only in their weights share the tables."""
    configs = [()]
    for is_fermi in fermi:
        configs = [c + (k,) for c in configs for k in range(2 if is_fermi else cutoff + 1)
                   if sum(c) + k <= cutoff]
    index = {c: k for k, c in enumerate(configs)}
    occ = np.array(configs, dtype=int).reshape(len(configs), len(fermi))
    total = occ.sum(axis=1)
    fermi_occ = occ * np.array(fermi, dtype=int)
    jw_sign = 1.0 - 2.0 * ((np.cumsum(fermi_occ, axis=1) - fermi_occ) % 2)
    tables = []
    for mode, is_fermi in enumerate(fermi):
        src = np.flatnonzero((total < cutoff) & ((occ[:, mode] == 0) | (not is_fermi)))
        dst = np.array([index[configs[k][:mode] + (configs[k][mode] + 1,) + configs[k][mode + 1:]]
                        for k in src], dtype=int)
        factor = jw_sign[src, mode] if is_fermi else np.sqrt(occ[src, mode] + 1.0)
        tables.append((src, dst, factor))
    return _Basis(cutoff, tuple(configs), index, occ, np.flatnonzero(total == cutoff),
                  tuple(tables))


def _basis(grid: MomentumGrid, cutoff: int) -> _Basis:
    return _occupation_basis(tuple(grid.is_fermi(i) for i in range(grid.n_modes)), cutoff)


def _basis_configs(grid, max_total):
    """All occupation configurations with total particle number <= max_total."""
    return list(_basis(grid, max_total).configs)


def _vector(state: FockGridState, basis: _Basis) -> np.ndarray:
    v = np.zeros(len(basis.configs), dtype=complex)
    for config, amp in state.amplitudes.items():
        k = basis.index.get(config)
        if k is None:
            raise ValueError(f"{config} is no occupation of at most {basis.cutoff} particles")
        v[k] = amp
    return v


def _state(like: FockGridState, basis: _Basis, v: np.ndarray) -> FockGridState:
    nz = np.flatnonzero(v)
    return FockGridState(like.grid, like.cutoff,
                         dict(zip([basis.configs[k] for k in nz], v[nz].tolist())))


def _bra(phi: FockGridState, basis: _Basis, krein: bool) -> np.ndarray:
    """Amplitudes of phi, times prod_j krein_j^n_j per configuration if krein."""
    v = _vector(phi, basis)
    return v * np.prod(phi.grid.krein ** basis.occupations, axis=1) if krein else v


def _ladder(basis: _Basis, grid: MomentumGrid, mode: int, x: np.ndarray,
            create: bool) -> np.ndarray:
    """a+(mode) if create else a(mode) on the last axis of x."""
    src, dst, factor = basis.tables[mode]
    factor = factor / np.sqrt(grid.weights[mode])
    out = np.zeros_like(x)
    if not create:
        out[..., src] = x[..., dst] * factor
    elif np.any(x[..., basis.full]):
        raise TruncationError(f"creation exceeds particle-number cutoff {basis.cutoff}")
    else:
        out[..., dst] = x[..., src] * factor
    return out


def apply_creation(mode: int, state: FockGridState) -> FockGridState:
    basis = _basis(state.grid, state.cutoff)
    return _state(state, basis, _ladder(basis, state.grid, mode, _vector(state, basis), True))


def apply_annihilation(mode: int, state: FockGridState) -> FockGridState:
    basis = _basis(state.grid, state.cutoff)
    return _state(state, basis, _ladder(basis, state.grid, mode, _vector(state, basis), False))


def grid_inner(phi: FockGridState, psi: FockGridState, krein: bool = False):
    """<<phi, psi>> = sum over configurations of conj(phi) * psi.

    With krein=True each configuration carries the product of per-mode
    Krein signs raised to the occupation numbers.
    """
    basis = _basis(phi.grid, max(phi.cutoff, psi.cutoff))
    return complex(np.vdot(_bra(phi, basis, krein), _vector(psi, basis)))


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


def _check_kernel(kernel: DiscreteKernel, grid: MomentumGrid):
    if kernel.values.shape != (grid.n_modes,) * (kernel.l + kernel.m):
        raise ValueError("kernel shape does not match the grid")


def _weighted(kernel: DiscreteKernel, grid: MomentumGrid) -> np.ndarray:
    """Kernel values times the quadrature weight of every slot."""
    slots = kernel.l + kernel.m
    return kernel.values * functools.reduce(np.multiply.outer, [grid.weights] * slots, 1.0)


def xi_matrix_element(kernel: DiscreteKernel, phi: FockGridState, psi: FockGridState,
                      krein: bool = False):
    """Matrix element of Xi(kernel): quadrature-weighted sum of kernel * eta.

    eta(p, q) = <a(p_l)..a(p_1) Phi', a(q_1)..a(q_m) Psi>, Phi' = phi times
    its Krein signs if krein: the creation string acts on phi as its
    adjoint, so no operator reaches past the cutoff.
    """
    grid, n = phi.grid, phi.grid.n_modes
    _check_kernel(kernel, grid)
    basis = _basis(grid, max(phi.cutoff, psi.cutoff))
    left = _bra(phi, basis, krein)
    right = _vector(psi, basis)
    for _ in range(kernel.l):  # a(p_1) acts first; p_k indexes the k-th axis
        left = np.stack([_ladder(basis, grid, j, left, False) for j in range(n)], axis=-2)
    for _ in range(kernel.m):  # a(q_m) acts first; q_k indexes the k-th axis
        right = np.stack([_ladder(basis, grid, j, right, False) for j in range(n)])
    eta = left.reshape(n ** kernel.l, -1).conj() @ right.reshape(n ** kernel.m, -1).T
    return complex(np.sum(_weighted(kernel, grid).reshape(eta.shape) * eta))


def apply_kernel(kernel: DiscreteKernel, state: FockGridState) -> FockGridState:
    """Apply Xi(kernel) to a state: sum over grid tuples with weights.

    The kernel slots are contracted one at a time from the right, so the
    largest intermediate holds n_modes^(l + m - 1) state vectors.
    """
    grid, n = state.grid, state.grid.n_modes
    _check_kernel(kernel, grid)
    slots = kernel.l + kernel.m
    if slots == 0:
        return state.scaled(complex(kernel.values))
    basis = _basis(grid, state.cutoff)
    v = _vector(state, basis)
    x = _weighted(kernel, grid).reshape(-1, n) @ np.stack(
        [_ladder(basis, grid, j, v, kernel.m == 0) for j in range(n)])
    for slot in reversed(range(slots - 1)):
        x = x.reshape(n ** slot, n, -1)
        x = sum(_ladder(basis, grid, j, x[:, j], slot < kernel.l) for j in range(n))
    return _state(state, basis, x[0])


def commutator_check(grid: MomentumGrid, cutoff: int = 3) -> float:
    """Max deviation of [a_i, a_j^+]-+ from delta_ij / w_i below the cutoff.

    Anticommutator for fermi-fermi pairs, commutator otherwise; evaluated
    on every occupation basis state with total number <= cutoff - 1, for
    all (i, j) at once.  Each ladder maps a basis state to one basis state,
    so the creation tables become index maps with a zero sink at the end.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1: no basis state lies below it")
    basis = _basis(grid, cutoff)
    n, sink = grid.n_modes, len(basis.configs)
    up, down = np.full((2, n, sink + 1), sink)
    f_up, f_down = np.zeros((2, n, sink + 1))
    for j, (src, dst, factor) in enumerate(basis.tables):
        f = factor / np.sqrt(grid.weights[j])
        up[j, src], f_up[j, src] = dst, f
        down[j, dst], f_down[j, dst] = src, f
    cols = np.flatnonzero(basis.occupations.sum(axis=1) < cutoff)
    # axes (i, j, column): a_i a_j^+ lands on d with t1, a_j^+ a_i on e with t2
    d, t1 = down[:, up[:, cols]], f_down[:, up[:, cols]] * f_up[:, cols]
    e = up[:, down[:, cols]].transpose(1, 0, 2)
    fermi = np.array([grid.is_fermi(i) for i in range(n)])
    sign = np.where(np.outer(fermi, fermi), 1.0, -1.0)[:, :, None]
    t2 = sign * f_up[:, down[:, cols]].transpose(1, 0, 2) * f_down[:, cols][:, None, :]
    expected = np.diag(1.0 / grid.weights)[:, :, None]
    c = cols[None, None, :]
    at_d = t1 + np.where(e == d, t2, 0.0) - np.where(d == c, expected, 0.0)
    at_e = np.where(e != d, t2, 0.0) - np.where((e != d) & (e == c), expected, 0.0)
    at_c = np.where((d != c) & (e != c), expected, 0.0)
    return float(np.sqrt(np.max(at_d ** 2 + at_e ** 2 + at_c ** 2)))
