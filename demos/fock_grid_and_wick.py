"""Ladder operators on a truncated momentum grid and symbolic Wick
products.

The grid realizes delta(p - q) -> delta_ij / w_i, so (anti)commutators
are exact below the particle-number cutoff, where creation on a state
built from the vacuum stops; kernel operators evaluated
through the eta-pairing reproduce direct ladder application, and
composed kernel operators reproduce operator products term by term.
"""

import numpy as np

from causalqed.adiabatic import product_of_limits
from causalqed.fock import (BOSE, FERMI, DiscreteKernel, FockGridState, TruncationError,
                            _basis_configs, apply_creation, apply_kernel, commutator_check,
                            grid_inner, uniform_grid, vacuum_state, xi_matrix_element)
from causalqed.wick import operator_product, qed_vertex, vacuum_expectation

print("grid ladder-operator relations (6 modes, cutoff 3)")
for stat in (BOSE, FERMI):
    dev = commutator_check(uniform_grid(6, statistic=stat), cutoff=3)
    print(f"  {stat}: max deviation from delta_ij / w_i = {dev:.3e}")

print("\nstates built from the vacuum (2 Bose modes, cutoff 2)")
small = uniform_grid(2, statistic=BOSE)
two = apply_creation(0, apply_creation(0, vacuum_state(small, cutoff=2)))
print(f"  a+(0) a+(0) |0> = {two.amplitudes[(2, 0)].real:.10f} |2,0>"
      f"  (sqrt(2) / w = {np.sqrt(2.0) / small.weights[0]:.10f})")
try:
    apply_creation(1, two)
except TruncationError as exc:
    print(f"  a third creation: {exc}")

print("\nkernel pairing vs direct ladder application")
rng = np.random.default_rng(0)
grid = uniform_grid(4, statistic=BOSE)
kernel = DiscreteKernel(1, 1, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
configs = _basis_configs(grid, 2)
phi = FockGridState(grid, 4, {c: complex(*rng.normal(size=2)) for c in configs})
psi = FockGridState(grid, 4, {c: complex(*rng.normal(size=2)) for c in configs})
via_eta = xi_matrix_element(kernel, phi, psi)
direct = grid_inner(phi, apply_kernel(kernel, psi))
print(f"  eta route  {via_eta:.10f}")
print(f"  direct     {direct:.10f}")

print("\ncomposed kernel operators (operator product on the grid)")
A = DiscreteKernel(1, 1, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
B = DiscreteKernel(1, 1, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
terms = product_of_limits(A, B, grid)
summed = sum(xi_matrix_element(t, phi, psi) for t in terms)
composed = grid_inner(phi, apply_kernel(A, apply_kernel(B, psi)))
print(f"  {len(terms)} kernel terms (tensor product + contractions)")
print(f"  summed terms  {summed:.10f}")
print(f"  Xi(A) Xi(B)   {composed:.10f}")

print("\nsymbolic Wick product of two interaction vertices")
prod = operator_product(qed_vertex("x"), qed_vertex("y"))
vac = vacuum_expectation(prod)
by_legs = {}
for mono in prod.terms:
    by_legs[len(mono.legs)] = by_legs.get(len(mono.legs), 0) + 1
print(f"  {len(prod)} normal-ordered monomials; by external legs: {by_legs}")
print(f"  vacuum graphs: {len(vac)}")
for mono in vac.terms:
    names = ",".join(f.name for f in mono.factors if f.kind == "pair")
    print(f"    coeff {mono.coeff:+.1f}  pairings [{names}]")
