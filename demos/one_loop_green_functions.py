"""Second-order QED Green functions from causal discontinuities.

The imaginary part across the cut comes from explicit gamma-matrix
traces integrated over two-body phase space; the functions themselves
are subtracted dispersion integrals.  On-mass-shell normalization makes
the vacuum polarization vanish to second order at p^2 = 0 and the
self-energy vanish (with its shell derivative) on the mass shell.
"""

import math

import numpy as np

from causalqed.distributions import METRIC
from causalqed.qed2 import (build_self_energy, build_vacuum_polarization,
                            causal_imaginary_part, check_on_shell)

m = 1.0

print("vacuum polarization discontinuity vs the closed form")
samples = np.array([5.0, 10.0, 50.0])
for s, rho in zip(samples.tolist(), causal_imaginary_part("Pi", m, samples)):
    beta = math.sqrt(1.0 - 4.0 * m * m / s)
    exact = (2.0 * math.pi / 3.0) * beta * (1.0 + 2.0 * m * m / s)
    print(f"  s = {s:5.1f}:  rho = {rho:.12f}   closed form {exact:.12f}")

vp = build_vacuum_polarization(m)
print("\non-shell vacuum polarization")
for cond in check_on_shell(vp)["conditions"]:
    print(f"  {cond['name']:30s} residual {cond['residual']:.3e}")

print("  Pi(s) samples:")
for s in (-5.0, -1.0, 2.0, 5.0):
    v = vp.scalar_part(s)
    print(f"    Pi({s:+.1f}) = {v.real:+.8f} {v.imag:+.8f}i")

p = np.array([0.6, 0.3, -0.1, 0.2])
T = vp.tensor(p)
print(f"  transversality |p_mu Pi^(mu nu)| = "
      f"{np.max(np.abs((METRIC @ p) @ T)):.3e}")

se = build_self_energy(m)  # photon-mass regulator defaults to m/10
print(f"\non-shell self-energy (photon mass {se.photon_mass})")
for cond in check_on_shell(se)["conditions"]:
    print(f"  {cond['name']:30s} residual {cond['residual']:.3e}")
print(f"  normalization constants (c0, c1) = "
      f"({se.constants[0]:+.8f}, {se.constants[1]:+.8f})")
for s in (0.5, 0.9, 1.1):
    print(f"    a({s:.1f}) = {se.a(s).real:+.8f}   b({s:.1f}) = {se.b(s).real:+.8f}")
