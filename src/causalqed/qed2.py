"""Second-order QED Green functions by causal splitting in the p^2
dispersion variable: vacuum polarization Pi and electron self-energy
Sigma, with on-mass-shell normalization.

The causal discontinuity (imaginary part across the cut) is computed by
numerical two-body phase-space integration of the pairing-function
product.  Its Dirac traces, taken with the explicit 4x4 gamma matrices,
are contracted once at import into a bilinear (Pi) or linear (Sigma) form
in the leg components (q^0..q^3, +-m).  `causal_imaginary_part` takes a
number or an ndarray of s and evaluates that form for all of its points at
once, on one (n, 6, 5) array of leg components at the six angular nodes.
The functions themselves are subtracted dispersion integrals over that
discontinuity: (s - s0)^n times the transform
`splitting.dispersion(rho(s') / (s' - s0)^n, thr)`, which each Green function
keeps, and a shell derivative is the transform of rho(s') / (s' - m^2) at
s = m^2.  The transform's table samples rho on all of its nodes in one
call per table size (Scharf, Finite QED, 2nd ed. 1995, ch. 3).  Coupling
constants are set to 1 throughout.

Decompositions: Pi_tensor^{mu nu}(p) = (p^mu p^nu - p^2 g^{mu nu}) Pi(p^2),
Sigma(p) = a(p^2) + pslash b(p^2).

On-shell conditions enforced:
  Pi(0) = 0 and Pi(s)/s -> 0 as s -> 0 (constants C0 = C1 = 0);
  a(m^2) + m b(m^2) = 0 and 2m a'(m^2) + b(m^2) + 2m^2 b'(m^2) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import GAMMA, IDENTITY4, METRIC, slash
from .splitting import dispersion


class MasslessNormalizationError(ValueError):
    """On-shell normalization impossible for a massless charged field."""


_COS_NODES, _COS_WEIGHTS = np.polynomial.legendre.leggauss(6)
# first-leg unit direction per angular node, as leg components (q^0..q^3, mass term)
_NODE_DIRECTIONS = np.zeros((6, 5))
_NODE_DIRECTIONS[:, 1] = np.sqrt(np.maximum(0.0, 1.0 - _COS_NODES ** 2))
_NODE_DIRECTIONS[:, 3] = _COS_NODES

# Gamma_a = (gamma_mu with metric sign, 1), so qslash + m = sum_a v_a Gamma_a
# for leg components v = (q^0..q^3, m); the traces are contracted once here.
_BASIS = np.concatenate([np.einsum("mn,nij->mij", METRIC, GAMMA), IDENTITY4[None]])
_GAMMA_BASIS = np.einsum("mij,ajk->maik", GAMMA, _BASIS)  # gamma^m Gamma_a
# P_ab = proj_mn Tr[gamma^m Gamma_a gamma^n Gamma_b]; the rest-frame proj is s-independent
_PI_FORM = np.einsum("mn,maij,nbji->ab", METRIC - np.diag([1.0, 0.0, 0.0, 0.0]),
                     _GAMMA_BASIS, _GAMMA_BASIS).real
# Tr[gamma^mu Gamma_a gamma_mu] / 4 and Tr[gamma^0 gamma^mu Gamma_a gamma_mu] / 4
_SIGMA_FORMS = dict(zip("ab", np.einsum("hij,majk,mki->ha", np.stack([IDENTITY4, GAMMA[0]]),
                                         _GAMMA_BASIS, _BASIS[:4]).real / 4.0))


def _kallen(s, m1, m2):
    return (s - (m1 + m2) ** 2) * (s - (m1 - m2) ** 2)


def _legs(k, energy, mass):
    """(n, 6, 5) leg components (q^0..q^3, mass term) of the first leg on the
    six angular nodes: energy, spatial momentum k along each node direction."""
    q = k[:, None, None] * _NODE_DIRECTIONS
    q[..., 0] = energy[:, None]
    q[..., 4] = mass
    return q


def _angular_phase_space(s, node_sum, k):
    """(k / 4 sqrt(s)) * integral dOmega, from the integrand's node sum
    weighted by _COS_WEIGHTS."""
    return (k / (4.0 * np.sqrt(s))) * (2.0 * math.pi * node_sum)  # azimuthal symmetry


def causal_imaginary_part(which: str, m: float, s,
                          photon_mass: float = 0.0, component: str = "a"):
    """Discontinuity of the designated Green function at p^2 = s.

    which = "Pi": transversal scalar discontinuity of the fermion loop,
    zero below s = 4 m^2.  which = "Sigma": the a- or b-component
    (selected by `component`) of the electron/photon loop, zero below
    s = (m + photon_mass)^2.

    s is a number, giving a float, or an ndarray, giving a float array of
    its shape: every point above threshold is one row of one (n, 6, 5)
    array of leg components on the angular nodes, contracted with the form
    and the node weights row by row, so a point gives the same value alone
    or in an array.  A NaN s gives NaN.
    """
    if m < 0:
        raise ValueError("mass must be nonnegative")
    if which == "Pi":
        thr = 4.0 * m * m
    elif which == "Sigma":
        if photon_mass < 0:
            raise ValueError("photon mass must be nonnegative")
        if component not in _SIGMA_FORMS:
            raise ValueError(f"unknown Sigma component {component!r}")
        thr = (m + photon_mass) ** 2
    else:
        raise ValueError(f"unknown Green function {which!r}")
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    above = ~(s <= thr)  # NaN is not below threshold, and stays NaN
    sa = s[above]
    if which == "Pi":
        k = np.sqrt(sa / 4.0 - m * m)
        E = np.sqrt(sa) / 2.0
        # -proj_mn Tr[gamma^m (q1slash + m) gamma^n (q2slash - m)] / 3s, q2 = p - q1
        node_sum = np.einsum("nib,nib,i->n", _legs(k, E, m) @ _PI_FORM, _legs(-k, E, -m),
                             _COS_WEIGHTS) / (-3.0 * sa)
    else:
        k = np.sqrt(_kallen(sa, m, photon_mass)) / (2.0 * np.sqrt(sa))
        Eq = (sa + m * m - photon_mass * photon_mass) / (2.0 * np.sqrt(sa))
        # gamma^mu (qslash + m) gamma_mu projected on 1 (a) or pslash / s (b)
        node_sum = np.einsum("nia,a,i->n", _legs(k, Eq, m), _SIGMA_FORMS[component],
                             _COS_WEIGHTS)
        if component == "b":
            node_sum /= np.sqrt(sa)
    out[above] = _angular_phase_space(sa, node_sum, k)
    return out if out.ndim else float(out)


@dataclass
class VacuumPolarization:
    m: float
    constants: tuple  # (C0, C1)

    @property
    def threshold(self) -> float:
        return 4.0 * self.m * self.m

    def rho(self, s):
        return causal_imaginary_part("Pi", self.m, s)

    @cached_property
    def _transform(self):
        return dispersion(lambda sp: self.rho(sp) / sp ** 2, self.threshold)

    def scalar_part(self, s):
        C0, C1 = self.constants
        return C0 + C1 * complex(s) + s ** 2 * self._transform(s)

    def tensor(self, p) -> np.ndarray:
        """Pi^{mu nu}(p) = (p^mu p^nu - p^2 g^{mu nu}) Pi(p^2), upper indices."""
        p = np.asarray(p, dtype=float)
        s = p[0] * p[0] - np.dot(p[1:], p[1:])
        g_up = METRIC  # numerically equal to its inverse
        return (np.outer(p, p) - s * g_up) * self.scalar_part(s)


@dataclass
class SelfEnergy:
    m: float
    photon_mass: float
    constants: tuple  # (c0, c1): a += c0, b += c1

    @property
    def threshold(self) -> float:
        return (self.m + self.photon_mass) ** 2

    def rho_a(self, s):
        return causal_imaginary_part("Sigma", self.m, s,
                                     photon_mass=self.photon_mass, component="a")

    def rho_b(self, s):
        return causal_imaginary_part("Sigma", self.m, s,
                                     photon_mass=self.photon_mass, component="b")

    @cached_property
    def _transforms(self) -> tuple:
        # rho_a and rho_b over (s' - m^2); independent of the constants
        s0 = self.m * self.m
        return tuple(dispersion(lambda sp, rho=rho: rho(sp) / (sp - s0), self.threshold)
                     for rho in (self.rho_a, self.rho_b))

    def a(self, s):
        return self.constants[0] + (s - self.m * self.m) * self._transforms[0](s)

    def b(self, s):
        return self.constants[1] + (s - self.m * self.m) * self._transforms[1](s)

    def a_prime_shell(self) -> float:
        return self._transforms[0](self.m * self.m)

    def b_prime_shell(self) -> float:
        return self._transforms[1](self.m * self.m)

    def matrix(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        s = p[0] * p[0] - np.dot(p[1:], p[1:])
        return self.a(s) * IDENTITY4 + self.b(s) * slash(p)


def build_vacuum_polarization(m: float, normalization="on-shell") -> VacuumPolarization:
    """Vacuum polarization from the subtracted dispersion integral.

    normalization: "on-shell" fixes C0 = C1 = 0 so Pi(0) = 0 and
    Pi(s)/s -> 0 at s = 0; a pair (C0, C1) adds the ambiguity polynomial.
    Requires m > 0 for on-shell mode: with m = 0 the subtraction point 0
    sits on the cut and the on-shell-subtracted integral diverges.
    """
    if not math.isfinite(m):
        raise ValueError("mass must be finite")
    if normalization == "on-shell":
        if m <= 0:
            raise MasslessNormalizationError(
                "on-shell normalization impossible: the normalization point "
                "cannot be chosen at p^2 = 0 for a massless charged field")
        constants = (0.0, 0.0)
    else:
        constants = tuple(float(c) for c in normalization)
        if len(constants) != 2:
            raise ValueError("custom normalization needs exactly (C0, C1)")
        if m <= 0:
            raise MasslessNormalizationError(
                "subtraction at p^2 = 0 sits on the massless cut; "
                "no normalization constants repair the dispersion integral")
    return VacuumPolarization(m=m, constants=constants)


def build_self_energy(m: float, photon_mass: float = None,
                      normalization="on-shell") -> SelfEnergy:
    """Self-energy from once-subtracted dispersion integrals at p^2 = m^2.

    The photon-mass regulator (default m/10) keeps the shell-derivative
    condition finite; on-shell normalization rejects photon_mass = 0.
    normalization: "on-shell" solves the two shell conditions for (c0, c1);
    a pair (c0, c1) is used verbatim.
    """
    if photon_mass is None:
        photon_mass = m / 10.0
    if not (math.isfinite(m) and math.isfinite(photon_mass)):
        raise ValueError("mass and photon mass must be finite")
    if m <= 0:
        raise MasslessNormalizationError(
            "on-shell self-energy normalization needs m > 0 (massless charge "
            "admits no shell normalization point)")
    if photon_mass < 0 or (photon_mass == 0 and normalization == "on-shell"):
        raise ValueError("photon mass must be nonnegative, and positive on shell")
    se = SelfEnergy(m=m, photon_mass=photon_mass, constants=(0.0, 0.0))
    if normalization == "on-shell":
        ap = se.a_prime_shell()
        bp = se.b_prime_shell()
        # condition 2: 2m a'(m^2) + b(m^2) + 2m^2 b'(m^2) = 0 with b(m^2) = c1
        c1 = -(2.0 * m * ap + 2.0 * m * m * bp)
        # condition 1: a(m^2) + m b(m^2) = c0 + m c1 = 0
        c0 = -m * c1
        constants = (c0, c1)
    else:
        constants = tuple(float(c) for c in normalization)
        if len(constants) != 2:
            raise ValueError("custom normalization needs exactly (c0, c1)")
    se.constants = constants
    return se


def check_on_shell(obj, tol: float = 1e-8) -> dict:
    """Numerical check of the on-shell normalization conditions.

    Returns {"conditions": [{"name", "residual", "pass"}...], "all_pass"}.
    """
    conds = []
    if isinstance(obj, VacuumPolarization):
        r1 = abs(obj.scalar_part(0.0))
        conds.append({"name": "Pi(0) = 0", "residual": float(r1), "pass": r1 <= tol})
        # two-level Richardson extrapolation of Pi(s)/s toward s = 0
        h = -0.005 * obj.threshold
        r = [obj.scalar_part(h / 2 ** k) / (h / 2 ** k) for k in range(3)]
        r1a = 2.0 * r[1] - r[0]
        r1b = 2.0 * r[2] - r[1]
        extrap = (4.0 * r1b - r1a) / 3.0
        r2 = abs(extrap)
        conds.append({"name": "Pi(s)/s -> 0 at s = 0", "residual": float(r2),
                      "pass": r2 <= tol})
    elif isinstance(obj, SelfEnergy):
        m = obj.m
        b_shell = obj.b(m * m)
        r1 = abs(obj.a(m * m) + m * b_shell)
        conds.append({"name": "a(m^2) + m b(m^2) = 0", "residual": float(r1),
                      "pass": r1 <= tol})
        r2 = abs(2.0 * m * obj.a_prime_shell() + b_shell
                 + 2.0 * m * m * obj.b_prime_shell())
        conds.append({"name": "2m a' + b + 2m^2 b' = 0 at m^2",
                      "residual": float(r2), "pass": r2 <= tol})
    else:
        raise TypeError("expected VacuumPolarization or SelfEnergy")
    return {"conditions": conds, "all_pass": all(c["pass"] for c in conds)}
