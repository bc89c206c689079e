"""Adiabatic switching: the scaling family g_eps(x) = g(eps x), smeared
second-order interacting-field contributions along eps -> 0+, and the
convergence/divergence classification of the resulting sweeps.

The smeared shell contribution is modeled after the convolution
mechanism: a retarded propagator evaluated on the mass shell produces an
explicit 1/(-i eps p0) factor multiplying the on-shell value of the
Green function (the dangerous coefficient), plus a regular part with a
finite eps -> 0 limit.  With on-shell normalization the dangerous
coefficient vanishes identically and the sweep converges; any other
normalization leaves a 1/eps divergence.

Each quadrature is a fixed Gauss-Legendre rule built at import.  A sweep
evaluates its eps-free factors once (the shell overlaps, the on-shell
coefficient and regular part, or the vacuum graph's profile product)
and maps the schedule through the closed form in eps.  A profile's
g_hat takes an array of 4-vectors, shape (..., 4), so the profile
product g_hat(k) g_hat(-k) on the weak limit's node grid is two calls.
The weak limit evaluates its kernel's transform on the nodes directly,
in one array call, with no interpolating spline.  The massless standoff
is a closed form in eps, exact because the massless density is one
constant: massless two-body phase space has no scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import DiscreteKernel, MomentumGrid, _check_kernel
from .qed2 import SelfEnergy, VacuumPolarization, causal_imaginary_part
from .splitting import dispersion

DEFAULT_SCHEDULE = tuple(2.0 ** (-k) for k in range(3, 15))

CHANNELS = ("Sigma_into_psi", "Pi_into_A", "Pi_into_current", "massless_charge")


@dataclass
class ScalingFamily:
    """Scaling family of switching functions via the transform profile.

    g_hat is the Fourier transform of the profile g; g_eps(x) = g(eps x)
    has the transform eps^-4 g_hat(p/eps).
    g_hat takes an array of 4-vectors, shape (..., 4), and returns an
    array of shape (...): the weak limit evaluates it once on its whole
    node grid for k and once for -k.
    """

    g_hat: object
    epsilon_schedule: tuple = DEFAULT_SCHEDULE

    def __post_init__(self):
        sched = tuple(self.epsilon_schedule)
        if not sched or not all(0 < e < math.inf for e in sched):
            raise ValueError("epsilon schedule must be non-empty, positive and finite")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if sched[-1] < 1e-300:
            raise ValueError("epsilon below machine-safe minimum")
        self.epsilon_schedule = sched


def _euclidean_square(p):
    """|p|_E^2 over the last axis of p, shape (..., 4)."""
    p = np.asarray(p, dtype=float)
    return (p * p).sum(axis=-1)


def gaussian_profile(alpha0: float = 1.0, width: float = 1.0) -> ScalingFamily:
    """Profile with g_hat(p) = alpha0 (2 pi)^4 N exp(-w^2 |p|_E^2).

    g_hat takes p of shape (..., 4) and returns an array of shape (...);
    one 4-vector gives a float.
    """
    a = width * width
    norm = alpha0 * (2.0 * math.pi) ** 4 * (a / math.pi) ** 2

    def g_hat(p):
        return norm * np.exp(-a * _euclidean_square(p))

    return ScalingFamily(g_hat=g_hat)


def bump_profile(alpha0: float = 1.0, width: float = 1.0, shape: float = 0.5) -> ScalingFamily:
    """Profile with a polynomial-times-Gaussian transform, same alpha0.

    g_hat(p) = alpha0 (2 pi)^4 N (1 + shape |p|_E^2) exp(-w^2 |p|_E^2)
    with N fixed so the transform integrates to (2 pi)^4 alpha0.  g_hat
    takes p of shape (..., 4) and returns an array of shape (...); one
    4-vector gives a float.
    """
    a = width * width
    # integral of (1 + shape r2) exp(-a r2) over R^4 = (pi/a)^2 (1 + 2 shape / a)
    norm = alpha0 * (2.0 * math.pi) ** 4 / ((math.pi / a) ** 2 * (1.0 + 2.0 * shape / a))

    def g_hat(p):
        r2 = _euclidean_square(p)
        return norm * (1.0 + shape * r2) * np.exp(-a * r2)

    return ScalingFamily(g_hat=g_hat)


@dataclass
class SweepResult:
    epsilons: tuple
    values: tuple
    verdict: str  # converged | diverged | inconclusive
    fitted_exponent: float
    limit_estimate: complex = None


# the shortest schedule classify_sweep can fit a slope to
SWEEP_MIN_STEPS = 3


def _slope(x, y) -> float:
    """Least-squares slope of y against x, in closed form."""
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def classify_sweep(epsilons, values) -> SweepResult:
    """Verdict rule: fit slope sigma of log|value| vs log eps on the last
    half of the schedule.  sigma <= -0.25 -> diverged; |sigma| < 0.1 with
    shrinking Cauchy increments -> converged; all-zero tail -> converged
    with limit 0; otherwise inconclusive.

    Whenever one of the tail increments |v_(k+1) - v_k| exceeds 1e-12 of
    the largest |value|, the slope of log|increment| vs log eps (each
    increment placed at the geometric mean of its two eps) is a diverged
    sweep's exponent, and a slope <= -0.25 is a divergence also where
    sigma is not.  A
    constant part cancels in the increments, so kappa/eps + b gives -1 on
    a geometric schedule for every kappa != 0, also where b dominates
    |value| and flattens sigma.  Shrinking increments have no growth
    slope of -0.25 or less, so this turns no converged sweep into a
    diverged one.
    """
    epsilons = tuple(float(e) for e in epsilons)
    values = tuple(complex(v) for v in values)
    n = len(values)
    if n < SWEEP_MIN_STEPS:
        return SweepResult(epsilons, values, "inconclusive", float("nan"))
    half = n // 2
    log_e = np.log(np.array(epsilons))
    mags = np.abs(np.array(values[half:]))
    scale = max(np.max(np.abs(values)), 1e-300)
    if np.all(mags <= 1e-14 * scale) or np.all(mags == 0.0):
        return SweepResult(epsilons, values, "converged", 0.0, 0.0 + 0.0j)
    sigma = _slope(log_e[half:], np.log(np.maximum(mags, 1e-300)))
    increments = np.abs(np.diff(np.array(values)))[half - 1:]
    shrinking = bool(np.all(np.diff(increments) <= 1e-12 * scale))
    if np.any(increments > 1e-12 * scale):
        mid = 0.5 * (log_e[half - 1:-1] + log_e[half:])
        growth = _slope(mid, np.log(np.maximum(increments, 1e-300)))
        if min(sigma, growth) <= -0.25:
            return SweepResult(epsilons, values, "diverged", growth)
    elif sigma <= -0.25:
        return SweepResult(epsilons, values, "diverged", sigma)
    if sigma >= 0.25 and bool(np.all(np.diff(mags) <= 0)):
        # decay to zero along the schedule
        return SweepResult(epsilons, values, "converged", sigma, 0.0 + 0.0j)
    if abs(sigma) < 0.1 and shrinking:
        # Richardson step assuming a leading term linear in eps
        limit = 2.0 * values[-1] - values[-2]
        return SweepResult(epsilons, values, "converged", sigma, limit)
    return SweepResult(epsilons, values, "inconclusive", sigma)


_SHELL_X, _SHELL_W = np.polynomial.legendre.leggauss(12)
_SHELL_R = _SHELL_X + 1.0  # radial momenta in [0, 2]


def _shell_overlap(m: float, xi, phi):
    """Quadrature data for the mass-shell smearing integral.

    Returns (sum_i w_i xi_i phi_i, sum_i w_i xi_i phi_i / E_i) over a
    radial momentum grid with p = (E(r), 0, 0, r).
    """
    E = np.sqrt(_SHELL_R * _SHELL_R + m * m)
    f = _SHELL_W * np.array([complex(xi(np.array([0.0, 0.0, r])))
                             * complex(phi(np.array([e, 0.0, 0.0, r])))
                             for r, e in zip(_SHELL_R, E)])
    return complex(f.sum()), complex((f / E).sum())


def _dangerous_and_regular(channel: str, green):
    """On-shell (dangerous) coefficient and the finite regular part."""
    if channel == "Sigma_into_psi":
        if not isinstance(green, SelfEnergy):
            raise TypeError("Sigma_into_psi needs a SelfEnergy")
        m2 = green.m * green.m
        kappa = complex(green.constants[0] + green.m * green.constants[1])
        s_probe = m2 * (1.0 - 1.0 / 16.0)
        regular = complex(green.a(s_probe) + green.m * green.b(s_probe))
        return kappa, regular
    if channel == "Pi_into_A":
        if not isinstance(green, VacuumPolarization):
            raise TypeError("Pi_into_A needs a VacuumPolarization")
        kappa = complex(green.constants[0])
        regular = complex(green.scalar_part(-green.m * green.m))
        return kappa, regular
    if channel == "Pi_into_current":
        if not isinstance(green, VacuumPolarization):
            raise TypeError("Pi_into_current needs a VacuumPolarization")
        kappa = complex(green.constants[1])
        s_probe = -green.m * green.m
        regular = complex(green.scalar_part(s_probe) / s_probe)
        return kappa, regular
    raise ValueError(f"unknown channel {channel!r}")


# massless two-body phase space has no scale, so rho_Pi(m = 0, s) is one constant
_RHO_MASSLESS = causal_imaginary_part("Pi", 0.0, 1.0)


def _massless_standoff(eps: float) -> float:
    """Twice-subtracted massless dispersion anchored at s0 = -eps, at s = -1.

    The massless cut reaches the subtraction point, so the anchored
    integral grows like 1/eps as the standoff closes; no constant choice
    removes the growth.  With the constant density rho0 it is
    (1 - eps)^2 / pi integral_0^inf rho0 ds' / ((s' + eps)^2 (s' + 1))
    = (rho0 / pi) (log eps + 1/eps - 1) by partial fractions.
    """
    return _RHO_MASSLESS / math.pi * (math.log(eps) + 1.0 / eps - 1.0)


def _sweep_values(channel: str, green, xi, phi, epsilons, constants) -> list:
    """Smeared contributions along epsilons, with the eps-free factors evaluated once."""
    if channel == "massless_charge":
        plain, _ = _shell_overlap(0.0, xi, phi)
        return [plain * (_massless_standoff(eps) + constants[0] - constants[1])
                for eps in epsilons]
    kappa, regular = _dangerous_and_regular(channel, green)
    plain, over_e = _shell_overlap(green.m, xi, phi)
    return [kappa * over_e / (-1j * eps) + regular * plain for eps in epsilons]


def epsilon_free_evaluation(channel: str, green, xi, phi) -> complex:
    """Direct eps-free on-shell evaluation: the regular part alone."""
    _, regular = _dangerous_and_regular(channel, green)
    plain, _ = _shell_overlap(green.m, xi, phi)
    return regular * plain


def sweep(channel: str, green, xi, phi, family: ScalingFamily,
          constants=(0.0, 0.0)) -> SweepResult:
    values = _sweep_values(channel, green, xi, phi, family.epsilon_schedule, constants)
    return classify_sweep(family.epsilon_schedule, values)


# vacuum-graph nodes k = (a, 0, 0, b), a in [-kmax, kmax], radial b in [0, kmax]
_WEAK_KMAX = 6.0
_WEAK_X, _WEAK_W = np.polynomial.legendre.leggauss(24)
_WEAK_A, _WEAK_B = np.meshgrid(_WEAK_KMAX * _WEAK_X, 0.5 * _WEAK_KMAX * (_WEAK_X + 1.0),
                               indexing="ij")
_WEAK_K = np.zeros(_WEAK_A.shape + (4,))
_WEAK_K[..., 0], _WEAK_K[..., 3] = _WEAK_A, _WEAK_B
_WEAK_MEASURE = (np.outer(_WEAK_KMAX * _WEAK_W, 0.5 * _WEAK_KMAX * _WEAK_W)
                 * (4.0 * math.pi * _WEAK_B * _WEAK_B))
_WEAK_Q = _WEAK_A * _WEAK_A - _WEAK_B * _WEAK_B
_WEAK_HALF = len(_WEAK_X) // 2  # the a nodes are symmetric: rows _WEAK_HALF.. hold a > 0


def weak_limit_vacuum(n: int, family: ScalingFamily, constants=(0.0, 0.0, 0.0),
                      m: float = 1.0) -> SweepResult:
    """Vacuum expectation of S_n(g_eps^(x) n) along the schedule.

    n = 1: identically zero (normal-ordered vertex).  n = 2: the vacuum
    graph value (2 pi)^-4 eps^-4 integral g_hat(k) g_hat(-k) w(eps^2 k.k)
    d^4k, where w is the thrice-subtracted vacuum kernel plus the
    normalization polynomial C0 + C1 s + C2 s^2.  The tuned choice
    C = 0 makes the limit vanish.
    """
    if n == 1:
        zeros = tuple(0.0 + 0.0j for _ in family.epsilon_schedule)
        return classify_sweep(family.epsilon_schedule, zeros)
    if n != 2:
        raise NotImplementedError("numeric weak limit implemented for n <= 2")

    thr = 4.0 * m * m
    smax = (family.epsilon_schedule[0] * _WEAK_KMAX) ** 2 * 1.05
    if smax >= thr:
        raise ValueError("schedule reaches the cut; enlarge m or start at a smaller eps")

    # w3(s) = s^3 u(s); the exact s^3 zero, which the eps^-4 scaling
    # amplifies, stays outside the transform
    u_factor = dispersion(lambda sp: causal_imaginary_part("Pi", m, sp) / sp ** 3, thr)

    w = _WEAK_MEASURE * family.g_hat(_WEAK_K) * family.g_hat(-_WEAK_K)
    # the kernel is even in a, so the +-a rows share their evaluations
    w = (w + w[::-1])[_WEAK_HALF:]
    eps = np.array(family.epsilon_schedule)
    s = (eps * eps)[:, None, None] * _WEAK_Q[_WEAK_HALF:]
    body = constants[0] + constants[1] * s + constants[2] * s * s + s ** 3 * u_factor(s)
    values = np.sum(w * body, axis=(1, 2)) / ((2.0 * math.pi) ** 4 * eps ** 4)
    return classify_sweep(family.epsilon_schedule, values)


def product_of_limits(kernelA: DiscreteKernel, kernelB: DiscreteKernel,
                      grid: MomentumGrid):
    """Normal-ordered kernel expansion of Xi(A) Xi(B) on a Bose grid.

    Returns a list of DiscreteKernel terms whose Xi's sum to the operator
    product: the tensor-product kernel (no contraction) first, then one
    term per injective matching of A-annihilation slots with B-creation
    slots, each contracted index pair summed with one quadrature weight
    (from the delta_ij / w_i pairing).  Each term is one einsum; its slots
    are A's creations, B's uncontracted creations, A's uncontracted
    annihilations, then B's annihilations.
    """
    if any(grid.is_fermi(i) for i in range(grid.n_modes)):
        raise NotImplementedError("kernel composition implemented for Bose grids")
    for K in (kernelA, kernelB):
        _check_kernel(K, grid)
    la, ma, lb, mb = kernelA.l, kernelA.m, kernelB.l, kernelB.m
    a_axes = list(range(la + ma))
    terms = []
    for csize in range(min(ma, lb) + 1):
        for asel in itertools.combinations(range(ma), csize):
            for bperm in itertools.permutations(range(lb), csize):
                b_axes = list(range(la + ma, la + ma + lb + mb))
                for s, t in zip(asel, bperm):
                    b_axes[t] = a_axes[la + s]
                a_keep = [a_axes[la + s] for s in range(ma) if s not in asel]
                b_keep = [b_axes[t] for t in range(lb) if t not in bperm]
                operands = [kernelA.values, a_axes, kernelB.values, b_axes]
                for s in asel:
                    operands += [grid.weights, [a_axes[la + s]]]
                out = a_axes[:la] + b_keep + a_keep + b_axes[lb:]
                terms.append(DiscreteKernel(la + len(b_keep), len(a_keep) + mb,
                                            np.einsum(*operands, out)))
    return terms
