"""Closed-form and independent reference values for the benchmark's checks.

Nothing here calls causalqed or scipy.integrate: the references come from
Feynman-parameter representations, partial fractions and Gauss-Legendre
sums, so they share no code path with the spectral dispersion integrals
they judge.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

# -- vacuum polarization -------------------------------------------------------
#
# Pi(s) = -4 [ int_0^1 u log(1 - u s/m^2 - i0) dx + s / (30 m^2) ],  u = x(1-x).
# With t = x - 1/2 and a^2 = m^2/s - 1/4 the x-integral is
#   I = -4/9 - (2/3) a^2 + a^2 (2 a^2/3 + 1/2) K,  K = int_{-1/2}^{1/2} dt / (t^2 + a^2),
# and for |s/m^2| < 1 the Taylor series in s/m^2 avoids the cancellation in I.

_SERIES_TERMS = 40
_PI_SERIES = [math.factorial(n + 1) ** 2 / math.factorial(2 * n + 3) / n
              for n in range(1, _SERIES_TERMS + 1)]


def pi_closed(m: float, s) -> complex:
    """Twice-subtracted vacuum polarization at p^2 = s (boundary value from Im s > 0)."""
    r = complex(s) / (m * m)
    if abs(r) < 1.0:
        return complex(4.0 * sum(c * r ** n for n, c in enumerate(_PI_SERIES, start=1) if n >= 2))
    if r.imag == 0.0:
        r = r.real
        a2 = 1.0 / r - 0.25
        if a2 > 0.0:
            a = math.sqrt(a2)
            K = (2.0 / a) * math.atan(1.0 / (2.0 * a))
        elif r < 0.0:
            b = math.sqrt(-a2)
            K = math.log((b - 0.5) / (b + 0.5)) / b
        elif a2 < 0.0:
            # on the cut: principal value plus i pi times the two delta terms
            b = math.sqrt(-a2)
            K = math.log((0.5 - b) / (0.5 + b)) / b + 1j * math.pi / b
        else:
            raise ValueError("threshold point s = 4 m^2")
    else:
        a2 = 1.0 / r - 0.25
        c = 1j * cmath.sqrt(a2)
        K = ((cmath.log(0.5 - c) - cmath.log(-0.5 - c))
             - (cmath.log(0.5 + c) - cmath.log(-0.5 + c))) / (2.0 * c)
    I = -4.0 / 9.0 - (2.0 / 3.0) * a2 + a2 * (2.0 * a2 / 3.0 + 0.5) * K
    return complex(-4.0 * (I + r / 30.0))


def pi_rho(m: float, s: float) -> float:
    """Im Pi on the cut: (2 pi / 3)(1 + 2 m^2 / s) sqrt(1 - 4 m^2 / s)."""
    if s <= 4.0 * m * m:
        return 0.0
    return (2.0 * math.pi / 3.0) * (1.0 + 2.0 * m * m / s) * math.sqrt(1.0 - 4.0 * m * m / s)


# -- electron self-energy --------------------------------------------------------
#
# With Delta(x, s) = s x^2 - (s - m^2 + mu^2) x + mu^2 the discontinuities are
# rho_a = 2 m Im B0 and rho_b = Im G_b for
#   B0(s) = -int log Delta dx,   G_b(s) = int (1 - x) log Delta dx,
# so the once-subtracted dispersion integrals anchored at m^2 are differences
# of these Feynman-parameter integrals.  Delta > 0 on [0, 1] below threshold;
# its narrow dip near x ~ mu/m is resolved by a geometric composite rule.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_BREAKS = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 17)])


def _composite_nodes():
    xs, ws = [], []
    for lo, hi in zip(_BREAKS[:-1], _BREAKS[1:]):
        half = 0.5 * (hi - lo)
        xs.append(lo + half * (_GL_X + 1.0))
        ws.append(half * _GL_W)
    return np.concatenate(xs), np.concatenate(ws)


_X, _W = _composite_nodes()


def _delta(m, mu, s):
    return s * _X * _X - (s - m * m + mu * mu) * _X + mu * mu


def _check_below(m, mu, s):
    if not s < (m + mu) ** 2:
        raise ValueError("self-energy oracle covers s below threshold only")


def sigma_constants(m: float, mu: float):
    """On-shell constants (c0, c1) from the two shell conditions."""
    d = _delta(m, mu, m * m)
    u = _X * (1.0 - _X)
    a_prime = 2.0 * m * float(np.dot(_W, u / d))
    b_prime = -float(np.dot(_W, u * (1.0 - _X) / d))
    c1 = -(2.0 * m * a_prime + 2.0 * m * m * b_prime)
    return -m * c1, c1


def sigma_ab(m: float, mu: float, s: float, constants) -> tuple:
    """(a(s), b(s)) with the given constants, for s below threshold."""
    _check_below(m, mu, s)
    log_s = np.log(_delta(m, mu, s))
    log_0 = np.log(_delta(m, mu, m * m))
    b0_diff = -float(np.dot(_W, log_s - log_0))
    gb_diff = float(np.dot(_W, (1.0 - _X) * (log_s - log_0)))
    return constants[0] + 2.0 * m * b0_diff, constants[1] + gb_diff


# -- adiabatic sweeps ----------------------------------------------------------

_SHELL_X, _SHELL_W = np.polynomial.legendre.leggauss(12)


def shell_overlap(m: float, xi_width: float, phi_width: float, pmax: float = 2.0):
    """(sum w xi phi, sum w xi phi / E) on the radial shell grid p = (E, 0, 0, r)
    for xi = exp(-a |p|^2), phi = exp(-b p.p_Euclid)."""
    r = 0.5 * pmax * (_SHELL_X + 1.0)
    w = 0.5 * pmax * _SHELL_W
    E = np.sqrt(r * r + m * m)
    f = w * np.exp(-xi_width * r * r) * np.exp(-phi_width * (E * E + r * r))
    return complex(f.sum()), complex((f / E).sum())


def massless_standoff(eps: float, s_fix: float = -1.0) -> float:
    """Twice-subtracted massless dispersion anchored at -eps, in closed form.

    rho = 2 pi / 3 is constant, so with a = eps, b = -s_fix the integral
    int_0^inf ds / ((s + a)^2 (s + b)) = log(a/b)/(a - b)^2 + 1/(a (b - a)).
    """
    a, b = eps, -s_fix
    integral = math.log(a / b) / (a - b) ** 2 + 1.0 / (a * (b - a))
    return (s_fix + eps) ** 2 / math.pi * (2.0 * math.pi / 3.0) * integral


def sweep_values(kappa, regular, plain, over_e, epsilons):
    """Smeared shell contribution kappa over_e / (-i eps) + regular plain per eps."""
    return np.array([kappa * over_e / (-1j * e) + regular * plain for e in epsilons])


# -- splitting toys --------------------------------------------------------------

def toy_retarded(power: int, E: float) -> complex:
    """theta(t) e^{-t} transformed, times E^power: E^p / (1 - i E)."""
    return E ** power / (1.0 - 1j * E)


def toy_causal(power: int, E: float) -> complex:
    return E ** power * 2j * E / (1.0 + E * E)


def lattice_retarded(E: float, k: int, omega0: float = 1.0, gamma: float = 0.3) -> complex:
    kw, kg = k * omega0, k * gamma
    return (1.0 / (kg - 1j * (E - kw)) - 1.0 / (kg - 1j * (E + kw))) / (2.0 * omega0) ** k


def lattice_causal(E: float, k: int, omega0: float = 1.0, gamma: float = 0.3) -> complex:
    kw, kg = k * omega0, k * gamma

    def lor(x):
        return 2.0 * kg / (kg * kg + x * x)

    return (lor(E - kw) - lor(E + kw)) / (2.0 * omega0) ** k


# -- Fock grid -----------------------------------------------------------------

def ladder_amplitude(config, mode, weights, fermi, create: bool) -> float:
    """Amplitude of a(+)_mode on a basis configuration with delta_ij / w_i
    normalization, Jordan-Wigner signs over fermionic modes to the left."""
    n = config[mode]
    w = weights[mode]
    if fermi:
        if (create and n == 1) or (not create and n == 0):
            return 0.0
        sign = -1.0 if sum(config[:mode]) % 2 else 1.0
        return sign / math.sqrt(w)
    if not create and n == 0:
        return 0.0
    return math.sqrt(n + 1 if create else n) / math.sqrt(w)


def number_expectation(phi_amps: dict, psi_amps: dict) -> complex:
    """<phi, N psi> with N = sum_i w_i a_i^+ a_i, diagonal with the particle count."""
    return sum(np.conj(a) * psi_amps[c] * sum(c) for c, a in phi_amps.items() if c in psi_amps)


def product_of_limits_terms(A, Al, Am, B, Bl, Bm, weights):
    """Kernel values of the normal-ordered expansion of Xi(A) Xi(B), by einsum,
    in the order: contraction size, A-annihilation subset, B-creation permutation."""
    out = []
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    a_idx = [next(letters) for _ in range(Al + Am)]
    b_idx = [next(letters) for _ in range(Bl + Bm)]
    for csize in range(0, min(Am, Bl) + 1):
        for asel in itertools.combinations(range(Am), csize):
            for bperm in itertools.permutations(range(Bl), csize):
                ai, bi = list(a_idx), list(b_idx)
                for s, t in zip(asel, bperm):
                    bi[t] = ai[Al + s]
                contracted = [ai[Al + s] for s in asel]
                a_keep = [ai[Al + s] for s in range(Am) if s not in asel]
                b_keep = [bi[t] for t in range(Bl) if t not in bperm]
                result = ai[:Al] + b_keep + a_keep + bi[Bl:]
                operands = [A, B] + [weights] * csize
                spec = ",".join(["".join(ai), "".join(bi)] + contracted) + "->" + "".join(result)
                out.append(np.einsum(spec, *operands))
    return out
