"""Retarded/advanced splitting of causal distributions of finite
singularity order in a scalar dispersion variable.

The retarded part is the boundary value of the function analytic in the
upper half plane:

    ret(E) = (i / 2 pi) PV+delta integral dE' d(E') / (E - E' + i0)
           = d(E)/2 + (i / 2 pi) PV integral dE' d(E') / (E - E')

For singularity order omega >= 0 the kernel carries the subtraction
factor ((E - E0)/(E' - E0))^(omega+1) anchored at the normalization
point E0, and the result is unique only up to an added polynomial
sum_k C_k (E - E0)^k of degree omega.

`dispersion` is the one Cauchy transform behind this split and `qed2` and
`adiabatic`: on the whole line one FFT table in Weideman's rational basis
(Math. Comp. 64 (1995) 745), on a half line adaptive `quad`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .distributions import CausalDistribution, scaling_degree_estimate


class SplitInputError(ValueError):
    """Input distribution not splittable as requested."""


def ambiguity_dimension(omega: int) -> int:
    """Number of free normalization constants of a degree-omega split."""
    return 0 if omega < 0 else omega + 1


@dataclass
class SplitSpec:
    omega: int
    normalization: tuple = ()
    subtraction_point: float = 0.0

    def __post_init__(self):
        self.normalization = tuple(self.normalization)
        need = ambiguity_dimension(self.omega)
        if self.omega >= 0 and len(self.normalization) != need:
            raise SplitInputError(
                f"omega={self.omega} requires {need} normalization constants, "
                f"got {len(self.normalization)}"
            )


@dataclass
class SplitResult:
    retarded: CausalDistribution
    advanced: CausalDistribution


# one quadrature tolerance set for every half-line dispersion integral
_QUAD = dict(limit=400, epsabs=1e-12, epsrel=1e-11)
# rational-basis table sizes N = 32..4096 and its outer-quarter tail rule
_TABLE_SIZES, _TABLE_TAIL = [32 * 2 ** p for p in range(8)], 1e-14


def _integral_from(f, thr: float, upper: float = math.inf) -> float:
    """integral_thr^upper f(s') ds' in u with s' = thr + u^2, which takes
    the square-root edge of a two-body density off the endpoint, where
    quad would otherwise bisect down to it."""
    return integrate.quad(lambda u: 2.0 * u * f(thr + u * u),
                          0.0, math.sqrt(upper - thr), **_QUAD)[0]


def _rational_table(f, center: float) -> np.ndarray:
    """a_k, k = -N..N-1, with f(center + w) = sum_k a_k exp(ik theta) / (1 - iw)
    and w = tan(theta / 2).  The k >= 0 terms are analytic above the real
    line, the k < 0 terms below.  The 2N samples sit at midpoints in theta,
    so none is at w = 0.  N doubles until the outer quarter of |a_k| is
    below 1e-14 of the largest."""
    for N in _TABLE_SIZES:
        theta = np.pi * (np.arange(2 * N) + 0.5) / N - np.pi
        w = np.tan(theta / 2.0)
        g = np.array([f(center + x) for x in w.tolist()], dtype=complex) * (1.0 - 1j * w)
        if not np.all(np.isfinite(g)):
            raise ArithmeticError("non-finite density sample in the rational-basis table")
        a = np.fft.fftshift(np.fft.fft(g)) * np.exp(-1j * np.arange(-N, N) * theta[0]) / (2 * N)
        if np.abs(np.r_[a[:N // 4], a[-(N // 4):]]).max() <= _TABLE_TAIL * np.abs(a).max():
            return a
    raise ArithmeticError(f"rational-basis table not converged at N = {N}")


def _rational_half(a: np.ndarray, w) -> complex:
    """The half of sum_k a_k rho_k(w) that is analytic on w's side of the
    real line: k >= 0 for Im w >= 0, k < 0 below."""
    N = len(a) // 2
    k, a = (np.arange(N), a[N:]) if complex(w).imag >= 0.0 else (np.arange(-N, 0), a[:N])
    return complex(np.dot(a, np.exp(2j * k * np.arctan(w)))) / (1.0 - 1j * w)


def dispersion(density, z, thr: float = -math.inf):
    """Cauchy transform (1/pi) integral_thr^inf density(s') / (s' - z) ds'.

    `density` is real.  Real z below thr gives a float; real z on the
    support gives the boundary value from above, PV + i density(z).  A
    subtracted dispersion integral is (z - s0)^n times the transform of
    rho(s') / (s' - s0)^n.  On the whole line it is 2i (-2i) times the k >= 0
    (k < 0) half of the density's rational table above (below) the line; on
    a half line the PV is a Cauchy-weight window around z plus two flanks.
    """
    z = complex(z)
    x, y = z.real, z.imag
    if math.isinf(thr):
        return (2j if y >= 0.0 else -2j) * _rational_half(_rational_table(density, 0.0), z)
    if y != 0.0:
        re = _integral_from(lambda sp: density(sp) * (sp - x) / ((sp - x) ** 2 + y * y), thr)
        im = _integral_from(lambda sp: density(sp) * y / ((sp - x) ** 2 + y * y), thr)
        return complex(re, im) / math.pi
    if x < thr:
        return _integral_from(lambda sp: density(sp) / (sp - x), thr) / math.pi
    h = (x - thr) / 2.0
    if h <= 0:
        raise ArithmeticError("dispersion evaluation at the threshold point")
    window, _ = integrate.quad(density, x - h, x + h, weight="cauchy", wvar=x, **_QUAD)
    left = _integral_from(lambda sp: density(sp) / (sp - x), thr, x - h)
    right, _ = integrate.quad(lambda sp: density(sp) / (sp - x), x + h, math.inf, **_QUAD)
    return complex((window + left + right) / math.pi, density(x))


def split(d: CausalDistribution, spec: SplitSpec) -> SplitResult:
    """Split a causal distribution into retarded and advanced parts."""
    if d.support_tag != "causal":
        raise SplitInputError("input must carry support_tag='causal'")
    if d.eval_fn is None:
        raise SplitInputError("splitting needs a pointwise evaluator in the scalar variable")
    omega = spec.omega
    E0 = spec.subtraction_point
    consts = spec.normalization
    n = omega + 1 if omega >= 0 else 0

    @functools.cache
    def table():
        # built at the first evaluation, where a table that does not converge should fail
        return _rational_table(lambda Ep: complex(d.eval_fn(Ep)) / (Ep - E0) ** n, E0)

    def ret_eval(E):
        # the k >= 0 half of the subtracted density is its retarded part
        E = float(np.asarray(E).reshape(()))
        val = (E - E0) ** n * _rational_half(table(), E - E0)
        for k, C in enumerate(consts):
            val += C * (E - E0) ** k
        return val

    def adv_eval(E):
        return ret_eval(E) - complex(d.eval_fn(float(np.asarray(E).reshape(()))))

    ret = CausalDistribution(eval_fn=ret_eval, mass_params=d.mass_params,
                             omega=omega, support_tag="retarded")
    adv = CausalDistribution(eval_fn=adv_eval, mass_params=d.mass_params,
                             omega=omega, support_tag="advanced")
    return SplitResult(retarded=ret, advanced=adv)


# 1D toy distributions with closed-form retarded parts, used as oracles
# and as CLI built-ins.  Base toy: d(t) = sgn(t) exp(-|t|), whose
# retarded part is theta(t) exp(-t) with transform 1/(1 - iE).

def toy_causal(power: int = 0) -> CausalDistribution:
    """Transform of (-i d/dt)^power applied to sgn(t) exp(-|t|).

    power = 0 has singularity order -1; power = p has order p - 1 and
    exact retarded transform E^p / (1 - iE).
    """
    if power < 0:
        raise ValueError("power must be nonnegative")

    def eval_fn(E):
        E = float(np.asarray(E).reshape(()))
        return (E ** power) * 2j * E / (1.0 + E * E)

    return CausalDistribution(eval_fn=eval_fn, mass_params=(),
                              omega=power - 1, support_tag="causal")


def toy_retarded_exact(power: int = 0):
    """Closed-form retarded transform of toy_causal(power)."""

    def r(E):
        E = float(np.asarray(E).reshape(()))
        return (E ** power) / (1.0 - 1j * E)

    return r


def polynomial_fit_residual(values_diff, Es, degree: int) -> float:
    """RMS residual of a degree-`degree` polynomial fit to a sample set."""
    Es = np.asarray(Es, dtype=float)
    vals = np.asarray(values_diff, dtype=complex)
    coef_re = np.polyfit(Es, vals.real, degree)
    coef_im = np.polyfit(Es, vals.imag, degree)
    fit = np.polyval(coef_re, Es) + 1j * np.polyval(coef_im, Es)
    return float(np.sqrt(np.mean(np.abs(vals - fit) ** 2)))


def reconstruction_residual(d: CausalDistribution, result: SplitResult, Es) -> float:
    """Max |ret - adv - d| over sample points, scaled by max |d|."""
    ds = [complex(d.eval_fn(E)) for E in Es]
    worst = max(abs(complex(result.retarded.eval_fn(E)) - complex(result.advanced.eval_fn(E)) - dv)
                for E, dv in zip(Es, ds))
    return worst / max(max(map(abs, ds)), 1e-300)


def order_preservation_check(d: CausalDistribution, result: SplitResult):
    """Scaling exponents (input, retarded) along the scalar ray E > 0."""

    def scalar_ray(f):
        return lambda p: f(float(np.asarray(p).reshape(-1)[0]))

    direction = [1.0, 0.0, 0.0, 0.0]
    e_in = scaling_degree_estimate(scalar_ray(d.eval_fn), direction)
    e_ret = scaling_degree_estimate(scalar_ray(result.retarded.eval_fn), direction)
    return e_in, e_ret
