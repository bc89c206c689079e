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

`dispersion` is the one Cauchy transform behind this split and behind
the subtracted dispersion integrals of `qed2` and `adiabatic`.
"""

from __future__ import annotations

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


# one quadrature tolerance set for every dispersion integral
_QUAD = dict(limit=400, epsabs=1e-12, epsrel=1e-11)
# integration window in the compactified variable u = arctan(s')
_U_EDGE = math.pi / 2 - 1e-10


def _integral_from(f, thr: float, upper: float = math.inf) -> float:
    """integral_thr^upper f(s') ds'.  From a finite thr it runs in u with
    s' = thr + u^2, which takes the square-root edge of a two-body density
    off the endpoint, where quad would otherwise bisect down to it."""
    if math.isinf(thr):
        return integrate.quad(f, thr, upper, **_QUAD)[0]
    return integrate.quad(lambda u: 2.0 * u * f(thr + u * u),
                          0.0, math.sqrt(upper - thr), **_QUAD)[0]


def dispersion(density, z, thr: float = -math.inf):
    """Cauchy transform (1/pi) integral_thr^inf density(s') / (s' - z) ds'.

    `density` is real.  Real z below thr gives a float; real z on the
    support gives the boundary value from above, PV + i density(z).  A
    subtracted dispersion integral is (z - s0)^n times the transform of
    rho(s') / (s' - s0)^n.  On the whole line the PV is one Cauchy-weight
    quad in the compactified u = arctan(s'); on a half line it is a
    Cauchy-weight window around z plus the two flanks.
    """
    z = complex(z)
    x, y = z.real, z.imag
    if y != 0.0:
        re = _integral_from(lambda sp: density(sp) * (sp - x) / ((sp - x) ** 2 + y * y), thr)
        im = _integral_from(lambda sp: density(sp) * y / ((sp - x) ** 2 + y * y), thr)
        return complex(re, im) / math.pi
    if x < thr:
        return _integral_from(lambda sp: density(sp) / (sp - x), thr) / math.pi
    if math.isinf(thr):
        u0 = math.atan(x)

        def smooth(u):
            # density * sec^2(u) * (u - u0) / (tan u - x), which tends to density(x)
            if abs(u - u0) < 1e-9:
                return density(x)
            sp = math.tan(u)
            return density(sp) * (1.0 + sp * sp) * (u - u0) / (sp - x)

        pv, _ = integrate.quad(smooth, -_U_EDGE, _U_EDGE, weight="cauchy", wvar=u0, **_QUAD)
    else:
        h = (x - thr) / 2.0
        if h <= 0:
            raise ArithmeticError("dispersion evaluation at the threshold point")
        window, _ = integrate.quad(density, x - h, x + h, weight="cauchy", wvar=x, **_QUAD)
        left = _integral_from(lambda sp: density(sp) / (sp - x), thr, x - h)
        right, _ = integrate.quad(lambda sp: density(sp) / (sp - x), x + h, math.inf, **_QUAD)
        pv = window + left + right
    return complex(pv / math.pi, density(x))


def split(d: CausalDistribution, spec: SplitSpec) -> SplitResult:
    """Split a causal distribution into retarded and advanced parts."""
    if d.support_tag != "causal":
        raise SplitInputError("input must carry support_tag='causal'")
    if d.eval_fn is None:
        raise SplitInputError("splitting needs a pointwise evaluator in the scalar variable")
    omega = spec.omega
    E0 = spec.subtraction_point
    consts = spec.normalization

    def dhat(E):
        return complex(d.eval_fn(E))

    n = omega + 1 if omega >= 0 else 0

    def subtracted(Ep):
        if n and Ep == E0:
            # removable: dhat must vanish to order n at E0
            Ep = E0 + 1e-9 * (1.0 + abs(E0))
        return dhat(Ep) / (Ep - E0) ** n

    def ret_eval(E):
        E = float(np.asarray(E).reshape(()))
        # PV of the subtracted transform, one real density at a time
        pv = (dispersion(lambda Ep: subtracted(Ep).real, E).real
              + 1j * dispersion(lambda Ep: subtracted(Ep).imag, E).real)
        val = dhat(E) / 2.0 - 0.5j * (E - E0) ** n * pv
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
    worst = 0.0
    scale = max(abs(complex(d.eval_fn(E))) for E in Es)
    for E in Es:
        r = complex(result.retarded.eval_fn(E))
        a = complex(result.advanced.eval_fn(E))
        worst = max(worst, abs(r - a - complex(d.eval_fn(E))))
    return worst / max(scale, 1e-300)


def order_preservation_check(d: CausalDistribution, result: SplitResult):
    """Scaling exponents (input, retarded) along the scalar ray E > 0."""

    def scalar_ray(f):
        return lambda p: f(float(np.asarray(p).reshape(-1)[0]))

    direction = [1.0, 0.0, 0.0, 0.0]
    e_in = scaling_degree_estimate(scalar_ray(d.eval_fn), direction)
    e_ret = scaling_degree_estimate(scalar_ray(result.retarded.eval_fn), direction)
    return e_in, e_ret
