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

The split reads the subtracted density off one FFT table in Weideman's
rational basis (Math. Comp. 64 (1995) 745).  `dispersion(density, thr)` is
the half-line Cauchy transform behind `qed2` and `adiabatic`: one
Gauss-Legendre table of the density, with Legendre functions of the second
kind near the cut (Abramowitz & Stegun 8 and 25.4).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

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


# rational-basis table sizes N = 32..4096 and its outer-quarter tail rule
_TABLE_SIZES, _TABLE_TAIL = [32 * 2 ** p for p in range(8)], 1e-14
# Gauss-Legendre sizes N = 32..512, its tail rule, and rho^N past which a point is summed
_GL_SIZES, _GL_TAIL, _GL_DIRECT = [32 * 2 ** p for p in range(5)], 1e-13, 1e8
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


@functools.cache
def _legendre_vander(N: int) -> np.ndarray:
    """P_k(x_i) for k < N at the N Gauss-Legendre nodes x_i, read-only."""
    V = np.polynomial.legendre.legvander(_gauss_legendre(N)[0], N - 1)
    V.flags.writeable = False
    return V


def _points(E):
    """E as a float, or as a float ndarray if it has dimensions: the sampled
    callbacks here take either and are evaluated elementwise."""
    return np.asarray(E, dtype=float) if isinstance(E, np.ndarray) and E.ndim else float(E)


def _sampled(rule: str, f, x: np.ndarray) -> np.ndarray:
    """f(x) as an array; ArithmeticError naming the rule and the first point
    of x whose sample is not finite."""
    y = np.asarray(f(x))
    bad = ~np.isfinite(y)
    if bad.any():
        raise ArithmeticError(f"non-finite {rule} sample at {float(x[bad][0])!r}")
    return y


def _converge(rule: str, levels):
    """(value, N, estimate) of the first refinement whose error estimate is
    within its bound; `levels` yields (N, value, estimate, bound) for each.
    A level draws 2N samples in the rational-basis table, N in the
    Gauss-Legendre table and N + 1 in window_smear.  After the last level
    it raises ArithmeticError with the rule, N and the estimate."""
    for N, value, estimate, bound in levels:
        if estimate <= bound:
            return value, N, estimate
    raise ArithmeticError(
        f"{rule} not converged at N = {N}: estimate {estimate:.3g} > bound {bound:.3g}")


def _tail_level(N: int, value, mags: np.ndarray, tol: float):
    """A table level whose |coefficients|, ordered by |k|, estimate its error
    by their outer quarter, against tol times the largest."""
    return N, value, mags[-(N // 4):].max(), tol * mags.max()


def _rational_levels(f, center: float):
    """a_k, k = -N..N-1, with f(center + w) = sum_k a_k exp(ik theta) / (1 - iw)
    and w = tan(theta / 2), for N doubling up the table sizes.  The k >= 0
    terms are analytic above the real line, the k < 0 terms below.  The 2N
    samples sit at midpoints in theta, so none is at w = 0; f takes them as
    one ndarray and returns an array of its shape.  a_k and a_{-k-1} fold
    into one magnitude, so the tail is the outer quarter of |a_k|."""
    for N in _TABLE_SIZES:
        theta = np.pi * (np.arange(2 * N) + 0.5) / N - np.pi
        w = np.tan(theta / 2.0)
        g = _sampled("rational-basis table",
                     lambda E: np.asarray(f(E), dtype=complex) * (1.0 - 1j * w), center + w)
        a = np.fft.fftshift(np.fft.fft(g)) * np.exp(-1j * np.arange(-N, N) * theta[0]) / (2 * N)
        yield _tail_level(N, a, np.maximum(np.abs(a[N:]), np.abs(a[N - 1::-1])), _TABLE_TAIL)


def _rational_half(a: np.ndarray, w):
    """The k >= 0 half of sum_k a_k rho_k(w), analytic above the real line.

    Horner's rule in z = (1 + iw) / (1 - iw), which is exp(2i arctan w): a
    float w gives a complex, an ndarray w an array of its shape, and every
    temporary has the size of w, not len(w) x N."""
    N = len(a) // 2
    z = (1.0 + 1j * w) / (1.0 - 1j * w)
    total = 0 * z
    for c in a[:N - 1:-1].tolist():  # a_{N-1} down to a_0
        total *= z
        total += c
    return total / (1.0 - 1j * w)


def _near(sigma, N: int):
    """Whether sigma (a number, or elementwise an array) is inside the
    Bernstein ellipse of [0, 1] with rho^N = 1e8."""
    S = abs(2.0 * sigma) + abs(2.0 * sigma - 2.0)  # >= 2 up to rounding
    return (S + abs(S * S - 4.0) ** 0.5) / 2.0 < _GL_DIRECT ** (1.0 / N)


def _cauchy(table, sigma: complex) -> complex:
    """integral_0^1 g(t) / (t - sigma) dt, from above for sigma on (0, 1): the
    Gauss-Legendre sum outside the ellipse of `_near`, else
    -2 sum_k c_k Q_k(2 sigma - 1) with Q_k by forward recurrence."""
    t, w, g, c = table
    if not _near(sigma, len(c)):
        return complex(np.dot(w, g / (t - sigma)))
    xi = 2.0 * sigma - 1.0
    Q = 0.5 * cmath.log((xi + 1.0) / (xi - 1.0))
    if xi.imag == 0.0 and abs(xi.real) < 1.0:  # on the cut, from above
        Q = Q.real - 0.5j * math.pi
    total, Q_prev, Q = c[0] * Q, Q, xi * Q - 1.0
    for k in range(1, len(c)):
        total += c[k] * Q
        Q_prev, Q = Q, ((2 * k + 1) * xi * Q - k * Q_prev) / (k + 1)
    return -2.0 * total


def _legendre_levels(density, thr: float):
    """Nodes t and weights w on [0, 1], g(t) = 2 s' density(s') with
    s' = thr / (1 - t^2), and c_k with g = sum_k c_k P_k(2t - 1), for N
    doubling up the Gauss-Legendre sizes.  The tail is the outer quarter of
    the orthonormal c_k.  density takes the N nodes s' as one ndarray and
    returns an array of its shape."""
    for N in _GL_SIZES:
        x, w = _gauss_legendre(N)
        t = (x + 1.0) / 2.0
        g = _sampled("Gauss-Legendre table", lambda sp: 2.0 * sp * density(sp),
                     thr / (1.0 - t * t))
        c = (np.arange(N) + 0.5) * ((w * g) @ _legendre_vander(N))
        yield _tail_level(N, (t, w / 2.0, g, c.tolist()), np.abs(c) / np.sqrt(np.arange(N) + 0.5),
                          _GL_TAIL)


def dispersion(density, thr: float):
    """The Cauchy transform z -> (1/pi) integral_thr^inf density(s') / (s' - z) ds'.

    `density` is real and thr > 0; it takes an ndarray of s' and returns an
    array of its shape, and the table samples it in one call per size.
    Real z below thr gives a float; real z on the support gives the
    boundary value from above, PV + i density(z).
    With s' = thr / (1 - t^2) and g(t) = 2 s' density(s') it is
    (1 / 2 pi z) integral_0^1 g(t) [1/(t - t0) + 1/(t + t0)] dt, where
    t0^2 = (z - thr) / z and Re t0 >= 0.  Each evaluation is O(N) in the
    table of g built by the first.

    An ndarray z gives an array of its shape: real if every z is real and
    below thr, else complex.  The points outside the ellipse of `_near`
    share one matrix product; the rest take the scalar path one by one.
    """
    if not 0.0 < thr < math.inf:
        raise ValueError("dispersion needs a finite threshold thr > 0")

    table = functools.cache(
        lambda: _converge("Gauss-Legendre table", _legendre_levels(density, thr))[0])

    def transform(z):
        if isinstance(z, np.ndarray) and z.ndim:
            return transform_array(z)
        z = complex(z)
        if z == thr:
            raise ArithmeticError("dispersion evaluation at the threshold point")
        t, w, g, c = tab = table()
        # z - thr is exact near the threshold, where the sum of the two
        # Cauchy integrals keeps its digits as t0 -> 0
        t0 = cmath.sqrt((z - thr) / z) if z else math.inf
        if _near(t0, len(c)):
            val = (_cauchy(tab, t0) + _cauchy(tab, -t0)) / (2.0 * math.pi * z)
        else:  # both +-t0 far from [0, 1], z = 0 included
            val = complex(np.dot(w, t * g / (thr - z * (1.0 - t * t)))) / math.pi
        return val.real if z.imag == 0.0 and z.real < thr else val

    def transform_array(z):
        t, w, g, c = table()
        shape, real = z.shape, not np.any(np.imag(z)) and bool(np.all(np.real(z) < thr))
        z = (np.real(z).astype(float) if real else z.astype(complex)).ravel()
        out = np.empty_like(z)
        # |z| below ~1e-300 overflows t0 to inf or nan, which the test leaves far
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t0 = np.sqrt(((z - thr) / np.where(z == 0.0, 1.0, z)).astype(complex))
            near = _near(t0, len(c)) & (z != 0.0)
        far = ~near
        # the far sum of the scalar path for all far points, in place: fresh
        # temporaries of this size cost more than the arithmetic
        d = np.multiply.outer(z[far], t * t - 1.0)
        d += thr
        out[far] = np.divide(t * g, d, out=d) @ w / math.pi
        for i in np.flatnonzero(near):  # z = thr is near (t0 = 0) and raises there
            out[i] = transform(complex(z[i]))
        return out.reshape(shape)

    return transform


def split(d: CausalDistribution, spec: SplitSpec) -> SplitResult:
    """Split a causal distribution into retarded and advanced parts.

    d.eval_fn takes an ndarray of E and returns an array of its shape: the
    rational-basis table samples it in one call per size.  The parts'
    eval_fn take a float, giving a complex, or an ndarray, giving an array.
    """
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
        return _converge("rational-basis table", _rational_levels(
            lambda Ep: np.asarray(d.eval_fn(Ep), dtype=complex) / (Ep - E0) ** n, E0))[0]

    def ret_eval(E):
        # the k >= 0 half of the subtracted density is its retarded part
        x = _points(E) - E0
        val = x ** n * _rational_half(table(), x)
        for k, C in enumerate(consts):
            val += C * x ** k
        return val

    def adv_eval(E):
        E = _points(E)
        return ret_eval(E) - d.eval_fn(E)

    ret = CausalDistribution(eval_fn=ret_eval, omega=omega, support_tag="retarded")
    adv = CausalDistribution(eval_fn=adv_eval, omega=omega, support_tag="advanced")
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
        E = _points(E)
        # a real quotient times 2j: numpy and Python round it alike
        return 2j * (E ** power * E / (1.0 + E * E))

    return CausalDistribution(eval_fn=eval_fn, omega=power - 1, support_tag="causal")


def toy_retarded_exact(power: int = 0):
    """Closed-form retarded transform of toy_causal(power)."""

    def r(E):
        E = _points(E)
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
    """Max |ret - adv - d| over sample points, scaled by max |d|; each of the
    three is evaluated once, on all the points."""
    Es = np.asarray(Es, dtype=float)
    ds, ret, adv = (np.asarray(f(Es), dtype=complex)
                    for f in (d.eval_fn, result.retarded.eval_fn, result.advanced.eval_fn))
    return float(np.max(np.abs(ret - adv - ds)) / max(np.max(np.abs(ds)), 1e-300))


def order_preservation_check(d: CausalDistribution, result: SplitResult):
    """Scaling exponents (input, retarded) along the scalar ray E > 0."""
    return scaling_degree_estimate(d.eval_fn), scaling_degree_estimate(result.retarded.eval_fn)
