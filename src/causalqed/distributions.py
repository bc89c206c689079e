"""Momentum-space evaluators for pairing and commutation functions,
mass-shell measures, and power-counting of singularity orders.

Conventions used everywhere: metric (+,-,-,-), hbar = c = 1, Fourier
transform g_hat(p) = integral g(x) exp(i p.x) d^4x.  The retarded
propagator is 1/(m^2 - p^2 - i eps p^0); retarded minus advanced then
reproduces the commutator function as a signed shell measure with
weights +i pi / E at p^0 = +E and -i pi / E at p^0 = -E.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# Dirac representation gamma matrices
_s0 = np.eye(2)
_sx = np.array([[0, 1], [1, 0]], dtype=complex)
_sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
_sz = np.array([[1, 0], [0, -1]], dtype=complex)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


GAMMA = np.array(
    [
        _block(_s0, 0 * _s0, 0 * _s0, -_s0),
        _block(0 * _s0, _sx, -_sx, 0 * _s0),
        _block(0 * _s0, _sy, -_sy, 0 * _s0),
        _block(0 * _s0, _sz, -_sz, 0 * _s0),
    ]
)

IDENTITY4 = np.eye(4, dtype=complex)


def minkowski(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p[0] * q[0] - np.dot(p[1:], q[1:])


def slash(p) -> np.ndarray:
    """gamma^mu p_mu with the (+,-,-,-) metric."""
    p = np.asarray(p, dtype=float)
    return p[0] * GAMMA[0] - p[1] * GAMMA[1] - p[2] * GAMMA[2] - p[3] * GAMMA[3]


class PoleProximityError(ArithmeticError):
    """Momentum too close to the real pole set for the requested eps."""


@dataclass
class CausalDistribution:
    """Momentum-space distribution: a plain evaluator and/or a shell rule.

    `eval_fn` maps a 4-vector to a complex value for function-like parts;
    `shell` maps a spatial 3-momentum to a list of (p0, weight) pairs for
    on-shell measure parts.  Either may be None.
    """

    eval_fn: object = None
    shell: object = None
    mass_params: tuple = ()
    omega: int = 0
    support_tag: str = "none"  # causal | retarded | advanced | none

    def __post_init__(self):
        if any(m < 0 for m in self.mass_params):
            raise ValueError("masses must be nonnegative")

    def __call__(self, p):
        if self.eval_fn is None:
            raise TypeError("distribution has no pointwise evaluator (measure part only)")
        return self.eval_fn(np.asarray(p, dtype=float))

    def shell_points(self, pvec):
        if self.shell is None:
            raise TypeError("distribution carries no shell measure")
        return self.shell(np.asarray(pvec, dtype=float))


@dataclass(frozen=True)
class ExternalLineSpec:
    """External-line counts for power-counting bounds."""

    fermion_lines: int = 0
    photon_lines: int = 0
    derivatives: int = 0
    # Yang-Mills variant counts
    boson_lines: int = 0
    ghost_lines: int = 0
    antighost_lines: int = 0

    def __post_init__(self):
        for name in ("fermion_lines", "photon_lines", "derivatives",
                     "boson_lines", "ghost_lines", "antighost_lines"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def singularity_bound(spec: ExternalLineSpec, theory: str = "spinorQED") -> int:
    """Power-counting bound on the singularity order omega.

    spinorQED: omega <= 4 - 3f/2 - k - d (floored when 3f/2 is odd-half);
    yangmills: omega <= 4 - b - g - gbar - d.
    """
    if theory == "spinorQED":
        return math.floor(4 - 1.5 * spec.fermion_lines - spec.photon_lines - spec.derivatives)
    if theory == "yangmills":
        return 4 - spec.boson_lines - spec.ghost_lines - spec.antighost_lines - spec.derivatives
    raise ValueError(f"unknown theory {theory!r}")


# the ray samples lam * direction at which scaling_degree_estimate fits
_SCALING_LAMBDAS = np.geomspace(4.0, 4096.0, 16)


def scaling_degree_estimate(d, direction) -> float:
    """Fitted growth exponent of |d(lam * direction)| vs lam on log-log axes.

    Accepts a CausalDistribution or any callable of a 4-vector.
    """
    direction = np.asarray(direction, dtype=float)
    vals = np.array([abs(complex(d(lam * direction))) for lam in _SCALING_LAMBDAS])
    if np.any(vals <= 0):
        raise ArithmeticError("distribution vanished along the ray; no exponent")
    slope, _ = np.polyfit(np.log(_SCALING_LAMBDAS), np.log(vals), 1)
    return float(slope)


def shell_energy(m: float, pvec) -> float:
    pvec = np.asarray(pvec, dtype=float)
    return math.sqrt(float(np.dot(pvec, pvec)) + m * m)


def pauli_jordan(m: float) -> CausalDistribution:
    """Commutator function D_m as a signed shell measure.

    At spatial momentum pvec the measure sits at p0 = +-E(pvec) with
    weights +-i pi / E, i.e. 2 pi i sgn(p0) delta(p^2 - m^2) resolved in
    the p0 variable.  This equals the eps -> 0 limit of Dret - Dav.
    """
    if m < 0:
        raise ValueError("mass must be nonnegative")

    def shell(pvec):
        E = shell_energy(m, pvec)
        w = 1j * math.pi / E
        return [(E, w), (-E, -w)]

    return CausalDistribution(shell=shell, mass_params=(m,), omega=-2, support_tag="causal")


def smear_shell(d: CausalDistribution, g, pvec_grid, pvec_weights):
    """Integrate a shell measure against a 4-momentum test function.

    Sums quadrature weights over the supplied spatial grid and the two
    shell branches: sum_i w_i sum_pm weight_pm(p_i) g(p0_pm, p_i).
    """
    total = 0.0 + 0.0j
    for pvec, w in zip(pvec_grid, pvec_weights):
        for p0, sw in d.shell_points(pvec):
            total += w * sw * g(np.array([p0, *np.atleast_1d(pvec)]))
    return total


_PROPAGATOR_KINDS = ("Dret", "Dav", "Sret", "Sav", "Feynman")


def ret_adv_commutation(kind: str, m: float, p, eps: float = 1e-8, tol: float = 1e-30):
    """Momentum-space retarded/advanced/Feynman propagators.

    Dret/Dav: 1/(m^2 - p^2 -+ i eps p^0).  Sret/Sav: (m + pslash) times
    the scalar factor, returned as a 4x4 matrix.  Feynman:
    1/(m^2 - p^2 - i eps).
    """
    if kind not in _PROPAGATOR_KINDS:
        raise ValueError(f"unknown propagator kind {kind!r}")
    p = np.asarray(p, dtype=float)
    p2 = minkowski(p, p)
    if kind == "Feynman":
        denom = m * m - p2 - 1j * eps
    elif kind == "Dret" or kind == "Sret":
        denom = m * m - p2 - 1j * eps * p[0]
    else:
        denom = m * m - p2 + 1j * eps * p[0]
    if abs(denom) < tol:
        raise PoleProximityError(f"{kind} evaluated within {tol} of its pole")
    scalar = 1.0 / denom
    if kind in ("Sret", "Sav"):
        return (m * IDENTITY4 + slash(p)) * scalar
    return scalar


_PROPAGATOR_SUPPORT = {"Dret": "retarded", "Sret": "retarded",
                       "Dav": "advanced", "Sav": "advanced", "Feynman": "none"}


def propagator_distribution(kind: str, m: float, eps: float = 1e-8) -> CausalDistribution:
    support = _PROPAGATOR_SUPPORT[kind]
    return CausalDistribution(
        eval_fn=lambda p: ret_adv_commutation(kind, m, p, eps=eps),
        mass_params=(m,),
        omega=-2,
        support_tag=support,
    )


def descriptor_from_json(text: str) -> CausalDistribution:
    """Build a distribution from a JSON descriptor.

    Schema: {"kind": ..., "mass": ..., "eps": ..., "normalization": [...]}
    where kind is one of the propagator kinds or "pauli_jordan".
    A missing or unknown kind raises ValueError.
    """
    obj = json.loads(text)
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind != "pauli_jordan" and kind not in _PROPAGATOR_SUPPORT:
        raise ValueError(f"unknown distribution kind {kind!r}")
    m = float(obj.get("mass", 0.0))
    if kind == "pauli_jordan":
        return pauli_jordan(m)
    return propagator_distribution(kind, m, eps=float(obj.get("eps", 1e-8)))
