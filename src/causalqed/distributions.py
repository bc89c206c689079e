"""Momentum-space distributions, the Dirac algebra, and power-counting
of singularity orders.

Conventions used everywhere: metric (+,-,-,-), hbar = c = 1, Fourier
transform g_hat(p) = integral g(x) exp(i p.x) d^4x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def slash(p) -> np.ndarray:
    """gamma^mu p_mu with the (+,-,-,-) metric."""
    p = np.asarray(p, dtype=float)
    return p[0] * GAMMA[0] - p[1] * GAMMA[1] - p[2] * GAMMA[2] - p[3] * GAMMA[3]


@dataclass
class CausalDistribution:
    """Distribution in a scalar dispersion variable E with a pointwise evaluator.

    `eval_fn` maps E, a float or an ndarray, to a complex value or an array
    of its shape; it may be None for an input that carries no evaluator,
    which `split` rejects.
    """

    eval_fn: object = None
    omega: int = 0
    support_tag: str = "none"  # causal | retarded | advanced | none


@dataclass(frozen=True)
class ExternalLineSpec:
    """External-line counts for power-counting bounds."""

    fermion_lines: int = 0
    photon_lines: int = 0
    derivatives: int = 0

    def __post_init__(self):
        for name in ("fermion_lines", "photon_lines", "derivatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def singularity_bound(spec: ExternalLineSpec) -> int:
    """Spinor-QED power-counting bound on the singularity order omega:
    omega <= 4 - 3f/2 - k - d, floored when 3f/2 is odd-half."""
    return math.floor(4 - 1.5 * spec.fermion_lines - spec.photon_lines - spec.derivatives)


# the ray samples lam at which scaling_degree_estimate fits
_SCALING_LAMBDAS = np.geomspace(4.0, 4096.0, 16)


def scaling_degree_estimate(f) -> float:
    """Fitted growth exponent of |f(lam)| vs lam > 0 on log-log axes.

    f takes the 16 sample points as one ndarray and returns an array of its
    shape, as an eval_fn does.
    """
    vals = np.abs(np.asarray(f(_SCALING_LAMBDAS), dtype=complex))
    if np.any(vals <= 0):
        raise ArithmeticError("distribution vanished along the ray; no exponent")
    slope, _ = np.polyfit(np.log(_SCALING_LAMBDAS), np.log(vals), 1)
    return float(slope)
