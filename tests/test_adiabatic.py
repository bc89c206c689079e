import math

import numpy as np
import pytest

from causalqed import adiabatic
from causalqed.adiabatic import (_WEAK_K, _WEAK_MEASURE, _WEAK_Q, CHANNELS,
                                 DEFAULT_SCHEDULE, SWEEP_MIN_STEPS, ScalingFamily,
                                 _massless_standoff, bump_profile,
                                 classify_sweep, epsilon_free_evaluation,
                                 gaussian_profile, sweep, weak_limit_vacuum)
from causalqed.qed2 import build_self_energy, build_vacuum_polarization, causal_imaginary_part
from causalqed.splitting import dispersion

SCHED = tuple(2.0 ** (-k) for k in range(3, 12))


def xi(pvec):
    return float(np.exp(-float(np.dot(pvec, pvec))))


def phi(p4):
    return float(np.exp(-float(np.dot(p4, p4))))


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScalingFamily(g_hat=lambda p: 1.0, epsilon_schedule=(0.1, 0.2))
    with pytest.raises(ValueError):
        ScalingFamily(g_hat=lambda p: 1.0, epsilon_schedule=(0.1, -0.01))
    for bad in ((0.1, math.nan, 0.01), (math.inf, 0.1), ()):
        with pytest.raises(ValueError):
            ScalingFamily(g_hat=lambda p: 1.0, epsilon_schedule=bad)


_DELTA_X, _DELTA_W = np.polynomial.legendre.leggauss(20)
# the 20^4 product rule on k in [-5, 5]^4: nodes (20, 20, 20, 20, 4) and weights
_DELTA_K = np.stack(np.meshgrid(*[5.0 * _DELTA_X] * 4, indexing="ij"), axis=-1)
_DELTA_W4 = np.einsum("i,j,k,l->ijkl", *[5.0 * _DELTA_W] * 4)


def scaling_delta_check(family: ScalingFamily, F, eps: float) -> complex:
    """integral eps^-4 g_hat(p/eps) F(p) d^4p by substitution p = eps k, with one
    g_hat call and one F call on the whole node grid."""
    return complex(np.sum(_DELTA_W4 * family.g_hat(_DELTA_K) * F(eps * _DELTA_K)))


def test_profiles_are_delta_families():
    # integral g_hat_eps F -> (2 pi)^4 alpha0 F(0)
    target = (2.0 * math.pi) ** 4
    F = lambda p: np.exp(-np.sum(p * p, axis=-1))
    for fam in (gaussian_profile(), bump_profile()):
        val = scaling_delta_check(fam, F, eps=0.01)
        assert abs(val - target) / target < 1e-3


def test_classify_sweep_synthetic():
    eps = np.array(SCHED)
    div = classify_sweep(eps, 1.0 / eps)
    assert div.verdict == "diverged"
    assert div.fitted_exponent == pytest.approx(-1.0, abs=1e-9)

    const = classify_sweep(eps, 3.0 + 2.0 * eps)
    assert const.verdict == "converged"
    assert const.limit_estimate == pytest.approx(3.0, abs=1e-6)

    decay = classify_sweep(eps, np.sqrt(eps))
    assert decay.verdict == "converged"
    assert decay.limit_estimate == 0.0

    zero = classify_sweep(eps, np.zeros_like(eps))
    assert zero.verdict == "converged" and zero.limit_estimate == 0.0

    short = classify_sweep(eps[:2], eps[:2])
    assert short.verdict == "inconclusive"

    # the shortest schedule that classifies: kappa/eps + b on three points
    shortest = eps[:SWEEP_MIN_STEPS]
    assert len(shortest) == 3
    first = classify_sweep(shortest, 0.3 / shortest + 2.0)
    assert first.verdict == "diverged"
    assert first.fitted_exponent == pytest.approx(-1.0, abs=1e-12)

    # a constant that dominates |value| cancels in the increments, so the
    # exponent stays that of the 1/eps term
    eps = np.array(DEFAULT_SCHEDULE)
    for a in (1.0, 1e-2, 1e-3, 1e-4):
        offset = classify_sweep(eps, a / eps + 1.0)
        assert offset.verdict == "diverged"
        assert offset.fitted_exponent == pytest.approx(-1.0, abs=1e-9)
    # down to 1e-12 the increments still read 1/eps where |value| is flat
    for a in (1e-5, 1e-8, 1e-12):
        offset = classify_sweep(eps, a / eps + 1.0)
        assert offset.verdict == "diverged"
        assert offset.fitted_exponent == pytest.approx(-1.0, abs=1e-6)


def test_roundoff_sized_kappa_leaves_a_converged_sweep_converged():
    # the increment fit gives a diverged sweep its exponent; it does not
    # turn a 1/eps term far below the finite part into a divergence
    eps = np.array(DEFAULT_SCHEDULE)
    result = classify_sweep(eps, 1e-16 / eps + 1.0)
    assert result.verdict == "converged"
    assert result.limit_estimate == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def se():
    return build_self_energy(1.0)


@pytest.fixture(scope="module")
def family():
    fam = gaussian_profile()
    return ScalingFamily(g_hat=fam.g_hat, epsilon_schedule=SCHED)


def test_on_shell_sweep_converges_to_eps_free_value(se, family):
    result = sweep("Sigma_into_psi", se, xi, phi, family)
    assert result.verdict == "converged"
    direct = epsilon_free_evaluation("Sigma_into_psi", se, xi, phi)
    assert abs(result.limit_estimate - direct) < 1e-10


def test_off_shell_sweep_diverges_like_one_over_eps(se, family):
    from causalqed.qed2 import SelfEnergy
    off = SelfEnergy(se.m, se.photon_mass,
                     (se.constants[0] + 0.2, se.constants[1]))
    result = sweep("Sigma_into_psi", off, xi, phi, family)
    assert result.verdict == "diverged"
    assert result.fitted_exponent == pytest.approx(-1.0, abs=0.05)


def test_vacuum_polarization_channels(family):
    vp = build_vacuum_polarization(1.0)
    for channel in ("Pi_into_A", "Pi_into_current"):
        result = sweep(channel, vp, xi, phi, family)
        assert result.verdict == "converged"


def test_channel_type_guards(se, family):
    with pytest.raises(TypeError):
        sweep("Pi_into_A", se, xi, phi, family)
    with pytest.raises(ValueError):
        sweep("unknown", se, xi, phi, family)
    with pytest.raises(ValueError):
        ScalingFamily(g_hat=family.g_hat, epsilon_schedule=(0.1, 0.0))


def test_channel_registry():
    assert set(CHANNELS) == {"Sigma_into_psi", "Pi_into_A",
                             "Pi_into_current", "massless_charge"}


def test_massless_standoff_closed_form():
    # the closed form against the twice-subtracted dispersion it replaces: the
    # integral runs in x = s' + eps, so the cut starts at eps and the x^-2
    # pole stays off the table
    for eps in DEFAULT_SCHEDULE:
        density = lambda x, eps=eps: causal_imaginary_part("Pi", 0.0, x - eps) / (x * x)
        anchored = (1.0 - eps) ** 2 * dispersion(density, eps)(eps - 1.0)
        assert _massless_standoff(eps) == pytest.approx(anchored, rel=1e-12)


def counted(fn):
    def wrapper(*args):
        wrapper.calls += 1
        return fn(*args)
    wrapper.calls = 0
    return wrapper


def test_sweep_evaluates_the_shell_overlap_once(se):
    fam = gaussian_profile()
    family = ScalingFamily(g_hat=fam.g_hat, epsilon_schedule=DEFAULT_SCHEDULE)
    cxi, cphi = counted(xi), counted(phi)
    sweep("Sigma_into_psi", se, cxi, cphi, family)
    assert len(DEFAULT_SCHEDULE) == 12
    assert (cxi.calls, cphi.calls) == (12, 12)


def test_weak_limit_evaluates_the_profile_product_once():
    # the 24 x 24 grid for k and for -k, in at most two calls
    g_hat = gaussian_profile().g_hat
    for schedule in (DEFAULT_SCHEDULE, DEFAULT_SCHEDULE[:3]):
        points = []
        counted_g = lambda p: points.append(np.shape(p)[:-1]) or g_hat(p)
        weak_limit_vacuum(2, ScalingFamily(g_hat=counted_g, epsilon_schedule=schedule))
        assert len(points) <= 2
        assert sum(math.prod(shape) for shape in points) == 2 * 24 * 24


@pytest.mark.parametrize("profile", [gaussian_profile(alpha0=1.3, width=0.7),
                                     bump_profile(alpha0=0.8, width=1.4, shape=0.6)])
def test_profile_on_an_array_equals_it_row_by_row(profile):
    rng = np.random.default_rng(20261021)
    p = rng.uniform(-3.0, 3.0, size=(64, 4))
    got = profile.g_hat(p)
    assert got.shape == (64,)
    for row, value in zip(p, got):
        want = profile.g_hat(row)
        assert isinstance(want, float)
        assert abs(value - want) <= 1e-15 * abs(want)
    assert profile.g_hat(p.reshape(8, 8, 4)).shape == (8, 8)


def test_massless_sweep_makes_at_most_one_density_call(monkeypatch):
    density = counted(causal_imaginary_part)
    monkeypatch.setattr(adiabatic, "causal_imaginary_part", density)
    family = ScalingFamily(g_hat=gaussian_profile().g_hat, epsilon_schedule=DEFAULT_SCHEDULE)
    result = sweep("massless_charge", None, xi, phi, family, constants=(0.5, -0.3))
    assert result.verdict == "diverged"
    assert density.calls <= 1


def test_massless_exponent_is_the_same_for_every_constant_choice():
    # the constants shift the massless sweep by a finite part, which cancels
    # in the increments: no constant choice changes the divergence
    family = ScalingFamily(g_hat=gaussian_profile().g_hat, epsilon_schedule=DEFAULT_SCHEDULE)
    results = [sweep("massless_charge", None, xi, phi, family, constants=c)
               for c in ((0.0, 0.0), (0.5, -0.3), (-2.0, 1.0), (10.0, 3.0))]
    assert {r.verdict for r in results} == {"diverged"}
    exponents = [r.fitted_exponent for r in results]
    assert max(exponents) - min(exponents) < 1e-12
    assert exponents[0] == pytest.approx(-1.0, abs=0.01)


def test_weak_limit_matches_the_pointwise_node_sum():
    # the same 24 x 24 node grid, with the scalar transform at every node and
    # eps; the profile product is not even in k0 alone
    m, schedule = 1.2, DEFAULT_SCHEDULE
    g_hat = lambda p: bump_profile().g_hat(p) * (1.0 + 0.3 * p[..., 0] * p[..., 3])
    u = dispersion(lambda sp: causal_imaginary_part("Pi", m, sp) / sp ** 3, 4.0 * m * m)
    weights = [wk * g_hat(k) * g_hat(-k)
               for k, wk in zip(_WEAK_K.reshape(-1, 4), _WEAK_MEASURE.flat)]
    for c0, c1, c2 in ((0.0, 0.0, 0.0), (0.3, -0.5, 0.2)):
        want = []
        for eps in schedule:
            total = 0.0
            for wk, q in zip(weights, _WEAK_Q.flat):
                s = eps * eps * q
                total += wk * (c0 + c1 * s + c2 * s * s + s ** 3 * u(s))
            want.append(total / ((2.0 * math.pi) ** 4 * eps ** 4))
        got = weak_limit_vacuum(2, ScalingFamily(g_hat=g_hat, epsilon_schedule=schedule),
                                constants=(c0, c1, c2), m=m)
        assert np.allclose(got.values, want, rtol=1e-12, atol=0.0)
