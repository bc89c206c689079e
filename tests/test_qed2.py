import math

import numpy as np
import pytest

from causalqed.distributions import METRIC, IDENTITY4, slash
from causalqed.qed2 import (MasslessNormalizationError, SelfEnergy,
                            VacuumPolarization, build_self_energy,
                            build_vacuum_polarization, causal_imaginary_part,
                            check_on_shell)

M = 1.0


@pytest.fixture(scope="module")
def vp():
    return build_vacuum_polarization(M)


@pytest.fixture(scope="module")
def se():
    return build_self_energy(M)


def test_rho_pi_closed_form():
    # one-loop fermion bubble: rho(s) = (2 pi / 3) beta (1 + 2 m^2/s)
    for s in (4.5, 7.0, 20.0, 100.0):
        beta = math.sqrt(1.0 - 4.0 * M * M / s)
        exact = (2.0 * math.pi / 3.0) * beta * (1.0 + 2.0 * M * M / s)
        assert causal_imaginary_part("Pi", M, s) == pytest.approx(exact, rel=1e-12)


def test_rho_sigma_closed_forms():
    mu = 0.1
    for s in (1.3, 2.7, 9.0):
        lam = (s - (M + mu) ** 2) * (s - (M - mu) ** 2)
        k = math.sqrt(lam) / (2.0 * math.sqrt(s))
        phase = math.pi * k / math.sqrt(s)
        ra = causal_imaginary_part("Sigma", M, s, photon_mass=mu, component="a")
        rb = causal_imaginary_part("Sigma", M, s, photon_mass=mu, component="b")
        assert ra == pytest.approx(4.0 * M * phase, rel=1e-12)
        assert rb == pytest.approx(-(s + M * M - mu * mu) / s * phase, rel=1e-12)


def test_rho_vanishes_below_threshold():
    assert causal_imaginary_part("Pi", M, 3.9) == 0.0
    assert causal_imaginary_part("Sigma", M, 1.2, photon_mass=0.1) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        causal_imaginary_part("Pi", -1.0, 5.0)
    with pytest.raises(ValueError):
        causal_imaginary_part("Gamma3", M, 5.0)
    with pytest.raises(ValueError):
        causal_imaginary_part("Sigma", M, 5.0, component="c")


def test_scalar_part_imaginary_jump_on_cut(vp):
    # Im Pi(s + i0) reproduces the causal discontinuity rho(s)
    for s in (5.0, 9.0):
        assert vp.scalar_part(s).imag == pytest.approx(vp.rho(s), rel=1e-9)


def test_scalar_part_real_below_threshold(vp):
    for s in (-4.0, 0.5, 3.0):
        assert vp.scalar_part(s).imag == 0.0


def test_dispersion_schwarz_reflection(vp):
    z = 2.0 + 1.5j
    assert vp.scalar_part(np.conj(z)) == pytest.approx(np.conj(vp.scalar_part(z)))


def _pi_real_on_cut(m, s):
    """Re Pi(s + i0) for s > 4 m^2 from the Feynman-parameter form

    Pi(s) = -4 int_0^1 u [log(1 - u s/m^2 - i0) + u s/m^2] dx,  u = x(1-x),

    integrated in closed form: 1 - u r = r (x - a)(x - 1 + a) with
    a = (1 - beta)/2, and the two root logarithms contribute equally.
    """
    r = s / (m * m)
    a = (1.0 - math.sqrt(1.0 - 4.0 / r)) / 2.0
    P = a * a / 2.0 - a ** 3 / 3.0  # antiderivative of u at x = a
    # J = int_0^1 u log|x - a| dx, by parts against P(x) - P(a)
    J = ((1.0 / 6.0 - P) * math.log(1.0 - a) + P * math.log(a)
         - 5.0 / 36.0 - a / 3.0 + a * a / 3.0)
    return -4.0 * (math.log(r) / 6.0 + 2.0 * J + r / 30.0)


def test_scalar_part_real_on_cut_matches_closed_form(vp):
    for r in (6.0, 20.0):
        s = r * M * M
        assert vp.scalar_part(s).real == pytest.approx(_pi_real_on_cut(M, s), rel=1e-10)


def test_self_energy_on_cut_matches_upper_half_plane(se):
    # a(s + i0) is the boundary value of a(z) from Im z > 0
    for s in (2.0, 4.0):
        assert abs(se.a(s) - se.a(s + 1e-4j)) < 1e-3


def test_on_shell_vacuum_polarization(vp):
    report = check_on_shell(vp, tol=1e-8)
    assert report["all_pass"]
    assert report["conditions"][0]["residual"] <= 1e-10
    assert check_on_shell(build_vacuum_polarization(0.5), tol=1e-8)["all_pass"]


def test_on_shell_self_energy(se):
    report = check_on_shell(se, tol=1e-8)
    assert report["all_pass"]
    assert se.photon_mass == pytest.approx(M / 10.0)


def test_injected_constants_shift_residuals():
    base = build_self_energy(M)
    d0, d1 = 0.15, -0.08
    off = SelfEnergy(M, base.photon_mass,
                     (base.constants[0] + d0, base.constants[1] + d1))
    assert abs(off.shell_combination()) == pytest.approx(abs(d0 + M * d1), abs=1e-12)
    r2 = abs(2 * M * off.a_prime_shell() + off.b(M * M)
             + 2 * M * M * off.b_prime_shell())
    assert r2 == pytest.approx(abs(d1), abs=1e-12)


def test_tensor_transversality_and_decomposition(vp):
    p = np.array([0.4, 0.3, -0.2, 0.1])
    T = vp.tensor(p)
    s = p[0] ** 2 - np.dot(p[1:], p[1:])
    assert np.allclose(T, (np.outer(p, p) - s * METRIC) * vp.scalar_part(s))
    assert np.max(np.abs((METRIC @ p) @ T)) < 1e-14 * np.max(np.abs(T))


def test_sigma_matrix_decomposition(se):
    p = np.array([1.4, 0.2, 0.1, -0.3])
    s = p[0] ** 2 - np.dot(p[1:], p[1:])
    assert np.allclose(se.matrix(p), se.a(s) * IDENTITY4 + se.b(s) * slash(p))


def test_massless_rejections():
    with pytest.raises(MasslessNormalizationError):
        build_vacuum_polarization(0.0)
    with pytest.raises(MasslessNormalizationError):
        build_vacuum_polarization(0.0, normalization=(0.1, 0.2))
    with pytest.raises(MasslessNormalizationError):
        build_self_energy(0.0)


def test_custom_normalization_used_verbatim():
    vp2 = build_vacuum_polarization(M, normalization=(0.3, -0.2))
    assert vp2.constants == (0.3, -0.2)
    assert vp2.scalar_part(0.0) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        build_vacuum_polarization(M, normalization=(0.3,))
