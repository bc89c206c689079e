import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalqed.distributions import GAMMA, METRIC, IDENTITY4, slash
from causalqed.qed2 import (MasslessNormalizationError, SelfEnergy,
                            VacuumPolarization, build_self_energy,
                            build_vacuum_polarization, causal_imaginary_part,
                            check_on_shell)
from causalqed.splitting import _GL_SIZES

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


def _reference_imaginary_part(which, m, s, photon_mass=0.0, component="a"):
    """The discontinuity from explicit 4x4 gamma-matrix traces, node by node.

    Same 6-point Gauss-Legendre angular rule as the library, but every
    angular node builds the slashed leg matrices and takes the traces
    directly, with no precontracted form.  Only for s above threshold.
    """
    cos_nodes, weights = np.polynomial.legendre.leggauss(6)
    p = np.array([math.sqrt(s), 0.0, 0.0, 0.0])
    if which == "Pi":
        k = math.sqrt(s / 4.0 - m * m)
        energy = math.sqrt(s) / 2.0
        p_low = METRIC @ p
        proj = METRIC - np.outer(p_low, p_low) / s
    else:
        lam = (s - (m + photon_mass) ** 2) * (s - (m - photon_mass) ** 2)
        k = math.sqrt(lam) / (2.0 * math.sqrt(s))
        energy = (s + m * m - photon_mass * photon_mass) / (2.0 * math.sqrt(s))
    values = []
    for c in cos_nodes:
        q = np.array([energy, k * math.sqrt(max(0.0, 1.0 - c * c)), 0.0, k * c])
        if which == "Pi":
            m1 = slash(q) + m * IDENTITY4
            m2 = slash(p - q) - m * IDENTITY4
            trace = sum(proj[mu, nu] * np.trace(GAMMA[mu] @ m1 @ GAMMA[nu] @ m2)
                        for mu in range(4) for nu in range(4))
            values.append(-trace.real / (3.0 * s))
        else:
            x = slash(q) + m * IDENTITY4
            n = sum(METRIC[mu, mu] * GAMMA[mu] @ x @ GAMMA[mu] for mu in range(4))
            if component == "a":
                values.append(np.trace(n).real / 4.0)
            else:
                values.append(np.trace(slash(p) @ n).real / (4.0 * s))
    return (k / (4.0 * math.sqrt(s))) * 2.0 * math.pi * float(np.dot(weights, values))


def test_rho_matches_explicit_trace_reference():
    rng = np.random.default_rng(20261017)
    for _ in range(40):
        m = rng.uniform(0.3, 3.0)
        for mu in (0.0, 0.05 * m, 0.3 * m):
            for which, component, thr in (("Pi", "a", 4.0 * m * m),
                                          ("Sigma", "a", (m + mu) ** 2),
                                          ("Sigma", "b", (m + mu) ** 2)):
                # s from thr (1 + 1e-6) up to about 1e4 thr, log-spaced offsets
                s = thr * (1.0 + 10.0 ** rng.uniform(-6.0, 4.0))
                got = causal_imaginary_part(which, m, s, photon_mass=mu, component=component)
                want = _reference_imaginary_part(which, m, s, mu, component)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
                # the array path, with a point below threshold beside it
                got = causal_imaginary_part(which, m, np.array([0.5 * thr, s]),
                                            photon_mass=mu, component=component)
                assert got[0] == 0.0
                assert got[1] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_rho_vanishes_below_threshold():
    assert causal_imaginary_part("Pi", M, 3.9) == 0.0
    assert causal_imaginary_part("Sigma", M, 1.2, photon_mass=0.1) == 0.0


_KINDS = (("Pi", "a"), ("Sigma", "a"), ("Sigma", "b"))


def _threshold(which, m, mu):
    return 4.0 * m * m if which == "Pi" else (m + mu) ** 2


# s / thr below, exactly at and above the threshold
_S_OVER_THR = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0),
                        st.floats(1.0, 1e4, exclude_min=True))


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(_KINDS), st.floats(0.1, 5.0),
       st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
       st.lists(_S_OVER_THR, min_size=1, max_size=12))
def test_rho_array_equals_the_scalar_path(kind, m, mu_over_m, s_over_thr):
    which, component = kind
    mu = mu_over_m * m
    s = _threshold(which, m, mu) * np.array(s_over_thr)
    got = causal_imaginary_part(which, m, s, photon_mass=mu, component=component)
    assert got.shape == s.shape and got.dtype == np.float64
    for g, x in zip(got, s.tolist()):
        want = causal_imaginary_part(which, m, x, photon_mass=mu, component=component)
        assert isinstance(want, float)
        assert abs(g - want) <= 1e-15 * abs(want)


def test_rho_keeps_nan():
    # a NaN s is neither below nor above threshold: it gives NaN, not 0
    for which, component in _KINDS:
        rho = lambda s: causal_imaginary_part(which, M, s, photon_mass=0.1, component=component)
        assert math.isnan(rho(math.nan))
        got = rho(np.array([[0.5, math.nan], [9.0, math.nan]]))
        assert got[0, 0] == 0.0 and got[1, 0] == pytest.approx(rho(9.0), rel=1e-15, abs=0.0)
        assert np.isnan(got[:, 1]).all()
    vp = build_vacuum_polarization(M)
    assert math.isnan(vp.rho(math.nan))
    assert np.isnan(vp.rho(np.array([math.nan]))).all()


def test_input_validation():
    with pytest.raises(ValueError):
        causal_imaginary_part("Pi", -1.0, 5.0)
    with pytest.raises(ValueError):
        causal_imaginary_part("Gamma3", M, 5.0)
    with pytest.raises(ValueError):
        causal_imaginary_part("Sigma", M, 5.0, component="c")
    with pytest.raises(ValueError):
        causal_imaginary_part("Sigma", M, 5.0, photon_mass=-0.5)


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
    for sigma, s in ((se, 2.0), (se, 4.0), (build_self_energy(0.5), 4.0)):
        assert abs(sigma.a(s) - sigma.a(s + 1e-4j)) < 1e-3


def test_scalar_part_just_above_the_cut_matches_closed_form(vp):
    # Pi(30 + 1e-6 i) is within 3e-8 relative of its boundary value on the cut
    z = 30.0 + 1e-6j
    exact = complex(_pi_real_on_cut(M, z.real), vp.rho(z.real))
    assert abs(vp.scalar_part(z) - exact) <= 1e-7 * abs(exact)


def test_on_shell_vacuum_polarization(vp):
    report = check_on_shell(vp, tol=1e-8)
    assert report["all_pass"]
    assert report["conditions"][0]["residual"] <= 1e-10
    assert check_on_shell(build_vacuum_polarization(0.5), tol=1e-8)["all_pass"]


def test_on_shell_self_energy(se):
    report = check_on_shell(se, tol=1e-8)
    assert report["all_pass"]
    assert se.photon_mass == pytest.approx(M / 10.0)
    # the subtraction factor alone zeroes the dispersion term at the anchor
    assert (se.a(M * M), se.b(M * M)) == se.constants


def _count_density_calls(monkeypatch):
    """Each density call's Green function, Sigma component and number of
    points s, in call order."""
    import causalqed.qed2 as qed2

    calls = []
    density = qed2.causal_imaginary_part

    def counted(which, m, s, **kwargs):
        calls.append((which, kwargs.get("component"), np.size(s)))
        return density(which, m, s, **kwargs)

    monkeypatch.setattr(qed2, "causal_imaginary_part", counted)
    return calls


def _one_call_per_level(calls, which, component=None):
    """The call sizes of one density are the Gauss-Legendre sizes up to the
    one its table stopped at: one call per level, on all of its nodes."""
    sizes = [n for w, c, n in calls if (w, c) == (which, component)]
    return len(sizes) > 0 and sizes == _GL_SIZES[:len(sizes)]


def test_each_green_function_tabulates_its_density_once(monkeypatch):
    calls = _count_density_calls(monkeypatch)
    se = build_self_energy(M)
    assert _one_call_per_level(calls, "Sigma", "a") and _one_call_per_level(calls, "Sigma", "b")
    assert {c for _, c, _ in calls} == {"a", "b"}
    calls.clear()
    for s in np.linspace(-3.0, 12.0, 10):
        se.a(s)
        se.b(s)
    se.a_prime_shell()
    se.b_prime_shell()
    report = check_on_shell(se)
    assert len(calls) == 0
    fresh = SelfEnergy(se.m, se.photon_mass, se.constants)
    assert check_on_shell(fresh) == report
    assert _one_call_per_level(calls, "Sigma", "a") and _one_call_per_level(calls, "Sigma", "b")
    calls.clear()

    vp_fresh = VacuumPolarization(M, (0.0, 0.0))
    vp_fresh.scalar_part(5.0)
    assert _one_call_per_level(calls, "Pi") and {w for w, _, _ in calls} == {"Pi"}
    calls.clear()
    for s in (-3.0, 0.0, 2.0, 9.0, 2.0 + 1.5j):
        vp_fresh.scalar_part(s)
    check_on_shell(vp_fresh)
    assert len(calls) == 0


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


def test_builders_reject_non_finite_masses():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            build_vacuum_polarization(bad)
        with pytest.raises(ValueError):
            build_self_energy(bad)
        with pytest.raises(ValueError):
            build_self_energy(M, photon_mass=bad, normalization=(0.0, 0.0))


def test_self_energy_without_photon_mass_is_rejected_on_shell():
    # the shell-derivative integrals diverge logarithmically at s' = m^2
    with pytest.raises(ValueError):
        build_self_energy(M, photon_mass=0.0)
    custom = build_self_energy(M, photon_mass=0.0, normalization=(0.0, 0.0))
    assert custom.constants == (0.0, 0.0)
    with pytest.raises(ArithmeticError):
        custom.a_prime_shell()
    with pytest.raises(ArithmeticError):
        custom.b_prime_shell()
    with pytest.raises(ArithmeticError):
        check_on_shell(custom)


def test_custom_normalization_used_verbatim():
    vp2 = build_vacuum_polarization(M, normalization=(0.3, -0.2))
    assert vp2.constants == (0.3, -0.2)
    assert vp2.scalar_part(0.0) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        build_vacuum_polarization(M, normalization=(0.3,))
