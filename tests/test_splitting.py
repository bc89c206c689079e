import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalqed import cli
from causalqed.distributions import CausalDistribution
from causalqed.induction import LatticeToy
from causalqed.splitting import (_GL_SIZES, SplitInputError, SplitSpec,
                                 _converge, _legendre_levels, _rational_levels,
                                 ambiguity_dimension, dispersion,
                                 order_preservation_check,
                                 polynomial_fit_residual,
                                 reconstruction_residual, split, toy_causal,
                                 toy_retarded_exact)

ES = np.linspace(-5.0, 5.0, 21)


def _not_converged(rule, N):
    return rf"^{rule} not converged at N = {N}: estimate \S+ > bound \S+$"


def test_ambiguity_dimension():
    assert ambiguity_dimension(-3) == 0
    assert ambiguity_dimension(-1) == 0
    assert ambiguity_dimension(0) == 1
    assert ambiguity_dimension(2) == 3


def test_spec_validates_constant_count():
    with pytest.raises(SplitInputError):
        SplitSpec(omega=1, normalization=(0.0,))
    SplitSpec(omega=1, normalization=(0.0, 0.0))
    SplitSpec(omega=-2)


def test_split_requires_causal_support_and_evaluator():
    with pytest.raises(SplitInputError):
        split(CausalDistribution(eval_fn=lambda E: 1.0 / (1.0 + E * E), support_tag="retarded"),
              SplitSpec(omega=-2))
    with pytest.raises(SplitInputError):
        split(CausalDistribution(support_tag="causal"), SplitSpec(omega=-2))


def test_negative_order_split_matches_oracle():
    d = toy_causal(0)
    exact = toy_retarded_exact(0)
    result = split(d, SplitSpec(omega=-1))
    for E in ES:
        assert abs(result.retarded.eval_fn(E) - exact(E)) < 1e-8


def test_nonnegative_order_split_matches_oracle():
    d = toy_causal(3)
    exact = toy_retarded_exact(3)
    result = split(d, SplitSpec(omega=2, normalization=(0.0, 0.0, 0.0)))
    for E in ES:
        assert abs(result.retarded.eval_fn(E) - exact(E)) < 1e-7


def test_lattice_split_matches_oracle_out_to_far_nodes():
    # |E| up to 1e3 lies beyond the table's outermost node (4N/pi = 326 at N = 256)
    toy = LatticeToy()
    d = CausalDistribution(eval_fn=lambda E: toy.commutator_hat(E, 2),
                           omega=-2, support_tag="causal")
    result = split(d, SplitSpec(omega=-2))
    for E in (-1e3, -250.0, -40.0, -6.0, -2.0, 0.0, 2.0, 6.0, 40.0, 250.0, 1e3):
        exact = toy.retarded_hat_exact(E, 2)
        assert abs(result.retarded.eval_fn(E) - exact) <= 1e-10 * abs(exact)


def test_split_fails_loudly_when_the_subtraction_point_is_not_a_zero():
    # d does not vanish to order omega + 1 = 3 at 0.7, so the subtracted
    # density has a pole on the line and its table cannot converge
    result = split(toy_causal(3), SplitSpec(omega=2, normalization=(0.0, 0.0, 0.0),
                                            subtraction_point=0.7))
    with pytest.raises(ArithmeticError, match=_not_converged("rational-basis table", 4096)):
        result.retarded.eval_fn(1.0)


def test_normalization_polynomial_is_added_verbatim():
    d = toy_causal(3)
    base = split(d, SplitSpec(omega=2, normalization=(0.0, 0.0, 0.0)))
    shifted = split(d, SplitSpec(omega=2, normalization=(1.0, -2.0, 0.5)))
    for E in (-3.0, 0.7, 2.0):
        diff = shifted.retarded.eval_fn(E) - base.retarded.eval_fn(E)
        assert diff == pytest.approx(1.0 - 2.0 * E + 0.5 * E * E, abs=1e-12)


def test_reconstruction_is_exact_by_construction():
    d = toy_causal(2)
    result = split(d, SplitSpec(omega=1, normalization=(0.0, 0.0)))
    assert reconstruction_residual(d, result, ES) == 0.0


def test_polynomial_fit_residual():
    vals = [1.0 + 2.0 * E - 0.5 * E * E for E in ES]
    assert polynomial_fit_residual(vals, ES, 2) < 1e-12
    assert polynomial_fit_residual(vals, ES, 1) > 1e-2


def test_order_preservation():
    d = toy_causal(3)
    result = split(d, SplitSpec(omega=2, normalization=(0.0, 0.0, 0.0)))
    e_in, e_ret = order_preservation_check(d, result)
    assert e_in == pytest.approx(2.0, abs=0.1)
    assert e_ret == pytest.approx(e_in, abs=0.2)


def test_toy_power_validation():
    with pytest.raises(ValueError):
        toy_causal(-1)


def _half_line_transform(z, thr, s0):
    """(1/pi) int_thr^inf ds' / ((s' - s0)(s' - z)) by partial fractions.

    Principal log off the cut; on the cut the boundary value from above
    takes log(thr - z - i0) = log|z - thr| - i pi.
    """
    if z.imag == 0.0 and z.real > thr:
        log_z = math.log(z.real - thr) - 1j * math.pi
    else:
        log_z = cmath.log(thr - z)
    return -(log_z - math.log(thr - s0)) / (math.pi * (z - s0))


def test_dispersion_matches_closed_form_on_half_line():
    thr, s0 = 1.0, 0.5
    density = lambda sp: 1.0 / (sp - s0)
    below = (-3.0, 0.2, 0.9)
    planes = (2.0 + 1.0j, 2.0 - 1.0j, -1.0 + 0.5j, 0.5 + 1e-3j)
    cut = (1.0001, 1.5, 4.0, 30.0)
    for z in below + planes + cut:
        exact = _half_line_transform(complex(z), thr, s0)
        assert abs(dispersion(density, thr)(z) - exact) <= 1e-12 * abs(exact)
    assert all(isinstance(dispersion(density, thr)(z), float) for z in below)
    with pytest.raises(ArithmeticError):
        dispersion(density, thr)(thr)


def test_dispersion_keeps_its_digits_next_to_the_threshold():
    # t0^2 = (z - thr) / z, not 1 - thr / z, which would lose the digits of z - thr
    thr, s0 = 1.0, 0.5
    transform = dispersion(lambda sp: 1.0 / (sp - s0), thr)
    for z in (1.0 - 1e-8, 1.0 + 1e-8, 1.0 + 1e-6, 1.0 + 1e-9j, 1.0 - 1e-9j):
        exact = _half_line_transform(complex(z), thr, s0)
        assert abs(transform(z) - exact) <= 1e-12 * abs(exact)


def test_dispersion_fails_loudly():
    # a pole inside the support: no Gauss-Legendre table of it converges
    with pytest.raises(ArithmeticError, match=_not_converged("Gauss-Legendre table", 512)):
        dispersion(lambda sp: 1.0 / (sp - 2.0), 1.0)(1.5)
    for thr in (0.0, -1.0, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError):
            dispersion(lambda sp: 1.0, thr)
    # an array with one element at the threshold, as a scalar there
    transform = dispersion(lambda sp: 1.0 / (sp - 0.5), 1.0)
    for z in (np.array([0.2, 1.0, 1.5]), np.array([[-1.0 + 0j], [1.0 + 0j]])):
        with pytest.raises(ArithmeticError):
            transform(z)


def test_dispersion_array_shape_and_dtype():
    transform = dispersion(lambda sp: 1.0 / (sp - 0.5), 1.0)
    for z in (np.array(0.2), np.float64(0.2), 0.2):
        assert isinstance(transform(z), float)
    below = np.array([[-3.0, 0.0, 0.2], [0.9, 0.5, -1e6]])
    got = transform(below)
    assert got.shape == below.shape and got.dtype == np.float64
    assert transform(below.astype(complex)).dtype == np.float64
    for z in (np.array([0.2, 1.5]), np.array([0.2, 0.2 + 1e-3j]), np.array([[2.0 + 1.0j]])):
        got = transform(z)
        assert got.shape == z.shape and got.dtype == np.complex128


# points below the threshold 1, on the cut, just off it (near the cut, so on
# the Q_k branch) and z = 0
_BELOW = st.floats(-1e6, 1.0, exclude_max=True)
_CUT = st.floats(1.0, 1e6, exclude_min=True)
_OFF = st.builds(complex, st.floats(-1e3, 1e3), st.sampled_from([1e-6, -1e-6, 3e-7]))
_POINTS = st.lists(st.one_of(_BELOW, _CUT, _OFF, st.just(0.0)), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None, database=None)
@given(_POINTS)
def test_dispersion_array_equals_the_scalar_path(points):
    transform = dispersion(lambda sp: 1.0 / (sp - 0.5), 1.0)
    z = np.array(points)
    got = transform(z)
    want = [transform(complex(p)) for p in points]
    real = all(isinstance(p, float) and p < 1.0 for p in points)
    assert got.dtype == (np.float64 if real else np.complex128)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_split_table_samples_the_density_once_per_size():
    toy, shapes = LatticeToy(), []

    def density(E):
        shapes.append(np.shape(E))
        return toy.commutator_hat(E, 2)

    result = split(CausalDistribution(eval_fn=density, omega=-2, support_tag="causal"),
                   SplitSpec(omega=-2))
    result.retarded.eval_fn(0.5)
    assert shapes == [(64,), (128,), (256,), (512,)]


def test_split_parts_and_toys_keep_the_shape():
    E = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    result = split(toy_causal(3), SplitSpec(omega=2, normalization=(0.5, -0.25, 0.125)))
    for f in (toy_causal(3).eval_fn, toy_retarded_exact(3),
              result.retarded.eval_fn, result.advanced.eval_fn):
        got = f(E)
        assert got.shape == E.shape and got.dtype == np.complex128
        assert got[1, 2] == pytest.approx(f(3.0), rel=1e-13)
        for x in (1.5, np.float64(1.5), np.array(1.5)):
            assert isinstance(f(x), complex)


# the three built-in toys of the CLI, with normalization constants where omega >= 0
_TOY_NAMES = st.sampled_from(sorted(cli._TOYS))
_TOY_POINTS = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30)
_TOY_CONSTANTS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None, database=None)
@given(_TOY_NAMES, _TOY_POINTS, _TOY_CONSTANTS)
def test_split_array_equals_the_scalar_path(name, points, constants):
    d, omega = cli._TOYS[name]()
    result = split(d, SplitSpec(omega=omega,
                                normalization=constants[:ambiguity_dimension(omega)]))
    E = np.array(points)
    for part in (result.retarded, result.advanced):
        got = part.eval_fn(E)
        assert got.shape == E.shape and got.dtype == np.complex128
        want = [part.eval_fn(x) for x in points]
        assert all(isinstance(w, complex) for w in want)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_tables_report_size_and_tail_estimate():
    a, N, estimate = _converge("rational-basis table",
                               _rational_levels(lambda E: LatticeToy().commutator_hat(E, 2), 0.0))
    assert (N, len(a)) == (256, 512)
    assert 0.0 < estimate <= 1e-14 * np.abs(a).max()

    # a Gauss-Legendre level draws its N samples in one density call
    calls = []
    density = lambda sp: calls.append(sp.shape) or 1.0 / (sp - 0.5)
    (t, w, g, c), N, estimate = _converge("Gauss-Legendre table", _legendre_levels(density, 1.0))
    assert len(t) == len(c) == N and calls == [(n,) for n in _GL_SIZES if n <= N]
    assert 0.0 < estimate <= 1e-13 * np.max(np.abs(c) / np.sqrt(np.arange(N) + 0.5))


def test_tables_name_the_first_non_finite_sample():
    nan_above_3 = CausalDistribution(
        eval_fn=lambda E: np.where(E > 3.0, math.nan, 1j / (1.0 + E * E)),
        omega=-1, support_tag="causal")
    with pytest.raises(ArithmeticError, match=r"^non-finite rational-basis table sample at 3\."):
        split(nan_above_3, SplitSpec(omega=-1)).retarded.eval_fn(0.5)
    with pytest.raises(ArithmeticError, match=r"^non-finite Gauss-Legendre table sample at 1\."):
        dispersion(lambda sp: np.where(sp < 2.0, math.nan, 1.0 / sp), 1.0)(0.5)
