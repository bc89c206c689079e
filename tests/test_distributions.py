import numpy as np
import pytest

from causalqed.distributions import GAMMA, IDENTITY4, METRIC, scaling_degree_estimate, slash


def minkowski(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p[0] * q[0] - np.dot(p[1:], q[1:])


def test_gamma_clifford_algebra():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            assert np.allclose(anti, 2.0 * METRIC[mu, nu] * IDENTITY4)


def test_slash_squares_to_p2():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.normal(size=4)
        assert np.allclose(slash(p) @ slash(p), minkowski(p, p) * IDENTITY4)


def test_minkowski_signature():
    assert minkowski([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert minkowski([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0


def test_scaling_degree_estimate_on_powers():
    for power in (-2, 1, 3):
        est = scaling_degree_estimate(lambda E, q=power: (E * E) ** q)
        assert est == pytest.approx(2 * power, abs=1e-6)


def test_scaling_degree_estimate_rejects_zero_rays():
    with pytest.raises(ArithmeticError):
        scaling_degree_estimate(lambda E: 0.0 * E)
