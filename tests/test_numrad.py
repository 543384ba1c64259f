import numpy as np
import pytest

from symbidisc.linalg import adj
from symbidisc.numrad import numerical_radius


def test_jordan_block_oracle():
    # w([[0, 2], [0, 0]]) = 1: half the norm for a nilpotent 2x2 block
    res = numerical_radius([[0.0, 2.0], [0.0, 0.0]])
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_normal_matrix_gives_spectral_radius():
    D = np.diag([0.5, -0.25 + 0.5j, 0.9j])
    res = numerical_radius(D)
    assert res.value == pytest.approx(0.9, abs=1e-10)


def test_hermitian_matrix():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = B + adj(B)
    res = numerical_radius(H)
    assert res.value == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(H))), abs=1e-9)


def test_scalar():
    res = numerical_radius([[-0.3 + 0.4j]])
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_certificate_vector_attains_value():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    res = numerical_radius(A)
    v = res.certificate_vector
    attained = abs(np.vdot(v, A @ v))
    assert attained == pytest.approx(res.value, abs=1e-9)


def test_rayleigh_lower_bound_never_exceeds_value():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = numerical_radius(A).value
    for _ in range(200):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        assert abs(np.vdot(v, A @ v)) <= w + 1e-9
