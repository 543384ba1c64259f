import numpy as np
import pytest
import scipy.linalg

from symbidisc.errors import IndefiniteInput, NonFiniteInput, NotHermitian, SymbidiscError
from symbidisc.linalg import (
    _fix_phases,
    adj,
    as_matrix,
    opnorm,
    psd_sqrt,
    range_basis,
    sandwich_solve,
    screened_opnorm,
)


def rand_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_as_matrix_rejects_non_finite_with_a_typed_value_error():
    for bad in ([[np.nan]], [[1.0, np.inf]]):
        with pytest.raises(NonFiniteInput) as exc:
            as_matrix(bad)
        assert isinstance(exc.value, SymbidiscError)
        assert isinstance(exc.value, ValueError)


def test_psd_sqrt_diagonal():
    R = psd_sqrt(np.diag([4.0, 1.0, 0.0]))
    assert np.allclose(R, np.diag([2.0, 1.0, 0.0]))


def test_psd_sqrt_against_scipy():
    rng = np.random.default_rng(7)
    B = rand_complex(rng, 5, 5)
    M = B @ adj(B)
    R = psd_sqrt(M)
    assert np.allclose(R @ R, M)
    assert np.allclose(R, adj(R))
    assert np.allclose(R, scipy.linalg.sqrtm(M))


def test_psd_sqrt_flushes_noise_eigenvalues():
    # values within RANK_TOL of zero must become exact zeros
    M = np.diag([1.0, 1e-14, -1e-14])
    R = psd_sqrt(M)
    assert R[1, 1] == 0.0 and R[2, 2] == 0.0


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(NotHermitian):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(IndefiniteInput):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_stack_matches_matrix_by_matrix():
    rng = np.random.default_rng(12)
    Bs = [rand_complex(rng, 4, 4) for _ in range(5)]
    # 5e-10 is kept against its own norm 1 but would be flushed against 100
    edge = [np.diag([2.0, 1e-14, -1e-14, 0.0]), np.diag([1.0, 5e-10, 0.0, 0.0]), 100 * np.eye(4)]
    stack = np.stack([B @ adj(B) for B in Bs] + edge)
    roots = psd_sqrt(stack)
    for M, R in zip(stack, roots):
        assert np.allclose(R, psd_sqrt(M), rtol=0, atol=1e-14)
    assert np.allclose(opnorm(stack), [opnorm(M) for M in stack], rtol=0, atol=1e-14)
    assert np.array_equal(adj(stack)[2], adj(stack[2]))


def test_screened_opnorm_is_frobenius_within_the_bound_and_spectral_above():
    # two equal singular values: ||M||_F = sqrt(2) ||M||_2
    M = np.diag([3.0, 3.0, 0.0])
    fro, spec = np.linalg.norm(M), opnorm(M)
    assert screened_opnorm(M, fro) == fro and screened_opnorm(M, 2 * fro) == fro
    assert screened_opnorm(M, 0.5 * (spec + fro)) == spec
    assert screened_opnorm(M, 0.5 * spec) == spec
    stack = np.stack([M, 1e-3 * M, np.zeros((3, 3))])
    assert np.array_equal(screened_opnorm(stack, 1.0), [spec, 1e-3 * fro, 0.0])
    assert screened_opnorm(np.zeros((0, 0)), 0.0) == 0.0


@pytest.mark.parametrize("delta, hermitian", [(0.45e-9, True), (0.55e-9, False)])
def test_psd_sqrt_decides_on_the_spectral_norm_of_the_skew_part(delta, hermitian):
    # M - M* = 2 delta (E_01 - E_10 + E_23 - E_32): spectral norm 2 delta, Frobenius
    # norm 4 delta, against the bound 10 RANK_TOL max(1, ||M||) = 1e-9
    M = np.eye(4)
    M[0, 1] = M[2, 3] = delta
    M[1, 0] = M[3, 2] = -delta
    assert np.linalg.norm(M - adj(M)) > 1e-9
    if hermitian:
        assert np.allclose(psd_sqrt(M), np.eye(4), rtol=0, atol=1e-9)
    else:
        with pytest.raises(NotHermitian):
            psd_sqrt(M)


def test_psd_sqrt_stack_rejects_one_bad_matrix():
    good = np.eye(3)
    with pytest.raises(IndefiniteInput):
        psd_sqrt(np.stack([good, np.diag([1.0, -0.5, 0.0]), good]))
    with pytest.raises(NotHermitian):
        psd_sqrt(np.stack([good, np.triu(np.ones((3, 3)))]))


def test_range_basis_rank_and_span():
    rng = np.random.default_rng(3)
    cols = rand_complex(rng, 6, 2)
    M = np.hstack([cols, cols @ rand_complex(rng, 2, 3)])  # rank 2
    Q = range_basis(M)
    assert Q.shape == (6, 2)
    assert np.allclose(adj(Q) @ Q, np.eye(2))
    # M's columns lie in span(Q)
    assert np.allclose(Q @ (adj(Q) @ M), M)


def test_range_basis_zero_matrix():
    Q = range_basis(np.zeros((4, 3)))
    assert Q.shape == (4, 0)


def test_range_basis_phase_convention_is_deterministic():
    rng = np.random.default_rng(11)
    M = rand_complex(rng, 5, 5)
    Q1 = range_basis(M)
    Q2 = range_basis(M * np.exp(0.7j))  # same column space, rotated
    assert np.allclose(Q1, Q2)
    for j in range(Q1.shape[1]):
        k = np.argmax(np.abs(Q1[:, j]))
        assert Q1[k, j].imag == pytest.approx(0.0, abs=1e-14)
        assert Q1[k, j].real > 0


def test_sandwich_solve_invertible_oracle():
    rng = np.random.default_rng(5)
    L = rand_complex(rng, 4, 4) + 4 * np.eye(4)
    R = rand_complex(rng, 4, 4) + 4 * np.eye(4)
    X_true = rand_complex(rng, 4, 4)
    X, res = sandwich_solve(L, R, L @ X_true @ R)
    assert res < 1e-10
    assert np.allclose(X, X_true)


def test_sandwich_solve_inconsistent_reports_residual():
    L = np.diag([1.0, 0.0])
    C = np.array([[0.0, 0.0], [0.0, 1.0]])  # outside ran(L) x ran(L)
    X, res = sandwich_solve(L, L, C)
    assert res == pytest.approx(1.0, abs=1e-12)


def test_opnorm_empty():
    assert opnorm(np.zeros((0, 0))) == 0.0


def test_fix_phases_is_bit_identical_to_the_scalar_loop():
    # the unit factor conj(a) / hypot(a) matches conj(x) / abs(x) taken one
    # scalar at a time, bit for bit; np.abs on the array does not
    rng = np.random.default_rng(17)
    m = 10**5
    a = 10.0 ** rng.uniform(-5, 5, m) * np.exp(2j * np.pi * rng.random(m))
    Q = np.stack([a, 0.5 * a * np.exp(2j * np.pi * rng.random(m))])
    reference = Q * np.array([np.conj(x) / abs(x) for x in a], dtype=complex)
    assert np.array_equal(_fix_phases(Q), reference)
