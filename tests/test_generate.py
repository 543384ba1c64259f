import numpy as np

from symbidisc.defect import spectral_radius
from symbidisc.generate import (
    coinvariant_closure,
    random_commuting_unitaries,
    random_gamma_contraction,
    random_inner_poly,
    random_strict_contraction,
    random_symbol,
    random_unitary,
)
from symbidisc.linalg import adj, opnorm
from symbidisc.numrad import numerical_radius


def test_random_unitary():
    U = random_unitary(np.random.default_rng(0), 4)
    assert np.allclose(adj(U) @ U, np.eye(4))


def test_random_commuting_unitaries():
    U1, U2 = random_commuting_unitaries(np.random.default_rng(1), 3)
    assert np.allclose(U1 @ U2, U2 @ U1)
    assert np.allclose(adj(U1) @ U1, np.eye(3))


def test_random_symbol_radius():
    rng = np.random.default_rng(2)
    for _ in range(5):
        A = random_symbol(rng, 3)
        w = numerical_radius(A).value
        assert 0 < w <= 1 + 1e-12


def test_random_strict_contraction_caps():
    rng = np.random.default_rng(3)
    P = random_strict_contraction(rng, 3, 0.9, rho_max=0.5)
    assert opnorm(P) <= 0.9 + 1e-12
    assert spectral_radius(P) <= 0.5


def test_coinvariant_closure_is_invariant():
    rng = np.random.default_rng(4)
    S = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    P = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    seed = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    Q = coinvariant_closure(S, P, seed)
    proj = Q @ adj(Q)
    for T in (adj(S), adj(P)):
        assert opnorm(T @ Q - proj @ (T @ Q)) < 1e-10


def test_random_gamma_contraction_is_machine_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pair = random_gamma_contraction(rng)
        assert pair.commutator_norm < 1e-12
        assert opnorm(pair.P) <= 1 + 1e-12
        # nilpotent up to closure leakage: always c.n.u.
        assert opnorm(np.linalg.matrix_power(pair.P, pair.dim)) < 1e-10
        assert spectral_radius(pair.P) < 1e-2


def test_random_inner_poly_is_inner_on_circle():
    rng = np.random.default_rng(6)
    theta = random_inner_poly(rng, 3, 3)
    for t in np.linspace(0, 2 * np.pi, 17, endpoint=False):
        Th = theta.eval(np.exp(1j * t))
        assert np.allclose(adj(Th) @ Th, np.eye(3))


def test_coinvariant_closure_takes_a_one_dimensional_seed():
    # P* sends e_k to e_(k-1) and S is diagonal: the closure of e_3 is span(e_1, e_2, e_3)
    rng = np.random.default_rng(6)
    S, P = np.diag(np.arange(1.0, 6.0)), np.diag(np.ones(4), -1)
    generic = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for seed, dim in ((generic, 5), (np.eye(5)[2], 3)):
        Q = coinvariant_closure(S, P, seed)
        assert Q.shape == (5, dim)
        assert np.array_equal(Q, coinvariant_closure(S, P, seed[:, None]))
