import numpy as np
import pytest
import scipy.linalg

from symbidisc.classify import fundamental_op, is_gamma_isometry
from symbidisc.defect import defect_data, pi_nf_matrix
from symbidisc.dilation import (
    compressed_scalar,
    factorization_check,
    gamma_unitary_synth,
    nf_ay_build,
    schaffer_build,
)
from symbidisc.errors import ClassificationFailed, NotADilation, NotCommuting, NotUnitary
from symbidisc.generate import random_commuting_unitaries, random_gamma_contraction, random_unitary
from symbidisc.hardy import shift_op
from symbidisc.linalg import adj, opnorm
from symbidisc.pair import make_pair

N = 32


def test_schaffer_intertwinings_exact():
    pair = make_pair([[1.2]], [[0.5]])
    sp = schaffer_build(pair, N)
    assert opnorm(adj(sp.V) @ sp.embed - sp.embed @ adj(pair.P)) < 1e-13
    assert opnorm(adj(sp.W) @ sp.embed - sp.embed @ adj(pair.S)) < 1e-13


def test_schaffer_pair_is_gamma_isometry():
    rng = np.random.default_rng(0)
    pair = random_gamma_contraction(rng)
    sp = schaffer_build(pair, N)
    ok, report = is_gamma_isometry(sp.as_pair())
    assert ok, report.failed()


def test_schaffer_compression_recovers_pair():
    rng = np.random.default_rng(1)
    pair = random_gamma_contraction(rng)
    sp = schaffer_build(pair, N)
    assert np.allclose(adj(sp.embed) @ sp.V @ sp.embed, pair.P)
    assert np.allclose(adj(sp.embed) @ sp.W @ sp.embed, pair.S)


def test_schaffer_rejects_non_gamma():
    with pytest.raises(ClassificationFailed):
        schaffer_build(make_pair([[2.2]], [[1.0]]), N)


def test_nf_ay_scalar_values():
    m = nf_ay_build(make_pair([[1.2]], [[0.5]]), N)
    assert m.S_model[0, 0] == pytest.approx(1.2, abs=1e-8)
    assert m.P_model[0, 0] == pytest.approx(0.5, abs=1e-8)
    cs = compressed_scalar(m)
    assert cs.X[0, 0] == pytest.approx(0.8, abs=1e-8)
    assert cs.decompressed_wr == pytest.approx(0.8, abs=1e-8)


def test_nf_ay_round_trip_residuals():
    rng = np.random.default_rng(2)
    pair = random_gamma_contraction(rng)
    m = nf_ay_build(pair, N)
    assert m.model_space.dim == pair.dim
    assert max(m.residual_S, m.residual_P) <= m.tolerance_bound


def test_nf_ay_symbol_is_adjoint_of_fundamental_op_of_adjoint_pair():
    rng = np.random.default_rng(8)
    for _ in range(3):
        pair = random_gamma_contraction(rng)
        F, _ = fundamental_op(adj(pair.S), defect_data(adj(pair.P)))
        assert np.array_equal(nf_ay_build(pair, N).symbol_A, adj(F))


def test_compressed_scalar_identity():
    rng = np.random.default_rng(3)
    pair = random_gamma_contraction(rng)
    m = nf_ay_build(pair, N)
    cs = compressed_scalar(m)
    defect = opnorm(m.S_model - (cs.X + m.P_model @ adj(cs.X)))
    assert defect <= m.tolerance_bound


def test_gamma_unitary_synth_guards():
    rng = np.random.default_rng(4)
    U1, U2 = random_commuting_unitaries(rng, 3)
    with pytest.raises(NotUnitary):
        gamma_unitary_synth(0.5 * U1, U2)
    V = scipy.linalg.block_diag(np.eye(1), [[0, 1], [1, 0]])
    W = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotCommuting):
        gamma_unitary_synth(V, W)


def test_factorization_against_nf_itself():
    rng = np.random.default_rng(5)
    pair = random_gamma_contraction(rng)
    dd = defect_data(pair.P)
    Pi = pi_nf_matrix(dd, N)
    Mz = shift_op(dd.rank_dPstar, N)
    Phi, iso_res, block_res = factorization_check(pair, (Mz, Pi), N)
    assert iso_res < 1e-10
    assert block_res < 1e-10


def test_factorization_against_padded_nf():
    # NF dilation plus an unused extra shift summand: still factors
    rng = np.random.default_rng(6)
    pair = random_gamma_contraction(rng)
    dd = defect_data(pair.P)
    Pi = pi_nf_matrix(dd, N)
    Mz = shift_op(dd.rank_dPstar, N)
    extra = shift_op(1, N)
    V = scipy.linalg.block_diag(Mz, extra)
    embed = np.vstack([Pi, np.zeros((extra.shape[0], Pi.shape[1]))])
    Phi, iso_res, block_res = factorization_check(pair, (V, embed), N)
    assert iso_res < 1e-8
    assert block_res < 1e-8
    # isometric into the larger space but not onto it
    assert Phi.shape[0] == V.shape[0]


def test_factorization_rejects_non_dilation():
    rng = np.random.default_rng(7)
    pair = random_gamma_contraction(rng)
    n = pair.dim
    with pytest.raises(NotADilation):
        factorization_check(pair, (np.zeros((n, n)), np.eye(n)), N)


def test_nf_ay_model_of_wrong_dimension_gets_no_intertwiner():
    # P nilpotent of order 40: at N = 32 the embedding reaches only 33 dimensions
    J = np.diag(np.ones(39), -1)
    m = nf_ay_build(make_pair(np.zeros((40, 40)), J), N)
    assert m.model_space.dim == 33
    assert m.intertwiner is None
    assert m.residual_S == m.residual_P == np.inf


def test_nf_ay_round_trip_with_non_nilpotent_p():
    # s_j = b_j + conj(b_j) p_j with |b_j| <= 1 is a Gamma-contraction; rho(P) = 0.5
    p = np.array([0.5, -0.3j, 0.2])
    b = np.array([0.4, 0.7j, -0.9])
    U = random_unitary(np.random.default_rng(9), 3)
    for V in (np.eye(3), U):
        pair = make_pair(V @ np.diag(b + b.conj() * p) @ adj(V), V @ np.diag(p) @ adj(V))
        m = nf_ay_build(pair, N)
        assert m.model_space.dim == 3
        assert max(m.residual_S, m.residual_P) <= m.tolerance_bound
        W = m.intertwiner
        assert opnorm(adj(W) @ W - np.eye(3)) < 1e-12
