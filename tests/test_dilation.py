import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from symbidisc import defect, dilation, hardy
from symbidisc.classify import (
    GAMMA_CONTRACTION,
    fundamental_op,
    is_gamma_contraction,
    is_gamma_isometry,
    von_neumann_margin,
)
from symbidisc.defect import build_model_space, defect_data, pi_nf_matrix, theta_taylor
from symbidisc.dilation import (
    compressed_scalar,
    factorization_check,
    gamma_unitary_synth,
    nf_ay_build,
    schaffer_build,
)
from symbidisc.errors import (
    ClassificationFailed,
    NotADilation,
    NotCommuting,
    NotUnitary,
    ProblemTooLarge,
    TruncationTooSmall,
)
from symbidisc.generate import random_commuting_unitaries, random_gamma_contraction, random_unitary
from symbidisc.hardy import SymbolPoly, build_mult_op, shift_op, symbol_a_plus_astar_z
from symbidisc.linalg import GRAM_BUDGET_BYTES, RANK_TOL, adj, opnorm, range_basis
from symbidisc.numrad import numerical_radius
from symbidisc.pair import make_pair
from test_defect import _LinalgCounter

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


def test_schaffer_dilation_of_a_gamma_unitary_is_the_pair():
    # D_P = 0: the defect row and the Hardy blocks are empty, so V = P and W = S
    pair = gamma_unitary_synth(*random_commuting_unitaries(np.random.default_rng(3), 3))
    sp = schaffer_build(pair, N)
    assert np.array_equal(sp.V, pair.P) and np.array_equal(sp.W, pair.S)
    assert np.array_equal(sp.embed, np.eye(3)) and sp.window.all()


def test_schaffer_rejects_non_gamma():
    with pytest.raises(ClassificationFailed):
        schaffer_build(make_pair([[2.2]], [[1.0]]), N)


def test_schaffer_writes_the_hardy_blocks_in_place():
    pair = random_gamma_contraction(np.random.default_rng(2))
    sp = schaffer_build(pair, N)
    n, F = pair.dim, is_gamma_contraction(pair).fundamental_op
    assert np.array_equal(sp.V[n:, n:], shift_op(len(F), N))
    assert np.array_equal(sp.W[n:, n:], build_mult_op(symbol_a_plus_astar_z(F), N))


def test_schaffer_peak_is_within_the_budgeted_v_w_and_embedding():
    # V is about 1.5 MB here; the budget counts V, W and the n columns of the
    # embedding, and a block-sized temporary would show over the slack
    pair = random_gamma_contraction(np.random.default_rng(3))
    _ = pair.svd_P, pair.norm_S, pair.commutator_norm
    tracemalloc.start()
    try:
        sp = schaffer_build(pair, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim, n = sp.V.shape[0], pair.dim
    assert sp.V.nbytes >= 2**20
    assert 2 * sp.V.nbytes <= peak <= 16 * dim * (2 * dim + n) + 2**17


def test_schaffer_over_budget_truncation_of_a_1x1_pair_is_refused_at_once():
    # dim = 2 + 10^7: V, W and the embedding are budgeted together
    pair = make_pair([[1.2]], [[0.5]])
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge, match="Schaffer dilation of 10000002 x 20000005"):
            schaffer_build(pair, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_factorization_check_certifies_cnu_without_an_eigensolver(monkeypatch):
    # the doubling's tail ||P^(N+1)||_F is far below (1 - CNU_MARGIN)^(N+1)
    rng = np.random.default_rng(4)
    for _ in range(5):
        pair = random_gamma_contraction(rng)
        sp = schaffer_build(pair, N)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
        _, iso_res, wd_res = factorization_check(pair, (sp.V, sp.embed), N)
        monkeypatch.undo()
        assert calls == [] and max(iso_res, wd_res) <= 1e-8


def test_nf_ay_scalar_values():
    m = nf_ay_build(make_pair([[1.2]], [[0.5]]), N)
    assert m.S_model[0, 0] == pytest.approx(1.2, abs=1e-8)
    assert m.P_model[0, 0] == pytest.approx(0.5, abs=1e-8)
    cs = compressed_scalar(m)
    assert cs.X[0, 0] == pytest.approx(0.8, abs=1e-8)
    assert cs.decompressed_wr == pytest.approx(0.8, abs=1e-8)


def test_compressed_scalar_leaves_the_numerical_radius_to_its_first_read(monkeypatch):
    calls = []

    def counted(A, *args):
        calls.append(A)
        return numerical_radius(A, *args)

    m = nf_ay_build(random_gamma_contraction(np.random.default_rng(3)), N)
    monkeypatch.setattr(dilation, "numerical_radius", counted)
    cs = compressed_scalar(m)
    assert calls == []
    assert cs.decompressed_wr == cs.decompressed_wr == numerical_radius(m.symbol_A).value
    assert len(calls) == 1


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
        dd = defect_data(pair.P)
        A = nf_ay_build(pair, N).symbol_A
        assert np.array_equal(A, adj(fundamental_op(adj(pair.S), dd.adjoint())[0]))
        # the record of P* from its own SVD has other bases of the defect spaces:
        # the symbol agrees as an operator on ran D_P*
        direct = defect_data(adj(pair.P))
        F, _ = fundamental_op(adj(pair.S), direct)
        Q, R = dd.Q_dPstar, direct.Q_dP
        assert opnorm(Q @ A @ adj(Q) - R @ adj(F) @ adj(R)) <= 1e-13


def test_compressed_scalar_identity():
    rng = np.random.default_rng(3)
    pair = random_gamma_contraction(rng)
    m = nf_ay_build(pair, N)
    cs = compressed_scalar(m)
    defect = opnorm(m.S_model - (cs.X + m.P_model @ adj(cs.X)))
    assert defect <= m.tolerance_bound


def test_compressed_scalar_is_the_first_term_of_the_model(monkeypatch):
    # X = Pi* (I tensor A) Pi is formed once, by nf_ay_build; the scalar's
    # S = X + P X* gate takes no block product and, within its bound, no SVD
    m = nf_ay_build(random_gamma_contraction(np.random.default_rng(3)), N)
    Pi = m.model_space.basis
    assert np.array_equal(m.X, adj(Pi) @ hardy.blockwise(m.symbol_A, Pi))
    monkeypatch.setattr(dilation, "blockwise", lambda *a: pytest.fail("block product"))
    count = _LinalgCounter(monkeypatch, names=("svd",))
    cs = compressed_scalar(m)
    assert cs.X is m.X and count.calls == {"svd": 0} and count.norms == 0


def test_model_operators_equal_the_dense_compressions():
    # the block products of the model against Pi* T Pi with the dense Toeplitz T
    rng = np.random.default_rng(3)
    pairs = [random_gamma_contraction(rng) for _ in range(10)]
    pairs += [make_pair(np.diag([1.2, 0.5, 0.1]), np.diag([0.5, 0.3, -0.2]))]
    for pair in pairs:
        m = nf_ay_build(pair, N)
        Pi, A = m.model_space.basis, m.symbol_A
        dense = [
            (m.S_model, build_mult_op(symbol_a_plus_astar_z(A), N)),
            (m.P_model, shift_op(len(A), N)),
            (compressed_scalar(m).X, build_mult_op(SymbolPoly([A]), N)),
        ]
        for model_op, T in dense:
            assert np.allclose(model_op, adj(Pi) @ T @ Pi, rtol=0, atol=1e-13)


def test_gamma_unitary_synth_guards():
    rng = np.random.default_rng(4)
    U1, U2 = random_commuting_unitaries(rng, 3)
    with pytest.raises(NotUnitary):
        gamma_unitary_synth(0.5 * U1, U2)
    V = scipy.linalg.block_diag(np.eye(1), [[0, 1], [1, 0]])
    W = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotCommuting):
        gamma_unitary_synth(V, W)


def _nf_dilation(pair, N=N):
    """The minimal dilation (M_z, Pi) of the pair, at truncation N."""
    dd = defect_data(pair.P)
    return shift_op(dd.rank_dPstar, N), pi_nf_matrix(dd, N)[0]


def _padded_nf_dilation(pair):
    """The minimal dilation plus an unused extra shift summand."""
    Mz, Pi = _nf_dilation(pair)
    extra = shift_op(1, N)
    embed = np.vstack([Pi, np.zeros((extra.shape[0], Pi.shape[1]))])
    return scipy.linalg.block_diag(Mz, extra), embed


def test_factorization_against_nf_itself():
    rng = np.random.default_rng(5)
    pair = random_gamma_contraction(rng)
    Phi, iso_res, block_res = factorization_check(pair, _nf_dilation(pair), N)
    assert iso_res < 1e-10
    assert block_res < 1e-10


def test_factorization_against_padded_nf():
    # NF dilation plus an unused extra shift summand: still factors
    rng = np.random.default_rng(6)
    pair = random_gamma_contraction(rng)
    V, embed = _padded_nf_dilation(pair)
    Phi, iso_res, block_res = factorization_check(pair, (V, embed), N)
    assert iso_res < 1e-8
    assert block_res < 1e-8
    # isometric into the larger space but not onto it
    assert Phi.shape[0] == V.shape[0]


def _stage_matrices(pair, other_dilation, depth=8, N=N):
    """G, T and G without its last stage, the stages the factor map pins down."""
    V, embed = other_dilation
    Mz, Pi = _nf_dilation(pair, N)
    G_stages, T_stages = [Pi], [embed]
    for _ in range(min(depth, N - 1)):
        G_stages.append(Mz @ G_stages[-1])
        T_stages.append(V @ T_stages[-1])
    G1 = np.hstack(G_stages[:-1]) if len(G_stages) > 1 else Pi[:, :0]
    return np.hstack(G_stages), np.hstack(T_stages), G1


def _factorization_reference(pair, other_dilation, N=N):
    """The factorization through pinv(G) and one range basis each of G and G1 (reference)."""
    V = other_dilation[0]
    Mz, _ = _nf_dilation(pair, N)
    G, T, G1 = _stage_matrices(pair, other_dilation, N=N)
    Phi = T @ np.linalg.pinv(G, rcond=RANK_TOL)
    Qg = range_basis(G)
    PhiQ = Phi @ Qg
    iso_res = opnorm(adj(PhiQ) @ PhiQ - np.eye(Qg.shape[1]))
    Qg1 = range_basis(G1)
    block_res = opnorm(V @ Phi @ Qg1 - Phi @ Mz @ Qg1)
    return Phi, iso_res, block_res


def _factorization_cases():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pair = random_gamma_contraction(rng)
        sp = schaffer_build(pair, N)
        yield pair, (sp.V, sp.embed)
    for build in (_nf_dilation, _padded_nf_dilation):
        pair = random_gamma_contraction(rng)
        yield pair, build(pair)


def test_factorization_matches_pinv_reference():
    for pair, other in _factorization_cases():
        Phi, iso_res, block_res = factorization_check(pair, other, N)
        ref_Phi, ref_iso, ref_block = _factorization_reference(pair, other)
        assert iso_res == pytest.approx(ref_iso, abs=1e-13)
        assert block_res == pytest.approx(ref_block, abs=1e-13)
        assert opnorm(Phi - ref_Phi) < 1e-12


def _recording_svd(monkeypatch):
    """Record the input and factors of every np.linalg.svd call that returns vectors."""
    calls, svd = [], np.linalg.svd

    def recorded(a, *args, compute_uv=True, **kwargs):
        out = svd(a, *args, compute_uv=compute_uv, **kwargs)
        if compute_uv:
            calls.append((a, out))
        return out

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def test_factorization_basis_spans_the_range_of_g(monkeypatch):
    pair = random_gamma_contraction(np.random.default_rng(13))
    dd = defect_data(pair.P)
    rs, n, d = dd.rank_dPstar, pair.dim, 8
    assert rs < n  # ker D_P* is not 0, so G has a null space
    sp = schaffer_build(pair, N)
    G, _, _ = _stage_matrices(pair, (sp.V, sp.embed))
    calls = _recording_svd(monkeypatch)
    Phi, _, _ = factorization_check(pair, (sp.V, sp.embed), N)
    # B: every coordinate of degrees 0..d-1, and z^d times the kept left factor of Pi_{<=N-d};
    # schaffer_build factored P on the pair, so that SVD is the only one with vectors
    ((Pi, (U, s, _)),) = calls
    assert np.array_equal(Pi, pi_nf_matrix(dd, N - d)[0])
    U = U[:, s > RANK_TOL * s[0]]
    B = scipy.linalg.block_diag(np.eye(d * rs), U)
    ref = range_basis(G)
    assert B.shape[1] == ref.shape[1] == d * rs + np.linalg.matrix_rank(pi_nf_matrix(dd, N - d)[0])
    assert opnorm(B @ adj(B) - ref @ adj(ref)) < 1e-12
    assert opnorm(Phi - Phi @ B @ adj(B)) < 1e-12  # Phi vanishes off ran G


def test_factorization_takes_no_pinv_and_one_svd_with_vectors(monkeypatch):
    pair = random_gamma_contraction(np.random.default_rng(14))
    sp = schaffer_build(pair, N)
    rs, d = defect_data(pair.P).rank_dPstar, min(dilation.FACTOR_DEPTH, N - 1)
    pinvs, pinv = [], np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: pinvs.append(a) or pinv(*a, **k))
    calls = _recording_svd(monkeypatch)
    factorization_check(pair, (sp.V, sp.embed), N)
    # schaffer_build factored P on the pair, so the one SVD with vectors is of
    # Pi_{<=N-d}, which has n columns, not of the 9 n stage matrix
    assert pinvs == []
    assert [a.shape for a, _ in calls] == [((N - d + 1) * rs, pair.dim)]


def test_certify_sequence_factors_p_once_and_takes_the_norm_of_s_once(monkeypatch):
    def certify(pair):
        margin, cand = von_neumann_margin(pair)
        sp = schaffer_build(pair, N)
        return margin, cand, sp, factorization_check(pair, (sp.V, sp.embed), N)

    pair = random_gamma_contraction(np.random.default_rng(18))
    seen, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    got = certify(pair)
    monkeypatch.setattr(np.linalg, "svd", svd)
    # the gates and the defect record factor P itself; a sampled polynomial equal
    # to p(S, P) = P is a new array, and its norm is that candidate's own
    assert sum(a is pair.P for a in seen) == 1
    assert sum(a is pair.S for a in seen) == 1
    margin, cand, sp, (Phi, iso_res, wd_res) = certify(make_pair(pair.S, pair.P))
    assert got[0] == margin and np.array_equal(got[1], cand)
    for name in ("V", "W", "embed", "window"):
        assert np.array_equal(getattr(got[2], name), getattr(sp, name))
    assert np.array_equal(got[3][0], Phi) and got[3][1:] == (iso_res, wd_res)


def test_factorization_fails_on_a_non_isometric_hardy_block():
    # V* E = E P* still holds exactly, but V is no isometry on the stages
    pair = random_gamma_contraction(np.random.default_rng(16))
    sp = schaffer_build(pair, N)
    V = sp.V.copy()
    V[pair.dim :, pair.dim :] *= 0.999
    other = (V, sp.embed)
    _, iso_res, wd_res = factorization_check(pair, other, N)
    _, ref_iso, ref_block = _factorization_reference(pair, other)
    assert iso_res > 1e-2
    assert iso_res == pytest.approx(ref_iso, rel=1e-10)
    assert wd_res == pytest.approx(ref_block, abs=1e-13)


def test_factorization_is_not_well_defined_when_the_hardy_rows_are_perturbed():
    # changing V[n:, :n] keeps V* E = E P* exact, but V E P* no longer vanishes with D_P*
    rng = np.random.default_rng(17)
    for _ in range(3):
        pair = random_gamma_contraction(rng)
        n = pair.dim
        assert defect_data(pair.P).rank_dPstar < n
        sp = schaffer_build(pair, N)
        V, shape = sp.V.copy(), (sp.V.shape[0] - n, n)
        V[n:, :n] += 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        _, _, wd_res = factorization_check(pair, (V, sp.embed), N)
        _, _, ref_block = _factorization_reference(pair, (V, sp.embed))
        assert wd_res > 1e-8
        assert ref_block > 1e-8


def _agreement(pair, other, N=N):
    """Agreement with the reference within 1e-10, relative to ||Phi||, iso_res and
    the unit scale of E - V E P* (the reference's pinv rounds to 4e-11 near |p| = 1)."""
    Phi, iso_res, wd_res = factorization_check(pair, other, N)
    ref_Phi, ref_iso, ref_block = _factorization_reference(pair, other, N)
    assert iso_res == pytest.approx(ref_iso, rel=1e-10, abs=1e-13)
    assert wd_res == pytest.approx(ref_block, abs=1e-10)
    assert opnorm(Phi - ref_Phi) <= 1e-10 * opnorm(ref_Phi)


def test_factorization_near_a_unimodular_eigenvalue_matches_the_reference():
    # s_j = b_j + conj(b_j) p_j with |b_j| <= 1 is a Gamma-contraction; rho(P) = 1 - 1e-6
    p = np.array([1 - 1e-6, 0.5j, -0.3])
    b = np.array([0.4, -0.6j, 0.9])
    U = random_unitary(np.random.default_rng(18), 3)
    pair = make_pair(U @ np.diag(b + b.conj() * p) @ adj(U), U @ np.diag(p) @ adj(U))
    sp = schaffer_build(pair, N)
    _agreement(pair, (sp.V, sp.embed))


def test_factorization_at_n_1_has_no_wandering_stages():
    # D_P* is injective on these pairs, so Pi_{<=1} is too and the stages define Phi
    p = np.array([0.5, -0.3j, 0.2])
    b = np.array([0.4, 0.7j, -0.9])
    U = random_unitary(np.random.default_rng(9), 3)
    diagonal = make_pair(U @ np.diag(b + b.conj() * p) @ adj(U), U @ np.diag(p) @ adj(U))
    for pair in (make_pair([[1.2]], [[0.5]]), diagonal):
        sp = schaffer_build(pair, 1)
        _agreement(pair, (sp.V, sp.embed), N=1)
    with pytest.raises(TruncationTooSmall):  # no shift below N = 1, as in schaffer_build
        factorization_check(diagonal, (sp.V, sp.embed), 0)


def test_factorization_sees_the_null_space_of_the_last_stage():
    # P = J_4 + 0 has rank D_P* = 2, and Pi_{<=N-8} drops a direction for N = 9, 10:
    # the stages do not define Phi there, which the pinv reference's block_res also shows
    J = scipy.linalg.block_diag(np.diag(np.ones(3), -1), 0.0)
    U = random_unitary(np.random.default_rng(20), 5)
    b = 0.3 + 0.4j
    pair = make_pair(U @ (b * np.eye(5) + np.conj(b) * J) @ adj(U), U @ J @ adj(U))
    for trunc, defined in ((9, False), (10, False), (11, True)):
        sp = schaffer_build(pair, trunc)
        Phi, iso_res, wd_res = factorization_check(pair, (sp.V, sp.embed), trunc)
        ref_Phi, ref_iso, ref_block = _factorization_reference(pair, (sp.V, sp.embed), trunc)
        assert iso_res == pytest.approx(ref_iso, abs=1e-13)
        assert opnorm(Phi - ref_Phi) < 1e-12
        assert (wd_res < 1e-8) == (ref_block < 1e-8) == defined
    # at N = 1 there is no stage relation, and the reference reads 0
    pair = random_gamma_contraction(np.random.default_rng(19))
    assert np.linalg.matrix_rank(pi_nf_matrix(defect_data(pair.P), 1)[0]) < pair.dim
    sp = schaffer_build(pair, 1)
    assert factorization_check(pair, (sp.V, sp.embed), 1)[2] > 0.5


def test_factorization_rejects_non_dilation():
    rng = np.random.default_rng(7)
    pair = random_gamma_contraction(rng)
    n = pair.dim
    with pytest.raises(NotADilation):
        factorization_check(pair, (np.zeros((n, n)), np.eye(n)), N)


def test_nf_ay_model_needs_the_tail_that_gives_it_full_dimension():
    # P nilpotent of order 40: at N = 32 the embedding reaches only 33 dimensions, and
    # ||P^33|| = 1 refuses it; at N = 39 P^40 = 0 and the model has the input's dimension
    J = np.diag(np.ones(39), -1)
    pair = make_pair(np.zeros((40, 40)), J)
    with pytest.raises(TruncationTooSmall):
        nf_ay_build(pair, N)
    m = nf_ay_build(pair, 39)
    assert m.model_space.dim == 40 and m.model_space.trunc_error == 0.0
    assert np.array_equal(m.intertwiner, np.eye(40))
    assert max(m.residual_S, m.residual_P) <= 1e-12


def _transient_pair(lam, n):
    """P = 0.999 (lam I + J/2) / ||lam I + J/2|| with J the nilpotent shift, S = (I + P)/2.

    ||P^k|| stays far above rho(P)^k for many steps (transient growth)."""
    T = lam * np.eye(n) + 0.5 * np.diag(np.ones(n - 1), -1)
    P = 0.999 * T / opnorm(T)
    return make_pair((np.eye(n) + P) / 2, P)


@pytest.mark.parametrize("lam, n, short", [(0.5, 10, 26), (0.3, 16, 18)])
def test_nf_ay_model_is_gated_on_the_measured_tail(lam, n, short):
    # rho(P)^(short+1) <= 1e-8, but ||P^(short+1)|| is 5.8e-2 and 0.74: a gate on
    # rho passed residuals of 1.1e-3 and 8.8e-2 under its tail-scaled bound
    pair = _transient_pair(lam, n)
    assert is_gamma_contraction(pair).kind == GAMMA_CONTRACTION
    with pytest.raises(TruncationTooSmall, match=r"\|\|P\^\(N\+1\)\|\| = "):
        nf_ay_build(pair, short)
    m = nf_ay_build(pair, 104)
    assert m.model_space.trunc_error <= 1e-8
    assert max(m.residual_S, m.residual_P) <= 1e-8


def test_model_basis_is_pi_and_isometric_to_within_rounding():
    # Pi* Pi = I - P^(N+1) P*^(N+1), and the gate puts the tail at or under 1e-8
    rng = np.random.default_rng(23)
    cases = [(random_gamma_contraction(rng), N) for _ in range(30)]
    cases += [(_transient_pair(0.5, 10), 104), (_transient_pair(0.3, 16), 104)]
    cases += [(make_pair(np.zeros((40, 40)), np.diag(np.ones(39), -1)), 39)]
    for pair, n_trunc in cases:
        dd = defect_data(pair.P)
        basis = build_model_space(dd, n_trunc).basis
        assert np.array_equal(basis, pi_nf_matrix(dd, n_trunc)[0])
        assert opnorm(adj(basis) @ basis - np.eye(pair.dim)) <= 1e-13


def test_empty_pair_has_an_empty_model():
    m = nf_ay_build(make_pair(np.zeros((0, 0)), np.zeros((0, 0))), N)
    assert m.model_space.dim == 0 and m.S_model.shape == m.P_model.shape == (0, 0)
    assert m.residual_S == m.residual_P == 0.0 and m.intertwiner.shape == (0, 0)
    assert compressed_scalar(m).X.shape == (0, 0)


def test_empty_pair_has_an_empty_factor_map():
    pair = make_pair(np.zeros((0, 0)), np.zeros((0, 0)))
    sp = schaffer_build(pair, N)
    Phi, iso_res, wd_res = factorization_check(pair, (sp.V, sp.embed), N)
    assert Phi.shape == (0, 0) and iso_res == wd_res == 0.0


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


def test_model_basis_is_continuous_in_pi_and_needs_no_rotation(monkeypatch):
    # Pi is isometric up to the truncation tail, so its singular values cluster at 1 and
    # its singular vectors jump under rounding-size changes; Pi itself, the basis, does not
    rng = np.random.default_rng(21)
    exact = defect.pi_nf_matrix
    for _ in range(10):
        pair = random_gamma_contraction(rng)
        dd = defect_data(pair.P)
        E = rng.standard_normal((N + 1) * dd.rank_dPstar * pair.dim).reshape(-1, pair.dim)
        Pi, tail = exact(dd, N)
        E *= 1e-15 * opnorm(Pi) / opnorm(E)
        basis = build_model_space(dd, N).basis
        monkeypatch.setattr(defect, "pi_nf_matrix", lambda d, n: (exact(d, n)[0] + E, tail))
        perturbed = build_model_space(dd, N)
        assert np.array_equal(perturbed.basis, Pi + E)  # the patch reaches the model
        assert opnorm(perturbed.basis - basis) <= 1e-12
        monkeypatch.undo()

        m = nf_ay_build(pair, N)
        assert np.array_equal(m.intertwiner, np.eye(pair.dim))
        assert max(m.residual_S, m.residual_P) <= m.tolerance_bound
        assert m.residual_S == pytest.approx(opnorm(m.S_model - pair.S), rel=1e-12)
        assert m.residual_P == pytest.approx(opnorm(m.P_model - pair.P), rel=1e-12)
        # the unitary that certifies the model, the polar factor of Pi* Pi, is I
        W, _, Vh = np.linalg.svd(adj(m.model_space.basis) @ m.model_space.basis)
        assert opnorm(W @ Vh - np.eye(pair.dim)) < 1e-12


def test_model_and_compressed_scalar_build_no_ambient_operator(monkeypatch):
    # no SVD with vectors: the pair's SVD of P is taken before counting
    pair = random_gamma_contraction(np.random.default_rng(22))
    _ = pair.svd_P
    built = []
    for module in (hardy, dilation):
        monkeypatch.setattr(module, "build_mult_op", lambda *a: built.append("build_mult_op"))
    monkeypatch.setattr(np, "kron", lambda *a: built.append("kron"))
    monkeypatch.setattr(hardy.SymbolPoly, "__init__", lambda *a: built.append("SymbolPoly"))
    count = _LinalgCounter(monkeypatch)
    compressed_scalar(nf_ay_build(pair, N))
    assert built == [] and count.calls["svd"] == 0


@pytest.mark.parametrize(
    "build",
    [schaffer_build, nf_ay_build, lambda pair, N: theta_taylor(defect_data(pair.P), N)],
    ids=["schaffer_build", "nf_ay_build", "theta_taylor"],
)
def test_over_budget_truncation_is_refused_before_anything_is_allocated(build):
    # at N = 10^7 the dilation space and the embedding of a 2 x 2 pair are over budget
    pair = make_pair(1.2 * np.eye(2), 0.5 * np.eye(2))
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge, match="exceeds 268435456 bytes"):
            build(pair, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_model_path_is_refused_when_its_peak_is_over_budget_though_pi_is_not():
    # a 1 x 1 pair has a Pi of N + 1 entries, 96 MB at N = 6 * 10^6 and so under the
    # budget, but the model path holds three arrays of Pi's size at once
    N_big = 6 * 10**6
    assert 16 * (N_big + 1) < GRAM_BUDGET_BYTES < 3 * 16 * (N_big + 1)
    pair = make_pair([[1.2]], [[0.5]])
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge, match="model space"):
            nf_ay_build(pair, N_big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "pair, N_big",
    [
        (make_pair([[1.2]], [[0.5]]), 2**16),
        (make_pair(np.diag([1.2, 0.5, 0.1]), np.diag([0.5, 0.3, -0.2])), 8000),
        (random_gamma_contraction(np.random.default_rng(20)), 2500),
    ],
    ids=["1x1", "diagonal", "generated"],
)
def test_model_path_peak_is_within_the_budgeted_three_arrays_of_pi(pair, N_big):
    # Pi is about 1 MB here, so a fourth array of its size would show over the slack;
    # rank D_P* is 1, 3 and 3.  The path holds Pi, a block product of Pi and the
    # conjugate of one of them, 3.004-3.008 Pi
    _ = pair.svd_P, pair.norm_S
    tracemalloc.start()
    try:
        model = nf_ay_build(pair, N_big)
        compressed_scalar(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pi_bytes = model.model_space.basis.nbytes
    assert pi_bytes >= 2**19
    assert peak <= 3 * pi_bytes + 2**18
