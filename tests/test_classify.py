import numpy as np
import pytest

from symbidisc import classify
from symbidisc.classify import (
    GAMMA_CONTRACTION,
    GAMMA_UNITARY,
    INCONCLUSIVE,
    NOT_GAMMA,
    find_unitary_intertwiner,
    fundamental_op,
    is_gamma_contraction,
    is_gamma_unitary,
    joint_unitary_equiv,
    recover_pure_symbol,
    von_neumann_margin,
)
from symbidisc.defect import defect_data
from symbidisc.dilation import gamma_unitary_synth
from symbidisc.errors import DimensionMismatch, NotCommuting, NotPureModelForm
from symbidisc.generate import (
    random_commuting_unitaries,
    random_gamma_contraction,
    random_symbol,
    random_unitary,
)
from symbidisc.hardy import gamma_isometry_model
from symbidisc.linalg import adj, opnorm
from symbidisc.numrad import WR_SLACK, NumRadResult
from symbidisc.pair import make_pair


def test_unitary_pair_classifies_unitary():
    U1, U2 = random_commuting_unitaries(np.random.default_rng(0), 3)
    pair = gamma_unitary_synth(U1, U2)
    ok, _ = is_gamma_unitary(pair)
    assert ok
    assert is_gamma_contraction(pair).kind == GAMMA_UNITARY


def test_commutator_gate():
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    P = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotCommuting):
        is_gamma_contraction(make_pair(S, P))


def test_scalar_fundamental_operator():
    # (s, p) = (1.2, 0.5): A = (s - s*p) / (1 - p^2) = 0.8
    pair = make_pair([[1.2]], [[0.5]])
    F, residual = fundamental_op(pair.S, defect_data(pair.P))
    assert residual < 1e-12
    assert F[0, 0] == pytest.approx(0.8, abs=1e-12)
    rep = is_gamma_contraction(pair)
    assert rep.kind == GAMMA_CONTRACTION
    assert rep.wA == pytest.approx(0.8, abs=1e-9)


def test_designed_negatives():
    assert is_gamma_contraction(make_pair(np.diag([1.2, 0.0]), np.zeros((2, 2)))).kind == NOT_GAMMA
    assert is_gamma_contraction(make_pair([[2.2]], [[1.0]])).kind == NOT_GAMMA


@pytest.mark.parametrize(
    "P",
    [[[1 + 5e-11]], [[1 + 5e-10]], [[1 + 5e-9]], np.diag([1 + 5e-9, 0.3]), [[1 + 2e-8]]],
    ids=["5e-11", "5e-10", "5e-9", "5e-9-diag", "2e-8"],
)
def test_barely_non_contractive_p_answers_not_gamma(P):
    # the ||P|| <= 1 check and defect_data share one threshold, so P just
    # past it is answered, not raised on
    P = np.asarray(P, dtype=complex)
    rep = is_gamma_contraction(make_pair(np.zeros_like(P), P))
    assert rep.kind == NOT_GAMMA
    assert ("||P|| <= 1", False, opnorm(P) - 1) in rep.checks


def test_off_grid_numerical_radius_peak_answers_not_gamma():
    # w(S) = 1.000005 peaks between the angles of a uniform 720-angle grid;
    # with P = 0 the fundamental operator is S itself
    S = np.diag([1.0, 1.000005 * np.exp(1j * (np.pi / 2 + np.pi / 720))])
    rep = is_gamma_contraction(make_pair(S, np.zeros((2, 2))))
    assert rep.kind == NOT_GAMMA
    assert rep.wA <= 1.000005 <= rep.wA_upper


@pytest.mark.parametrize(
    "value, upper, kind",
    [
        (0.5, 0.5 + 1e-12, GAMMA_CONTRACTION),
        (1 + WR_SLACK / 2, 1 + 2 * WR_SLACK, INCONCLUSIVE),
        (1 + 2 * WR_SLACK, 1 + 3 * WR_SLACK, NOT_GAMMA),
    ],
    ids=["pass", "straddle", "fail"],
)
def test_numerical_radius_gate(monkeypatch, value, upper, kind):
    bounds = NumRadResult(value, 0.0, np.ones(1, dtype=complex), upper)
    monkeypatch.setattr(classify, "numerical_radius", lambda A, tol: bounds)
    pair = random_gamma_contraction(np.random.default_rng(6))
    rep = is_gamma_contraction(pair)
    assert rep.kind == kind
    assert (rep.wA, rep.wA_upper) == (value, upper)
    assert ("w(A) <= 1", kind == GAMMA_CONTRACTION, max(0.0, upper - 1)) in rep.checks


@pytest.mark.parametrize("outside", [True, False], ids=["outside", "inside"])
def test_knife_edge_pairs(outside):
    # (S, 0) with S normal, one eigenvalue of modulus 1 +/- 1e-6 and the
    # rest on the circle: a Gamma-contraction exactly when w(S) <= 1
    rng = np.random.default_rng(15)
    for n in range(2, 7):
        eigs = np.exp(2j * np.pi * rng.random(n))
        eigs[0] *= 1 + 1e-6 if outside else 1 - 1e-6
        U = random_unitary(rng, n)
        rep = is_gamma_contraction(make_pair((U * eigs) @ adj(U), np.zeros((n, n))))
        assert rep.kind == (NOT_GAMMA if outside else GAMMA_CONTRACTION)


def test_jordan_pair_is_gamma_contraction():
    # S = [[0,2],[0,0]], P = 0: fundamental operator is S itself, w = 1
    rep = is_gamma_contraction(make_pair([[0.0, 2.0], [0.0, 0.0]], np.zeros((2, 2))))
    assert rep.kind == GAMMA_CONTRACTION
    assert rep.wA == pytest.approx(1.0, abs=1e-8)


def test_recover_pure_symbol_round_trip():
    rng = np.random.default_rng(2)
    A = random_symbol(rng, 3)
    pair = gamma_isometry_model(A, 7)
    assert opnorm(recover_pure_symbol(pair, 7) - A) < 1e-13


def test_recover_pure_symbol_rejects_non_model():
    rng = np.random.default_rng(3)
    S = np.kron(np.eye(4), random_symbol(rng, 2))
    with pytest.raises(NotPureModelForm):
        recover_pure_symbol(make_pair(S, np.zeros_like(S)), 3)


def test_von_neumann_margin_violation():
    margin, _ = von_neumann_margin(make_pair([[2.2]], [[1.0]]), trials=20, seed=1)
    assert margin <= -0.19


def test_von_neumann_margin_nonnegative_on_contraction():
    rng = np.random.default_rng(4)
    pair = random_gamma_contraction(rng)
    margin, _ = von_neumann_margin(pair, trials=20, seed=1)
    assert margin >= -1e-6


def test_joint_unitary_equiv_conjugates():
    rng = np.random.default_rng(5)
    pair = random_gamma_contraction(rng)
    U = random_unitary(rng, pair.dim)
    S2, P2 = U @ pair.S @ adj(U), U @ pair.P @ adj(U)
    assert joint_unitary_equiv([pair.S, pair.P], [S2, P2])


def test_joint_unitary_equiv_detects_inequivalence():
    # same spectra, different Jordan structure
    A1 = np.zeros((3, 3))
    A1[0, 1] = 1.0
    A2 = np.zeros((3, 3))
    A2[0, 1] = 1.0
    A2[1, 2] = 1.0
    assert not joint_unitary_equiv([A1], [A2])
    assert not joint_unitary_equiv([np.eye(2)], [np.eye(3)])


def test_find_unitary_intertwiner_recovers_conjugation():
    rng = np.random.default_rng(6)
    A = random_symbol(rng, 4)
    U = random_unitary(rng, 4)
    B = U @ A @ adj(U)
    V, res = find_unitary_intertwiner([A], [B])
    assert res < 1e-10
    assert opnorm(V @ A - B @ V) < 1e-10


def test_find_unitary_intertwiner_fails_when_inequivalent():
    # the intertwiner space is nonzero here but contains no unitary, so the
    # returned candidate must carry a large residual
    V, res = find_unitary_intertwiner([np.diag([1.0, 2.0])], [np.diag([1.0, 3.0])])
    assert res > 1e-2
    V, res = find_unitary_intertwiner([np.eye(2)], [-np.eye(2)])
    assert V is None or res > 1e-2


def test_operator_lists_must_match():
    rng = np.random.default_rng(10)
    A, B = random_symbol(rng, 3), random_symbol(rng, 3)
    U = random_unitary(rng, 3)
    with pytest.raises(DimensionMismatch):
        find_unitary_intertwiner([A, B], [U @ A @ adj(U)])
    with pytest.raises(DimensionMismatch):
        find_unitary_intertwiner([], [])


def _conjugated_model_pair(seed):
    rng = np.random.default_rng(seed)
    pair = gamma_isometry_model(random_symbol(rng, 2), 3)
    U = random_unitary(rng, pair.dim)
    return rng, [pair.S, pair.P], [U @ pair.S @ adj(U), U @ pair.P @ adj(U)]


@pytest.mark.parametrize("eps, expected", [(1e-12, True), (1e-5, False)])
def test_joint_unitary_equiv_perturbed_conjugate(eps, expected):
    # the null threshold is squared on the Gram eigenvalues: a 1e-12
    # perturbation stays inside it, a 1e-5 one leaves the null space empty
    rng, ops1, (S2, P2) = _conjugated_model_pair(7)
    E = rng.standard_normal(S2.shape) + 1j * rng.standard_normal(S2.shape)
    S2 = S2 + eps * E / opnorm(E)
    assert joint_unitary_equiv(ops1, [S2, P2]) is expected
    V, _ = find_unitary_intertwiner(ops1, [S2, P2])
    assert (V is not None) is expected


def test_joint_unitary_equiv_direct_sum_has_wide_null_space():
    rng, (S, P), _ = _conjugated_model_pair(8)
    n = S.shape[0]
    z = np.zeros((n, n))
    S1, P1 = np.block([[S, z], [z, S]]), np.block([[P, z], [z, P]])
    U = random_unitary(rng, 2 * n)
    assert joint_unitary_equiv([S1, P1], [U @ S1 @ adj(U), U @ P1 @ adj(U)])


def test_joint_unitary_equiv_two_by_two():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    W = random_unitary(rng, 2)
    assert joint_unitary_equiv([A], [W @ A @ adj(W)])
    assert joint_unitary_equiv([A], [A.T])
    # an eigenvalue gap of 1e-4 gives Gram eigenvalues near 1e-8, outside the
    # squared null threshold; drawn into the null space they would spoil U
    D = np.diag([1.0, 1.0 + 1e-4])
    assert joint_unitary_equiv([D], [W @ D @ adj(W)])
