import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from symbidisc import classify, linalg
from symbidisc.classify import (
    GAMMA_CONTRACTION,
    GAMMA_ISOMETRY,
    GAMMA_UNITARY,
    INCONCLUSIVE,
    NOT_GAMMA,
    find_unitary_intertwiner,
    fundamental_op,
    is_gamma_contraction,
    is_gamma_isometry,
    joint_unitary_equiv,
    recover_pure_symbol,
    von_neumann_margin,
)
from symbidisc.defect import defect_data
from symbidisc.dilation import gamma_unitary_synth
from symbidisc.errors import (
    DimensionMismatch,
    NotCommuting,
    NotPureModelForm,
    ProblemTooLarge,
    SymbidiscError,
)
from symbidisc.generate import (
    random_commuting_unitaries,
    random_gamma_contraction,
    random_symbol,
    random_unitary,
)
from symbidisc.hardy import gamma_isometry_model
from symbidisc.linalg import RESIDUAL_TOL, adj, opnorm, psd_sqrt, range_basis, sandwich_solve
from symbidisc.numrad import WR_SLACK, NumRadResult, grid_bounds, numerical_radius
from symbidisc.pair import make_pair
from test_defect import _LinalgCounter


def test_unitary_pair_classifies_unitary():
    U1, U2 = random_commuting_unitaries(np.random.default_rng(0), 3)
    pair = gamma_unitary_synth(U1, U2)
    assert is_gamma_contraction(pair).kind == GAMMA_UNITARY


def test_commutator_gate():
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    P = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotCommuting):
        is_gamma_contraction(make_pair(S, P))


def test_make_pair_takes_no_svd(monkeypatch):
    pair = random_gamma_contraction(np.random.default_rng(15))
    count = _LinalgCounter(monkeypatch, names=("svd",))
    make_pair(pair.S, pair.P)
    make_pair(pair.S, pair.P, window=np.arange(pair.dim) < 2)
    assert count.calls == {"svd": 0} and count.norms == 0


@pytest.mark.parametrize("delta, passes", [(0.9e-8, True), (1.1e-8, False)])
def test_commutator_gate_decides_on_the_spectral_norm(delta, passes):
    # SP - PS is delta [[0, -1], [0, 0]] twice: spectral norm delta, Frobenius
    # norm delta sqrt(2) > RESIDUAL_TOL, and the gate's bound is RESIDUAL_TOL
    # as ||S|| ||P|| = 0.45
    P = np.diag([0.5, -0.5, 0.5, -0.5])
    X = np.zeros((4, 4))
    X[0, 1] = X[2, 3] = delta
    pair = make_pair(0.9 * np.eye(4) + X, P)
    assert pair.commutator_fro > RESIDUAL_TOL
    assert pair.commutator_norm == opnorm(pair.S @ pair.P - pair.P @ pair.S)
    assert pair.commutator_norm == pytest.approx(delta, rel=1e-12)
    if passes:
        classify._commutator_gate(pair)
    else:
        with pytest.raises(NotCommuting):
            classify._commutator_gate(pair)


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
    # the bounds are injected at the one source the decision reads, asked at 1 + WR_SLACK
    bounds = NumRadResult(value, 0.0, upper, 1, "level set")
    levels = []
    monkeypatch.setattr(classify, "decide_wr", lambda A, level: levels.append(level) or bounds)
    pair = random_gamma_contraction(np.random.default_rng(6))
    rep = is_gamma_contraction(pair)
    assert levels == [1 + WR_SLACK]
    assert rep.kind == kind
    assert (rep.wA, rep.wA_upper, rep.wA_decided_by) == (value, upper, "level set")
    assert ("w(A) <= 1", kind == GAMMA_CONTRACTION, max(0.0, upper - 1)) in rep.checks


def test_grid_decides_a_generated_pair_without_the_level_set(monkeypatch):
    pair = random_gamma_contraction(np.random.default_rng(6))
    count = _LinalgCounter(monkeypatch, ("eigh", "eigvals"))
    rep = is_gamma_contraction(pair)
    assert count.calls == {"eigh": 0, "eigvals": 0}
    assert rep.kind == GAMMA_CONTRACTION and rep.fundamental_op.shape == (2, 2)
    grid, _, _ = grid_bounds(rep.fundamental_op)
    assert (rep.wA, rep.wA_upper) == (grid.value, grid.upper)
    assert rep.wA <= numerical_radius(rep.fundamental_op).value <= rep.wA_upper <= 1 + WR_SLACK


def test_classification_takes_no_norm_of_s_minus_s_star_p_unless_p_is_isometric(monkeypatch):
    # ||S - S*P|| enters only the unitary and isometric verdicts, both of
    # which need P isometric; the isometry check still records it
    pair = random_gamma_contraction(np.random.default_rng(6))
    _ = pair.svd_P, pair.norm_S
    norms = []
    monkeypatch.setattr(classify, "opnorm", lambda M: norms.append(M.shape) or opnorm(M))
    assert is_gamma_contraction(pair).kind == GAMMA_CONTRACTION
    assert norms == []
    ok, rep = is_gamma_isometry(pair)
    residual = opnorm(pair.S - adj(pair.S) @ pair.P)
    assert not ok and ("S = S*P", residual <= RESIDUAL_TOL, residual) in rep.checks
    assert norms == [pair.S.shape]
    unitary = gamma_unitary_synth(*random_commuting_unitaries(np.random.default_rng(7), 3))
    _ = unitary.svd_P, unitary.norm_S
    assert is_gamma_contraction(unitary).kind == GAMMA_UNITARY
    assert norms == [pair.S.shape, unitary.S.shape]


def test_grid_maximum_above_one_answers_not_gamma(monkeypatch):
    # with P = 0 the fundamental operator is S, and f(0) = 1.2 on the grid
    pair = make_pair(np.diag([1.2, 0.0]), np.zeros((2, 2)))
    count = _LinalgCounter(monkeypatch, ("eigh", "eigvals"))
    rep = is_gamma_contraction(pair)
    assert count.calls == {"eigh": 0, "eigvals": 0}
    assert rep.kind == NOT_GAMMA
    assert rep.wA == pytest.approx(1.2, abs=1e-12) and rep.wA <= rep.wA_upper


@pytest.mark.parametrize("outside", [True, False], ids=["outside", "inside"])
def test_knife_edge_pair_falls_back_to_the_level_set(monkeypatch, outside):
    # w(S) = 1 +/- 1e-6 lies in the band the grid cannot decide.  Outside,
    # the ascent's lower bound already exceeds 1 + WR_SLACK; inside, S is
    # normal, so ||S|| = w(S) passes: neither needs a level-set eigvals
    rng = np.random.default_rng(16)
    eigs = np.exp(2j * np.pi * rng.random(4))
    eigs[0] *= 1 + 1e-6 if outside else 1 - 1e-6
    U = random_unitary(rng, 4)
    pair = make_pair((U * eigs) @ adj(U), np.zeros((4, 4)))
    count = _LinalgCounter(monkeypatch, ("eigh", "eigvals"))
    rep = is_gamma_contraction(pair)
    assert count.calls["eigvals"] == 0 and (count.calls["eigh"] > 0) == outside
    assert rep.kind == (NOT_GAMMA if outside else GAMMA_CONTRACTION)
    assert rep.wA_decided_by == ("ascent" if outside else "norm")
    w = max(abs(eigs))  # S is normal
    assert rep.wA <= w <= rep.wA_upper
    grid, _, _ = grid_bounds(rep.fundamental_op)
    assert rep.wA_upper == (grid.upper if outside else pytest.approx(w, abs=1e-13))
    res = numerical_radius(rep.fundamental_op)
    assert rep.wA <= res.upper and res.value <= rep.wA_upper


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


def _rejects_by_block_loop(pair, N):
    """Reference: recover_pure_symbol's test, one interior block at a time."""
    E = adj(pair.S) - pair.S @ adj(pair.P)
    b = pair.dim // (N + 1)
    norms = {(i, j): opnorm(E[i * b : (i + 1) * b, j * b : (j + 1) * b]) for i in range(N) for j in range(N)}
    scale = max(1.0, norms.pop((0, 0)))
    return max(norms.values()) > 1e-10 * scale


def test_recover_pure_symbol_checks_every_interior_block():
    # A perturbation of S at block (i, j) shows in S* - SP* at block (j, i)
    # and, since P* lowers the degree by one, at block (i, j + 1).  So it
    # reaches an interior block exactly when i < N and j < N; at block
    # (0, N) it stays in the degree-N row and the absent column N + 1.
    b, N = 2, 4
    A = random_symbol(np.random.default_rng(4), b)
    pair = gamma_isometry_model(A, N)
    assert not _rejects_by_block_loop(pair, N)
    for i in range(N + 1):
        for j in range(N + 1):
            S = pair.S.copy()
            S[i * b : (i + 1) * b, j * b : (j + 1) * b] += 1e-6
            perturbed = make_pair(S, pair.P)
            assert _rejects_by_block_loop(perturbed, N) == (i < N and j < N), (i, j)
            if i < N and j < N:
                with pytest.raises(NotPureModelForm):
                    recover_pure_symbol(perturbed, N)
            else:
                assert opnorm(recover_pure_symbol(perturbed, N) - A) < 1e-13, (i, j)


def test_windowed_model_pair_classifies_gamma_isometry():
    # the truncated shift maps its top degree out, so ||P*P - I|| = 1 on the
    # whole space; only the residual restricted to the window vanishes
    pair = gamma_isometry_model(random_symbol(np.random.default_rng(6), 3), 6)
    assert opnorm(adj(pair.P) @ pair.P - np.eye(pair.dim)) == pytest.approx(1.0)
    assert is_gamma_contraction(pair).kind == GAMMA_ISOMETRY


def _isometry_test_matrices(case, rng):
    if case == "random":
        return [random_gamma_contraction(rng).P for _ in range(10)]
    if case == "unitary":
        synth = [gamma_unitary_synth(*random_commuting_unitaries(rng, n)).P for n in range(1, 9)]
        return [random_unitary(rng, n) for n in range(1, 9)] + synth
    if case == "near_isometric":
        return [np.diag([1 - 1e-12, 0.5]).astype(complex)]
    if case == "jordan":
        return [np.diag(np.ones(n - 1), 1) * c for n in (2, 5) for c in (1.0, 0.5)]
    return [np.zeros((0, 0), dtype=complex)]


@pytest.mark.parametrize("case", ["random", "unitary", "near_isometric", "jordan", "empty"])
def test_unwindowed_isometry_residual_reads_the_singular_values(case):
    # ||P*P - I|| = max|(1 - s)(1 + s)| over the singular values s of P.  The
    # reference forms P*P, whose entries round by about n eps ||P||^2.
    eps = np.finfo(float).eps
    for P in _isometry_test_matrices(case, np.random.default_rng(21)):
        n = P.shape[0]
        _, rep = is_gamma_isometry(make_pair(np.zeros_like(P), P))
        residual = dict((name, r) for name, _, r in rep.checks)["P isometric"]
        reference = opnorm(adj(P) @ P - np.eye(n))
        assert abs(residual - reference) <= 4 * max(1, n) * eps * max(1.0, opnorm(P) ** 2)


def test_von_neumann_margin_violation():
    margin, _ = von_neumann_margin(make_pair([[2.2]], [[1.0]]), trials=20, seed=1)
    assert margin <= -0.19


def test_von_neumann_margin_nonnegative_on_contraction():
    rng = np.random.default_rng(4)
    pair = random_gamma_contraction(rng)
    margin, _ = von_neumann_margin(pair, trials=20, seed=1)
    assert margin >= -1e-6


def _margin_point_by_point(pair, degree, trials, grid, seed):
    """The margin, one candidate and one boundary point at a time (reference)."""
    rng = np.random.default_rng(seed)
    cands = [np.zeros((degree + 1, degree + 1), dtype=complex) for _ in range(trials + 2)]
    cands[0][1, 0] = cands[1][0, 1] = 1.0
    for c in cands[2:]:
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                c[a, b] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    S, P = pair.S, pair.P
    mpow = np.linalg.matrix_power
    degs = [(a, b) for a in range(degree + 1) for b in range(degree + 1)]

    def value(c, z1, z2):
        return abs(sum(c[a, b] * (z1 + z2) ** a * (z1 * z2) ** b for a, b in degs))

    def sup(c):
        z = np.exp(2j * np.pi * np.arange(grid) / grid)
        vals = [value(c, z1, z2) for z1 in z for z2 in z]
        best = int(np.argmax(vals))
        tj, tk = 2 * np.pi * (best // grid) / grid, 2 * np.pi * (best % grid) / grid
        h, top = 2 * np.pi / grid, max(vals)
        for _ in range(3):
            loc = np.linspace(-h, h, 17)
            pts = [(tj + x, tk + y) for x in loc for y in loc]
            vals = [value(c, np.exp(1j * x), np.exp(1j * y)) for x, y in pts]
            k = int(np.argmax(vals))
            top, (tj, tk), h = max(top, vals[k]), pts[k], h / 8
        return top

    margins = [
        sup(c) - opnorm(sum(c[a, b] * mpow(S, a) @ mpow(P, b) for a, b in degs)) for c in cands
    ]
    k = int(np.argmin(margins))
    return margins[k], cands[k]


def test_von_neumann_margin_matches_point_by_point_reference():
    rng = np.random.default_rng(4)
    cases = [
        (random_gamma_contraction(rng), 6),
        (make_pair([[2.2]], [[1.0]]), 6),
        # 37 candidates: two full blocks of the torus evaluation and a remainder
        (random_gamma_contraction(rng), 35),
    ]
    for pair, trials in cases:
        margin, witness = von_neumann_margin(pair, trials=trials, grid=8, seed=3)
        ref_margin, ref_witness = _margin_point_by_point(pair, 3, trials, 8, 3)
        assert margin == pytest.approx(ref_margin, abs=1e-12)
        assert np.allclose(witness, ref_witness, rtol=0, atol=1e-12)


def _torus_sup_per_block(E, grid):
    """The torus sup with all four stages per block of 16 arrays, each table
    from its own angles (reference)."""
    sups = []
    for start in range(0, len(E), 16):
        Eb = E[start : start + 16]
        rows, powers = np.arange(len(Eb)), np.arange(Eb.shape[-1])
        t1 = t2 = np.broadcast_to(2 * np.pi * np.arange(grid) / grid, (len(Eb), grid))
        sup, h = np.zeros(len(Eb)), 2 * np.pi / grid
        for _ in range(4):
            Z1, Z2 = (np.exp(1j * t[..., None] * powers) for t in (t1, t2))
            vals = np.abs(Z1 @ Eb @ Z2.swapaxes(1, 2)).reshape(len(Eb), -1)
            k = np.argmax(vals, axis=1)
            sup = np.maximum(sup, vals[rows, k])
            i, j = np.divmod(k, t2.shape[1])
            loc = np.linspace(-h, h, 17)
            t1, t2 = t1[rows, i, None] + loc, t2[rows, j, None] + loc
            h /= 8
        sups.append(sup)
    return np.concatenate(sups)


def _exhaustive_margin(pair, degree=3, trials=100, grid=64, seed=0):
    """The margin with every candidate refined by _torus_sup and given its exact
    norm, as before pruning (reference).  Returns (margin, witness, E)."""
    a, b = np.nonzero(np.add.outer(np.arange(degree + 1), np.arange(degree + 1)) <= degree)
    draws = np.random.default_rng(seed).uniform(-1, 1, size=(trials, a.size, 2))
    cands = np.zeros((trials + 2, degree + 1, degree + 1), dtype=complex)
    cands[0, 1, 0] = cands[1, 0, 1] = 1.0
    cands[2:, a, b] = draws[..., 0] + 1j * draws[..., 1]
    spow, ppow = [np.eye(pair.dim, dtype=complex)], [np.eye(pair.dim, dtype=complex)]
    for _ in range(degree):
        spow.append(spow[-1] @ pair.S)
        ppow.append(ppow[-1] @ pair.P)
    words = np.stack([Sa @ Pb for Sa in spow for Pb in ppow])
    norms = opnorm(np.tensordot(cands.reshape(trials + 2, -1), words, axes=1))
    E = (cands.reshape(trials + 2, -1) @ classify._torus_map(degree)).reshape(cands.shape)
    margins = classify._torus_sup(E, grid) - norms
    k = int(np.argmin(margins))
    return float(margins[k]), cands[k], E


def _recorded_stacks(monkeypatch):
    """Sizes of the stacks that von_neumann_margin hands to _torus_sup, counted
    from a cleared family cache: a cached family keeps the sups it refined."""
    classify._vn_family.cache_clear()
    sizes, torus_sup = [], classify._torus_sup

    def recorded(E, grid):
        sizes.append(len(E))
        return torus_sup(E, grid)

    monkeypatch.setattr(classify, "_torus_sup", recorded)
    return sizes


def test_torus_sup_matches_per_block_reference(monkeypatch):
    # defaults: grid 64 and 102 candidates, which is not a multiple of 16
    rng = np.random.default_rng(21)
    pairs = [random_gamma_contraction(rng) for _ in range(10)] + [make_pair([[2.2]], [[1.0]])]
    for pair in pairs:
        ref_margin, ref_witness, E = _exhaustive_margin(pair)
        assert len(E) == 102
        assert np.allclose(
            classify._torus_sup(E, 64), _torus_sup_per_block(E, 64), rtol=0, atol=1e-12
        )
        sizes = _recorded_stacks(monkeypatch)
        margin, witness = von_neumann_margin(pair)
        monkeypatch.undo()
        # pruning refines a few candidates, and the answer is that of refining all
        assert sum(sizes) < 102
        assert margin == pytest.approx(ref_margin, abs=1e-12)
        assert np.array_equal(witness, ref_witness)


@pytest.mark.parametrize("degree, grid", [(3, 6), (5, 8)])
def test_von_neumann_margin_on_a_coarse_grid_matches_point_by_point(monkeypatch, degree, grid):
    # cos(degree pi / grid) is 0 at (3, 6) and negative at (5, 8), where a grid max
    # times sec^2 would bound nothing; the ceiling is a refined margin at any grid
    rng = np.random.default_rng(9)
    for pair in (random_gamma_contraction(rng), make_pair([[2.2]], [[1.0]])):
        sizes = _recorded_stacks(monkeypatch)
        margin, witness = von_neumann_margin(pair, degree=degree, trials=6, grid=grid, seed=5)
        monkeypatch.undo()
        assert 1 <= sum(sizes) <= 8
        ref_margin, ref_witness = _margin_point_by_point(pair, degree, 6, grid, 5)
        assert margin == pytest.approx(ref_margin, abs=1e-12)
        assert np.allclose(witness, ref_witness, rtol=0, atol=1e-12)


def _torus_grid_unitary(k):
    """The diagonal Gamma-unitary whose joint eigenvalues are the images of a
    k x k grid on the torus."""
    t = 2 * np.pi * np.arange(k) / k
    z1, z2 = (z.ravel() for z in np.meshgrid(np.exp(1j * t), np.exp(1j * (t + 0.1))))
    return make_pair(np.diag(z1 + z2), np.diag(z1 * z2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_von_neumann_margin_with_near_tied_candidates(monkeypatch, seed):
    # at the boundary point (2, 1) the monomials s and p tie at margin 0 up to
    # rounding; the torus-grid Gamma-unitary puts dozens of margins within 0.2
    # of the minimum, so that most candidates stay live
    for pair, least_live in ((make_pair([[2.0]], [[1.0]]), 2), (_torus_grid_unitary(4), 50)):
        sizes = _recorded_stacks(monkeypatch)
        margin, witness = von_neumann_margin(pair, seed=seed)
        monkeypatch.undo()
        assert sum(sizes) >= least_live
        ref_margin, ref_witness, _ = _exhaustive_margin(pair, seed=seed)
        assert margin == pytest.approx(ref_margin, abs=1e-12)
        assert np.array_equal(witness, ref_witness)


def test_von_neumann_margin_is_the_same_on_a_new_and_a_recurring_family():
    # bit for bit: the reference refines every candidate, as the margin did
    # before the family was cached, and each call below either builds the
    # family or finds it built with some of its sups already refined
    rng = np.random.default_rng(31)
    pairs = [random_gamma_contraction(rng) for _ in range(6)] + [make_pair([[2.2]], [[1.0]])]
    for seed in (0, 7, 19):
        for first, other in zip(pairs, pairs[1:] + pairs[:1]):
            classify._vn_family.cache_clear()
            new = von_neumann_margin(first, seed=seed)
            again = von_neumann_margin(make_pair(first.S, first.P), seed=seed)
            warm_other = von_neumann_margin(other, seed=seed)
            classify._vn_family.cache_clear()
            new_other = von_neumann_margin(other, seed=seed)
            results = ((new, first), (again, first), (warm_other, other), (new_other, other))
            for (margin, witness), pair in results:
                ref_margin, ref_witness, _ = _exhaustive_margin(pair, seed=seed)
                assert margin == ref_margin and np.array_equal(witness, ref_witness)


def test_a_recurring_family_refines_no_candidate_twice(monkeypatch):
    rng = np.random.default_rng(32)
    pairs = [random_gamma_contraction(rng) for _ in range(8)] + [_torus_grid_unitary(4)]
    sizes = _recorded_stacks(monkeypatch)
    von_neumann_margin(pairs[0], seed=4)
    assert 1 <= sum(sizes) < 102
    before = len(sizes)
    von_neumann_margin(make_pair(pairs[0].S, pairs[0].P), seed=4)
    assert len(sizes) == before  # every live candidate of this pair is refined
    for pair in pairs[1:]:
        von_neumann_margin(pair, seed=4)
    # each refinement fills a sup that was unknown, so the refined count is the total
    sup = classify._vn_family(3, 100, 64, 4)[3]
    assert sum(sizes) == np.count_nonzero(~np.isnan(sup)) <= 102


def test_a_returned_witness_is_a_copy():
    pair = random_gamma_contraction(np.random.default_rng(33))
    margin, witness = von_neumann_margin(pair, trials=20, seed=6)
    kept = witness.copy()
    witness[...] = 7.0
    margin2, witness2 = von_neumann_margin(pair, trials=20, seed=6)
    assert margin2 == margin and np.array_equal(witness2, kept)
    cands, E, coarse, _ = classify._vn_family(3, 20, 64, 6)
    assert not (cands.flags.writeable or E.flags.writeable or coarse.flags.writeable)


def test_a_new_family_is_evaluated_on_the_torus_without_a_kronecker_table(monkeypatch):
    # the coarse grid and the refinements share the separable |Z E Z^T| of _torus_sup
    pair = random_gamma_contraction(np.random.default_rng(37))
    classify._vn_family.cache_clear()
    built = []
    monkeypatch.setattr(np, "kron", lambda *a: built.append("kron"))
    margin, _ = von_neumann_margin(pair, seed=8)
    assert built == [] and np.isfinite(margin)


def test_threads_sharing_a_family_get_the_serial_answers():
    # the threads fill in one family's sups; a torn or lost write would change
    # a floor or a margin, and at worst two threads refine one candidate alike
    rng = np.random.default_rng(36)
    jobs = [(pair, seed) for seed in (1, 2) for pair in
            [random_gamma_contraction(rng) for _ in range(5)] + [_torus_grid_unitary(4)]]
    expected = []
    for pair, seed in jobs:
        classify._vn_family.cache_clear()
        expected.append(von_neumann_margin(pair, seed=seed))
    classify._vn_family.cache_clear()
    results = {}

    def work(t):
        for i in np.random.default_rng(t).permutation(len(jobs)):
            results[t, i] = von_neumann_margin(jobs[i][0], seed=jobs[i][1])

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * len(jobs)
    for (_, i), (margin, witness) in results.items():
        assert margin == expected[i][0] and np.array_equal(witness, expected[i][1])


@pytest.mark.parametrize("seed", [1.0, None, "0"])
def test_von_neumann_margin_rejects_a_seed_that_is_not_an_integer(seed):
    before = classify._vn_family.cache_info().currsize
    with pytest.raises(TypeError):
        von_neumann_margin(make_pair([[0.5]], [[0.2]]), seed=seed)
    assert classify._vn_family.cache_info().currsize == before


@pytest.mark.parametrize("name, value", [("degree", 0), ("trials", -1), ("grid", 0)])
def test_von_neumann_margin_rejects_an_out_of_range_size(name, value):
    before = classify._vn_family.cache_info()
    with pytest.raises(ValueError, match=name):
        von_neumann_margin(make_pair([[0.5]], [[0.2]]), **{name: value})
    assert classify._vn_family.cache_info() == before


def test_von_neumann_margin_answers_at_the_smallest_sizes():
    # only the coordinate monomials: min(sup|s| - 0.5, sup|p| - 0.2) = min(2 - 0.5, 1 - 0.2)
    margin, _ = von_neumann_margin(make_pair([[0.5]], [[0.2]]), degree=1, trials=0, grid=1)
    assert margin == pytest.approx(0.8, abs=1e-12)


def test_von_neumann_margin_over_budget_trials_is_refused_before_anything_is_allocated():
    # 10^6 trials at n = 10 would ask about 1.6 GB for each stack of candidates
    pair = random_gamma_contraction(np.random.default_rng(34))
    _ = pair.svd_P, pair.norm_S, pair.commutator_norm
    before = classify._vn_family.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge, match="von Neumann candidate stacks"):
            von_neumann_margin(pair, trials=10**6, seed=12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert classify._vn_family.cache_info() == before


def test_von_neumann_margin_over_budget_grid_is_refused_before_anything_is_allocated():
    # a block of 16 candidates on a 2^14 x 2^14 torus grid would ask about 96 GiB
    pair = random_gamma_contraction(np.random.default_rng(34))
    _ = pair.svd_P, pair.norm_S, pair.commutator_norm
    before = classify._vn_family.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge, match="von Neumann torus grid"):
            von_neumann_margin(pair, grid=2**14, seed=12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert classify._vn_family.cache_info() == before


@pytest.mark.parametrize("pair, trials", [
    (make_pair([[2.0]], [[1.0]]), 4000),
    (random_gamma_contraction(np.random.default_rng(35)), 1000),
    (_torus_grid_unitary(5), 300),
], ids=["1x1", "generated", "torus-grid-unitary"])
def test_von_neumann_margin_peak_is_within_its_budget(pair, trials):
    # the budget counts 3 n^2 + 3 * 17^2 complex entries per candidate; on a
    # new family the 1 x 1 pairs peak in the family's coarse grid, the torus-grid
    # unitary in its stacks of candidate operators, with a few hundred refined
    _ = pair.svd_P, pair.norm_S, pair.commutator_norm
    classify._vn_family.cache_clear()
    tracemalloc.start()
    try:
        von_neumann_margin(pair, trials=trials, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (trials + 2) * (3 * pair.dim**2 + 3 * 17 * 17)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 64]))
def test_torus_sup_is_within_sec_squared_of_the_grid_max(seed, grid):
    # Szego's inequality once per axis: a polynomial of degree <= 3 in each of
    # z1 and z2 has sup over the torus <= grid max * sec^2(3 pi / grid)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    E = X + X.swapaxes(1, 2)
    Z = classify._grid_table(grid, 4)
    grid_max = np.abs(Z @ E @ Z.T).max(axis=(1, 2))
    assert np.all(classify._torus_sup(E, 512) <= grid_max / np.cos(3 * np.pi / grid) ** 2)


def test_von_neumann_margin_is_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(8)
    outside = make_pair(np.diag([2.2, 0.5, -0.3j]), np.diag([1.0, 0.1, 0.2]))
    for pair in (random_gamma_contraction(rng), outside):
        U = random_unitary(rng, pair.dim)
        conjugate = make_pair(U @ pair.S @ adj(U), U @ pair.P @ adj(U))
        margin, witness = von_neumann_margin(pair, trials=20, seed=2)
        margin2, witness2 = von_neumann_margin(conjugate, trials=20, seed=2)
        assert margin == pytest.approx(margin2, abs=1e-12)
        assert np.allclose(witness, witness2, rtol=0, atol=1e-12)


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


def test_trace_words_of_length_two_reject():
    # tr A = tr B = 0, but tr(A A*) = 2 and tr(B B*) = 4
    A, B = np.diag([1.0, -1.0]), np.array([[0.0, 2.0], [0.0, 0.0]])
    U = random_unitary(np.random.default_rng(3), 2)
    assert joint_unitary_equiv([A, B], [U @ A @ adj(U), U @ B @ adj(U)])
    assert not joint_unitary_equiv([A], [B])


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


def test_operator_lists_of_size_zero_have_the_empty_intertwiner():
    U, res = find_unitary_intertwiner([np.zeros((0, 0))], [np.zeros((0, 0))])
    assert U.shape == (0, 0) and res == 0.0
    assert joint_unitary_equiv([np.zeros((0, 0))], [np.zeros((0, 0))])


def test_certificate_below_threshold_is_equivalence():
    # a trace gap of n c is allowed by a certificate of c: each of these
    # certificates is under the threshold, and so each pair is equivalent
    accept = classify.ACCEPT_THRESHOLD
    rng = np.random.default_rng(6)
    pair = gamma_isometry_model(random_symbol(rng, 3), 4)
    U = random_unitary(rng, pair.dim)
    S2, P2 = U @ pair.S @ adj(U) + 5e-8 * np.eye(pair.dim), U @ pair.P @ adj(U)
    a = 0.3 + 0.4j
    for ops1, ops2 in (([pair.S, pair.P], [S2, P2]), ([[[a]]], [[[a + 3e-7]]])):
        assert find_unitary_intertwiner(ops1, ops2)[1] <= accept
        assert joint_unitary_equiv(ops1, ops2)


def test_strangers_at_size_65_are_rejected_before_the_gram_operator():
    # H of a scalar letter has one cluster of size 65, over GRAM_BUDGET_BYTES;
    # the singular values or the trace reject these strangers first
    n = 65
    eye, rank_one, flip = np.eye(n), np.zeros((n, n)), np.ones(n)
    rank_one[-1, -1], flip[-1] = 1e-3, -1
    strangers = [
        (0.5 * eye, 0.6 * eye),
        (np.zeros((n, n)), rank_one),
        (eye, -eye),
        (1e-3 * eye, 1e-3 * np.diag(flip)),
    ]
    for A, B in strangers:
        assert not joint_unitary_equiv([A], [B])
    # an equivalent scalar pair passes both and reaches the Gram operator
    ops = [0.5 * eye, 0.25 * eye]
    with pytest.raises(ProblemTooLarge):
        joint_unitary_equiv(ops, _haar(np.random.default_rng(65), ops))


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


# ---------------------------------------------------------------------------
# spectral blocks of the random Hermitian element
# ---------------------------------------------------------------------------


def _haar(rng, ops):
    U = random_unitary(rng, ops[0].shape[0])
    return [U @ T @ adj(U) for T in ops]


def _model_ops(rng, b, N):
    pair = gamma_isometry_model(random_symbol(rng, b), N)
    return [pair.S, pair.P]


@pytest.mark.parametrize("b, N", [(4, 10), (6, 12)], ids=["n44", "n78"])
def test_pure_model_pairs_at_scale(b, N):
    rng = np.random.default_rng(b)
    ops1 = _model_ops(rng, b, N)
    S2, P2 = _haar(rng, ops1)
    U, res = find_unitary_intertwiner(ops1, [S2, P2])
    assert res <= 1e-12
    assert opnorm(adj(U) @ U - np.eye(U.shape[0])) < 1e-12
    assert joint_unitary_equiv(ops1, [S2, P2])
    E = rng.standard_normal(S2.shape) + 1j * rng.standard_normal(S2.shape)
    assert not joint_unitary_equiv(ops1, [S2 + 1e-5 * E / opnorm(E), P2])


@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-6])
def test_joint_unitary_equiv_near_repeated_eigenvalue(delta):
    # close eigenvalues of H share a cluster, so the intertwiner keeps its
    # 2 x 2 block
    D = np.diag([1.0, 1.0 + delta, 2.0])
    W = random_unitary(np.random.default_rng(11), 3)
    assert joint_unitary_equiv([D], [W @ D @ adj(W)])


def test_joint_unitary_equiv_triple_direct_sum():
    rng = np.random.default_rng(12)
    ops = [block_diag(T, T, T) for T in _model_ops(rng, 2, 3)]
    assert joint_unitary_equiv(ops, _haar(rng, ops))


def test_joint_unitary_equiv_swapped_direct_sum():
    rng = np.random.default_rng(13)
    ops1, ops2 = _model_ops(rng, 2, 2), _model_ops(rng, 1, 4)
    first = [block_diag(T1, T2) for T1, T2 in zip(ops1, ops2)]
    second = [block_diag(T2, T1) for T1, T2 in zip(ops1, ops2)]
    assert joint_unitary_equiv(first, second)


def test_find_unitary_intertwiner_size_guard(monkeypatch):
    # T + T on C^6 has a double spectrum: three 2 x 2 clusters, 12 unknowns
    rng = np.random.default_rng(14)
    ops = [block_diag(T, T) for T in _model_ops(rng, 1, 2)]
    conj = _haar(rng, ops)
    assert find_unitary_intertwiner(ops, conj)[1] < 1e-12
    monkeypatch.setattr(linalg, "GRAM_BUDGET_BYTES", 16 * 12**2 - 1)
    with pytest.raises(ProblemTooLarge):
        find_unitary_intertwiner(ops, conj)
    assert issubclass(ProblemTooLarge, SymbidiscError)


def _full_gram(ops1, ops2):
    """The n^2 x n^2 Gram operator of the joint Sylvester system on column-major
    vec(X), assembled as one sum of Kronecker products over all entries."""
    n = ops1[0].shape[0]
    eye = np.eye(n)
    pairs = [
        (A, B) for T1, T2 in zip(ops1, ops2) for A, B in ((T1, T2), (adj(T1), adj(T2)))
    ]
    left = [eye, sum((A @ adj(A)).T for A, _ in pairs)]
    right = [sum(adj(B) @ B for _, B in pairs), eye]
    for A, B in pairs:
        left += [-A.T, -A.conj()]
        right += [adj(B), B]
    L = np.stack(left).reshape(len(left), n * n)
    R = np.stack(right).reshape(len(right), n * n)
    return (L.T @ R).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _reference_case(case):
    if case == "reducible":
        # conjugated on both sides, so neither spectrum repeats exactly
        rng = np.random.default_rng(40)
        ops1 = _haar(rng, [block_diag(T, T) for T in _model_ops(rng, 1, 3)])
        return ops1, _haar(rng, ops1)
    rng = np.random.default_rng(20 + case)
    pair = random_gamma_contraction(rng)
    while pair.dim > 8:
        pair = random_gamma_contraction(rng)
    ops1 = [pair.S, pair.P]
    return ops1, _haar(rng, ops1)


@pytest.mark.parametrize("case", list(range(20)) + ["reducible"])
def test_block_null_space_matches_full_gram(case):
    # the full Gram null space holds every intertwiner; the block-diagonal
    # one must hold as many, and give the same verdict
    ops1, ops2 = _reference_case(case)
    n = ops1[0].shape[0]
    norms1 = [max(1.0, opnorm(T)) for T in ops1]
    scale = max(norms1 + [opnorm(T) for T in ops2])
    threshold = (classify.NULL_TOL * scale) ** 2
    evals, evecs = np.linalg.eigh(_full_gram(ops1, ops2))
    ref_dim = int(np.sum(evals <= threshold))
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(ref_dim) + 1j * rng.standard_normal(ref_dim)
    W, _, Zh = np.linalg.svd((evecs[:, :ref_dim] @ coef).reshape((n, n), order="F"))
    ref_res = max(
        opnorm(W @ Zh @ T1 - T2 @ W @ Zh) / nrm for T1, T2, nrm in zip(ops1, ops2, norms1)
    )

    space = classify._intertwiner_space(np.stack([ops1, ops2]), scale)
    assert space is not None
    assert space[-1].shape[1] == ref_dim
    _, res = find_unitary_intertwiner(ops1, ops2)
    accept = 100 * RESIDUAL_TOL
    assert (res <= accept) == (ref_res <= accept)


_SEEDS = st.integers(0, 2**32 - 1)


def _trace_invariants(S, P):
    """Traces of words in S, P and adjoints: equal for unitarily equivalent pairs."""
    return np.array([np.trace(W) for W in (S, adj(S) @ S, adj(S) @ P, adj(P) @ P)])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_SEEDS)
def test_joint_unitary_equiv_is_reflexive_under_conjugation(seed):
    rng = np.random.default_rng(seed)
    pair = random_gamma_contraction(rng)
    ops = [pair.S, pair.P]
    assert joint_unitary_equiv(ops, _haar(rng, ops))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_SEEDS, st.booleans())
def test_joint_unitary_equiv_is_symmetric(seed, conjugate):
    rng = np.random.default_rng(seed)
    pair = random_gamma_contraction(rng)
    ops1 = [pair.S, pair.P]
    if conjugate:
        ops2 = _haar(rng, ops1)
    else:
        other = random_gamma_contraction(rng)
        ops2 = [other.S, other.P]
    assert joint_unitary_equiv(ops1, ops2) == joint_unitary_equiv(ops2, ops1)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_SEEDS)
def test_joint_unitary_equiv_rejects_strangers(seed):
    # a stranger of the same dimension whose trace invariants differ
    rng = np.random.default_rng(seed)
    pair = random_gamma_contraction(rng)
    other = random_gamma_contraction(rng)
    while other.dim != pair.dim or np.allclose(
        _trace_invariants(pair.S, pair.P), _trace_invariants(other.S, other.P), atol=1e-6
    ):
        other = random_gamma_contraction(rng)
    assert not joint_unitary_equiv([pair.S, pair.P], [other.S, other.P])


def _pair_of_any_kind(rng, variant):
    """A Gamma-contraction, a Gamma-unitary, or a contraction with S scaled by
    1 to 3, which is a Gamma-contraction or not."""
    if variant == "unitary":
        return gamma_unitary_synth(*random_commuting_unitaries(rng, int(rng.integers(1, 6))))
    pair = random_gamma_contraction(rng)
    if variant == "scaled":
        return make_pair((1 + 2 * rng.random()) * pair.S, pair.P)
    return pair


_VARIANTS = st.sampled_from(["contraction", "unitary", "scaled"])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_SEEDS, _VARIANTS)
def test_kind_is_invariant_under_unitary_conjugation(seed, variant):
    rng = np.random.default_rng(seed)
    pair = _pair_of_any_kind(rng, variant)
    S2, P2 = _haar(rng, [pair.S, pair.P])
    assert is_gamma_contraction(make_pair(S2, P2)).kind == is_gamma_contraction(pair).kind


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_SEEDS, _VARIANTS)
def test_adjoint_pair_has_the_same_kind(seed, variant):
    pair = _pair_of_any_kind(np.random.default_rng(seed), variant)
    star = make_pair(adj(pair.S), adj(pair.P))
    assert is_gamma_contraction(star).kind == is_gamma_contraction(pair).kind


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_SEEDS, st.sampled_from(["contraction", "unitary"]))
def test_scaled_pair_stays_in_gamma(seed, variant):
    # (rS, r^2 P) is a Gamma-contraction for 0 <= r <= 1 whenever (S, P) is
    pair = _pair_of_any_kind(np.random.default_rng(seed), variant)
    for r in (0.0, 0.3, 0.9, 1 - 1e-6, 1.0):
        kind = is_gamma_contraction(make_pair(r * pair.S, r * r * pair.P)).kind
        assert kind not in (NOT_GAMMA, INCONCLUSIVE), r


_KIND_ORDER = [NOT_GAMMA, GAMMA_CONTRACTION, GAMMA_ISOMETRY, GAMMA_UNITARY]
_NOT_GAMMA_PARTS = [
    ([[2.2]], [[1.0]]),  # ||S|| > 2
    (np.diag([1.2, 0.0]), np.zeros((2, 2))),  # w(A) = 1.2
    ([[0.0]], [[1.5]]),  # ||P|| > 1
    ([[0.5]], [[-1.0]]),  # S - S*P = 1 on a zero defect space
]


def _direct_sum_part(rng, source):
    if source == "contraction":
        return random_gamma_contraction(rng)
    if source == "unitary":
        return gamma_unitary_synth(*random_commuting_unitaries(rng, int(rng.integers(1, 5))))
    return make_pair(*_NOT_GAMMA_PARTS[int(rng.integers(len(_NOT_GAMMA_PARTS)))])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_SEEDS, st.lists(st.sampled_from(["contraction", "unitary", "not_gamma"]), min_size=1, max_size=3))
def test_direct_sum_has_the_weakest_kind_of_its_parts(seed, sources):
    rng = np.random.default_rng(seed)
    parts = [_direct_sum_part(rng, source) for source in sources]
    kinds = [is_gamma_contraction(part).kind for part in parts]
    total = make_pair(block_diag(*(p.S for p in parts)), block_diag(*(p.P for p in parts)))
    assert is_gamma_contraction(total).kind == min(kinds, key=_KIND_ORDER.index)


def _best_of_eight(ops1, ops2, seed=0):
    """find_unitary_intertwiner without its singular-value and trace
    rejection, with the best of 8 polar draws on every null space."""
    n = ops1[0].shape[0]
    norms1 = [max(1.0, opnorm(T)) for T in ops1]
    scale = max(norms1 + [opnorm(T) for T in ops2])
    rng = np.random.default_rng(seed)
    space = classify._intertwiner_space(np.stack([ops1, ops2]), scale)
    if space is None:
        return None, np.inf, 0
    V1, V2, I, J, basis = space
    best_U, best_res = None, np.inf
    D = np.zeros((n, n), dtype=complex)
    for _ in range(8):
        z = rng.standard_normal((2, basis.shape[1]))
        D[I, J] = basis @ (z[0] + 1j * z[1])
        W, _, Zh = np.linalg.svd(D)
        U = V2 @ W @ Zh @ adj(V1)
        res = max(opnorm(U @ T1 - T2 @ U) / nrm for T1, T2, nrm in zip(ops1, ops2, norms1))
        if res < best_res:
            best_U, best_res = U, res
    return best_U, best_res, basis.shape[1]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_SEEDS)
def test_one_polar_draw_matches_the_best_of_eight(seed):
    rng = np.random.default_rng(seed)
    pair = random_gamma_contraction(rng)
    other = random_gamma_contraction(rng)
    while other.dim != pair.dim:
        other = random_gamma_contraction(rng)
    ops1 = [pair.S, pair.P]
    accept = classify.ACCEPT_THRESHOLD
    for ops2, equivalent in ((_haar(rng, ops1), True), ([other.S, other.P], False)):
        ref_U, ref_res, dim = _best_of_eight(ops1, ops2)
        U, res = find_unitary_intertwiner(ops1, ops2)
        # a generated pair is irreducible, so its conjugate's intertwiners are c D_0
        assert dim == (1 if equivalent else 0)
        assert (U is None) == (ref_U is None)
        assert (res <= accept) == (ref_res <= accept)
        assert res == pytest.approx(ref_res, abs=1e-12)


def test_polar_draws_follow_the_null_space_dimension(monkeypatch):
    # an irreducible pair has a one-dimensional space and takes its null
    # vector; T + T, whose commutant widens every null space, takes one
    # seeded element; either way one polar factor, as good as the best of 8
    rng = np.random.default_rng(14)
    pair = random_gamma_contraction(rng)
    irreducible = [pair.S, pair.P]
    wide = [block_diag(T, T) for T in _model_ops(rng, 1, 2)]
    polar, calls = classify._polar_factor, {"polar": 0}

    def counted_polar(*args):
        calls["polar"] += 1
        return polar(*args)

    monkeypatch.setattr(classify, "_polar_factor", counted_polar)
    for ops, dim, draws in ((irreducible, 1, 1), (wide, 4, 1)):
        conj = _haar(rng, ops)
        _, ref_res, ref_dim = _best_of_eight(ops, conj)
        calls["polar"] = 0
        _, res = find_unitary_intertwiner(ops, conj)
        assert (ref_dim, calls["polar"]) == (dim, draws)
        assert res == pytest.approx(ref_res, abs=1e-12) and res < 1e-12


def test_irreducible_conjugate_builds_no_generator(monkeypatch):
    # H's coefficients are cached per letter count and a line of intertwiners
    # takes its null vector, so the call draws nothing
    _, ops, conj = _conjugated_model_pair(5)
    classify._h_coefficients(len(ops))
    built = []
    default_rng = np.random.default_rng

    def counted_rng(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    U, res = find_unitary_intertwiner(ops, conj)
    assert built == [] and U is not None and res < 1e-12


def test_simple_spectrum_conjugate_takes_one_svd_and_two_eighs(monkeypatch):
    # the shape of the benchmark's n = 28 pairs: the singular-value screen is
    # the one SVD, H and the Gram operator the two eighs; the polar factor of
    # the diagonal D and the Frobenius certificate take none
    rng = np.random.default_rng(16)
    ops = _model_ops(rng, 2, 13)
    conj = _haar(rng, ops)
    scale = max([1.0] + [opnorm(T) for T in ops + conj])
    V1, _, I, J, basis = classify._intertwiner_space(np.stack([ops, conj]), scale)
    assert I.size == J.size == len(V1) == 28 and basis.shape[1] == 1
    count = _LinalgCounter(monkeypatch, names=("svd", "eigh"))
    U, res = find_unitary_intertwiner(ops, conj)
    assert count.calls == {"svd": 0, "eigh": 2} and count.norms == 1
    assert res < 1e-12


def test_certificate_above_the_threshold_is_the_spectral_norm():
    # a perturbed conjugate that keeps a one-dimensional null space; each
    # letter's Frobenius residual is above the threshold, so both are exact
    rng, ops1, (S2, P2) = _conjugated_model_pair(3)
    E = rng.standard_normal(S2.shape) + 1j * rng.standard_normal(S2.shape)
    ops2 = [S2 + 5e-7 * E / opnorm(E), P2]
    U, res = find_unitary_intertwiner(ops1, ops2)
    R = [(U @ T1 - T2 @ U) / max(1.0, opnorm(T1)) for T1, T2 in zip(ops1, ops2)]
    accept = classify.ACCEPT_THRESHOLD
    assert min(np.linalg.norm(r) for r in R) > accept
    assert res > accept
    assert res == pytest.approx(max(opnorm(r) for r in R), rel=1e-12)
    assert res < max(np.linalg.norm(r) for r in R) / 1.2


def _equivalence_input(rng, variant):
    """A conjugate, a conjugate perturbed by eps I (1e-9 <= eps <= 1e-5), a
    stranger of the same size, or a conjugate of T + T or of T + T + T."""
    pair = random_gamma_contraction(rng)
    ops1 = [pair.S, pair.P]
    if variant == "direct-sum":
        ops1 = [block_diag(T, T) for T in ops1]
    if variant == "triple-sum":
        ops1 = [block_diag(T, T, T) for T in ops1]
    ops2 = _haar(rng, ops1)
    if variant == "perturbed":
        ops2[0] = ops2[0] + 10 ** rng.uniform(-9, -5) * np.eye(pair.dim)
    if variant == "stranger":
        other = random_gamma_contraction(rng)
        while other.dim != pair.dim:
            other = random_gamma_contraction(rng)
        ops2 = [other.S, other.P]
    return ops1, ops2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_SEEDS, st.sampled_from(["conjugate", "perturbed", "stranger", "direct-sum", "triple-sum"]))
def test_equivalence_is_the_certificate_of_every_polar_draw(seed, variant):
    # _best_of_eight reaches the Gram null space without the early
    # rejections, so they may only reject what its certificate rejects
    ops1, ops2 = _equivalence_input(np.random.default_rng(seed), variant)
    accept = classify.ACCEPT_THRESHOLD
    assert joint_unitary_equiv(ops1, ops2) == (_best_of_eight(ops1, ops2)[1] <= accept)


# ---------------------------------------------------------------------------
# the fundamental operator from the eigenbasis of D_P
# ---------------------------------------------------------------------------


def _diagonal_gamma_pair(rng, n, gap):
    """Haar conjugate of a diagonal Gamma-contraction s_j = b_j + conj(b_j) p_j
    with |b_j| <= 0.95, |p_j| <= 0.9 and one |p_1| = 1 - gap."""
    b = 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    p = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    p[0] = (1 - gap) * np.exp(2j * np.pi * rng.random())
    U = random_unitary(rng, n)
    return make_pair(U @ np.diag(b + b.conj() * p) @ adj(U), U @ np.diag(p) @ adj(U))


@pytest.mark.parametrize("gap", [1e-10, 1e-9, 1e-8, 1e-6, 1e-4])
def test_near_isometric_residual_stays_at_rounding_level(gap):
    # D pinv(D) amplified rounding by cond(D_P)^2 (3e-12 at gap 1e-10);
    # the eigenbasis solve does not
    rng = np.random.default_rng(int(-np.log10(gap)))
    for n in (2, 3, 5):
        rep = is_gamma_contraction(_diagonal_gamma_pair(rng, n, gap))
        assert rep.kind == GAMMA_CONTRACTION
        assert rep.fundamental_residual <= 1e-13
        assert rep.defect.rank_dP == n and rep.flushed_max == 0.0


def test_full_rank_p_just_above_the_cut_has_rounding_level_residual():
    # the smallest eigenvalue of I - P*P is 2e-10, just above RANK_TOL
    rng = np.random.default_rng(21)
    n = 4
    U, V = random_unitary(rng, n), random_unitary(rng, n)
    P = U @ np.diag([np.sqrt(1 - 2e-10), 0.7, 0.5, 0.3]) @ adj(V)
    dd = defect_data(P)
    assert dd.rank_dP == n and dd.root[-1] ** 2 == pytest.approx(2e-10, rel=1e-4)
    _, residual = fundamental_op(0.5 * P, dd)
    assert residual <= 1e-13


def test_flushed_max_separates_rounding_from_a_near_isometric_direction():
    rep = is_gamma_contraction(make_pair(np.zeros((2, 2)), np.diag([1 - 1e-12, 0.5])))
    assert rep.flushed_max == pytest.approx(2e-12, rel=1e-3)
    assert rep.defect.rank_dP == 1
    U1, U2 = random_commuting_unitaries(np.random.default_rng(22), 3)
    rep = is_gamma_contraction(gamma_unitary_synth(U1, U2))
    assert rep.kind == GAMMA_UNITARY and rep.flushed_max <= 1e-14


def _svd_fundamental_op(S, P):
    """The fundamental operator through pinv of D_P and an SVD range basis
    (reference)."""
    D = psd_sqrt(np.eye(P.shape[0]) - adj(P) @ P)
    X, residual = sandwich_solve(D, D, S - adj(S) @ P)
    Q = range_basis(D)
    return adj(Q) @ X @ Q, residual


def _reference_pairs():
    """30 generated pairs, then (S, P) with a simple, well-separated defect
    spectrum; fundamental_op does not need S and P to commute."""
    rng = np.random.default_rng(23)
    pairs = [random_gamma_contraction(rng) for _ in range(30)]
    pairs = [(pair.S, pair.P) for pair in pairs]
    for n in (2, 3, 4, 6):
        P = np.diag(np.linspace(0.2, 0.8, n)) @ random_unitary(rng, n)
        pairs.append((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), P))
    return pairs


def test_fundamental_op_matches_svd_reference():
    simple = repeated = 0
    for S, P in _reference_pairs():
        F, residual = fundamental_op(S, defect_data(P))
        F_ref, res_ref = _svd_fundamental_op(S, P)
        assert F.shape == F_ref.shape
        assert abs(residual - res_ref) <= 1e-12
        r = defect_data(P).root
        if np.all(-np.diff(r) > 1e-3):
            simple += 1
            assert np.allclose(F, F_ref, rtol=0, atol=1e-12)
        else:
            # another orthonormal basis inside a repeated eigenspace
            repeated += 1
            assert joint_unitary_equiv([F], [F_ref])
            wr, wr_ref = numerical_radius(F), numerical_radius(F_ref)
            assert abs(wr.value - wr_ref.value) <= 1e-12
            assert abs(wr.upper - wr_ref.upper) <= 1e-12
    assert simple >= 10 and repeated >= 10
