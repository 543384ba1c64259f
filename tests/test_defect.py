import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisc import defect
from symbidisc.classify import GAMMA_CONTRACTION, GAMMA_UNITARY, is_gamma_contraction
from symbidisc.defect import (
    DELTA_GRID,
    build_model_space,
    cnu_check,
    defect_data,
    delta_eval,
    pi_nf_matrix,
    spectral_radius,
    theta_eval,
    theta_taylor,
)
from symbidisc.dilation import gamma_unitary_synth
from symbidisc.errors import (
    DimensionMismatch,
    NotAContraction,
    NotCnu,
    ResolventSingular,
    TruncationTooSmall,
)
from symbidisc.generate import (
    random_commuting_unitaries,
    random_gamma_contraction,
    random_strict_contraction,
    random_unitary,
)
from symbidisc.linalg import RANK_TOL, adj, opnorm


def test_defect_of_unitary_vanishes():
    U = random_unitary(np.random.default_rng(0), 3)
    dd = defect_data(U)
    assert dd.rank_dP == 0 and dd.rank_dPstar == 0
    assert opnorm(dd.D_P) == 0.0


def test_defect_of_strict_contraction_full_rank():
    P = 0.5 * random_unitary(np.random.default_rng(1), 3)
    dd = defect_data(P)
    assert dd.rank_dP == 3
    assert np.allclose(dd.D_P @ dd.D_P, np.eye(3) - adj(P) @ P)


def test_contraction_check():
    with pytest.raises(NotAContraction):
        defect_data(np.diag([1.5, 0.0]))
    with pytest.raises(DimensionMismatch):  # 1 - s^2 would miss ker P
        defect_data(np.ones((2, 3)))


def test_cnu_check_rejects_unimodular_spectrum():
    with pytest.raises(NotCnu):
        cnu_check(defect_data(np.diag([1.0, 0.3])))


@pytest.mark.parametrize("K", [0, 3])
def test_theta_taylor_rejects_unimodular_spectrum(K):
    with pytest.raises(NotCnu):
        theta_taylor(defect_data(np.diag([1.0, 0.3])), K)


def test_adjoint_record_equals_defect_data_of_adjoint():
    # the SVD of P* picks its own singular vectors, so the defect operators,
    # the range projections and the shared root agree up to rounding
    rng = np.random.default_rng(9)
    for _ in range(5):
        P = random_gamma_contraction(rng).P
        swapped = defect_data(P).adjoint()
        direct = defect_data(adj(P))
        assert np.array_equal(swapped.P, direct.P)
        assert swapped.rank_dP == direct.rank_dP
        assert np.allclose(swapped.root, direct.root, rtol=0, atol=1e-14)
        for name in ("D_P", "D_Pstar"):
            assert opnorm(getattr(swapped, name) - getattr(direct, name)) <= 1e-14, name
        for name in ("Q_dP", "Q_dPstar"):
            Q, R = getattr(swapped, name), getattr(direct, name)
            assert opnorm(Q @ adj(Q) - R @ adj(R)) <= 1e-14, name


def test_scalar_moebius_coefficients():
    # Theta for P = c is the Moebius map: C_0 = -c, C_k = (1 - c^2) c^(k-1)
    for c in (0.3, 0.5, 0.9):
        taylor = theta_taylor(defect_data([[c]]), 10)
        assert taylor.coeffs[0][0, 0] == pytest.approx(-c, abs=1e-13)
        for k in range(1, 11):
            expect = (1 - c * c) * c ** (k - 1)
            assert taylor.coeffs[k][0, 0] == pytest.approx(expect, abs=1e-13)


def test_theta_eval_matches_taylor_series():
    rng = np.random.default_rng(3)
    P = random_strict_contraction(rng, 3, 0.6)
    K = 60
    dd = defect_data(P)
    taylor = theta_taylor(dd, K)
    z = 0.4 + 0.3j
    series = sum(taylor.coeffs[k] * z**k for k in range(K + 1))
    assert np.allclose(series, theta_eval(dd, z), atol=1e-10)


def test_theta_contractive_on_disk():
    rng = np.random.default_rng(4)
    P = random_strict_contraction(rng, 3, 0.9)
    dd = defect_data(P)
    for t in np.linspace(0, 2 * np.pi, 32, endpoint=False):
        assert opnorm(theta_eval(dd, np.exp(1j * t))) <= 1 + 1e-10


def test_boundary_defect_vanishes_for_matrices():
    rng = np.random.default_rng(5)
    P = random_strict_contraction(rng, 2, 0.8)
    assert opnorm(delta_eval(defect_data(P), 1.234)) < 1e-7


def test_boundary_samplers_stack_matches_point_by_point():
    rng = np.random.default_rng(6)
    dd = defect_data(random_strict_contraction(rng, 3, 0.9))
    ts = 2 * np.pi * rng.random(17)
    thetas = theta_eval(dd, np.exp(1j * ts))
    deltas = delta_eval(dd, ts)
    assert thetas.shape == (17, dd.rank_dPstar, dd.rank_dP)
    for t, th, de in zip(ts, thetas, deltas):
        assert np.allclose(th, theta_eval(dd, np.exp(1j * t)), rtol=0, atol=1e-14)
        assert np.allclose(de, delta_eval(dd, t), rtol=0, atol=1e-14)


def test_stacked_theta_eval_rejects_one_singular_resolvent():
    # I - z P* is singular at z = 1 / conj(0.5) = 2
    dd = defect_data(np.diag([0.5, 0.2]))
    with pytest.raises(ResolventSingular):
        theta_eval(dd, np.array([0.3, 2.0, 0.1j]))


def test_truncation_controls():
    P = np.diag([0.5, 0.1])
    assert spectral_radius(P) == pytest.approx(0.5)
    N = 32
    assert build_model_space(defect_data(P), N).trunc_error <= 0.5 ** (N + 1) + 1e-15


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.97, 0.123])
def test_truncation_message_names_the_n_the_gate_needs(rho):
    dd = defect_data(np.diag([rho, 0.1]))
    with pytest.raises(TruncationTooSmall) as err:
        build_model_space(dd, 2)
    need = int(re.search(r"needs N >= (\d+)", str(err.value)).group(1))
    assert rho ** (need + 1) <= 1e-8 < rho**need
    build_model_space(dd, need)
    with pytest.raises(TruncationTooSmall):
        build_model_space(dd, need - 1)


def test_model_space_dimension_equals_source():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        P = random_strict_contraction(rng, n, 0.8, rho_max=0.5)
        dd = defect_data(P)
        ms = build_model_space(dd, 32)
        assert ms.dim == n
        assert ms.cnu_margin == 1 - dd.spectral_radius
        assert ms.trunc_error <= 1e-6
        # the boundary defect that the model space leaves out vanishes (C_00)
        ts = 2 * np.pi * np.arange(DELTA_GRID) / DELTA_GRID
        assert np.max(opnorm(delta_eval(dd, ts))) <= 1e-7


def test_model_space_samples_no_boundary_defect(monkeypatch):
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("delta_eval", "theta_eval"):
        monkeypatch.setattr(defect, name, counted(name, getattr(defect, name)))
    P = random_strict_contraction(np.random.default_rng(7), 3, 0.8, rho_max=0.5)
    assert build_model_space(defect_data(P), 32).dim == 3
    assert calls == []


def test_accepted_model_space_takes_no_eigensolve_until_its_margin_is_read(monkeypatch):
    P = random_strict_contraction(np.random.default_rng(7), 3, 0.8, rho_max=0.5)
    dd, margin = defect_data(P), 1 - spectral_radius(P)
    count = _LinalgCounter(monkeypatch, ("eigvals",))
    ms = build_model_space(dd, 32)
    assert count.calls == {"eigvals": 0} and ms.defect is dd
    assert ms.cnu_margin == margin and ms.cnu_margin == margin  # the spectrum is taken once
    assert count.calls == {"eigvals": 1}


def test_model_space_rejects_insufficient_truncation():
    with pytest.raises(TruncationTooSmall):
        build_model_space(defect_data(np.diag([0.9, 0.1])), 8)


def test_pi_nf_identities():
    rng = np.random.default_rng(8)
    P = random_strict_contraction(rng, 3, 0.8, rho_max=0.5)
    N = 40
    Pi, _ = pi_nf_matrix(defect_data(P), N)
    assert np.allclose(adj(Pi) @ Pi, np.eye(3), atol=1e-8)
    from symbidisc.hardy import shift_op

    rs = Pi.shape[0] // (N + 1)
    Mz = shift_op(rs, N)
    assert opnorm(adj(Pi) @ Mz @ Pi - P) < 1e-8
    assert opnorm(adj(Mz) @ Pi - Pi @ adj(P)) < 1e-8


def _pi_nf_two_products(dd, N):
    """pi_nf_matrix as a stack of Q_dPstar* D_P* times the powers P*^k."""
    top = adj(dd.Q_dPstar) @ dd.D_Pstar
    blocks, power = [np.zeros((0, dd.P.shape[0]))], np.eye(dd.P.shape[0])
    for _ in range(N + 1):
        blocks.append(top @ power)
        power = power @ adj(dd.P)
    return np.vstack(blocks)


@pytest.mark.parametrize("N", [-1, 0, 1, 2, 3, 6, 7, 8, 14, 15, 16, 32])
def test_pi_nf_matrix_matches_the_two_product_loop(N):
    # the blocks of Pi, and the power P*^(N+1) that the truncation discards
    rng = np.random.default_rng(13)
    contractions = (
        random_strict_contraction(rng, 3, 0.8, rho_max=0.5),
        random_strict_contraction(rng, 15, 0.95, rho_max=0.9),
        np.diag(np.ones(5), -1),  # a shift: D_P* has rank 1
    )
    for P in contractions:
        dd = defect_data(P)
        (Pi, tail), ref = pi_nf_matrix(dd, N), _pi_nf_two_products(dd, N)
        assert Pi.shape == ref.shape == ((N + 1) * dd.rank_dPstar, P.shape[0])
        assert np.allclose(Pi, ref, rtol=0, atol=1e-14)
        assert np.allclose(tail, np.linalg.matrix_power(adj(P), N + 1), rtol=0, atol=1e-14)


def test_negative_truncations_are_rejected():
    dd = defect_data([[0.5]])
    with pytest.raises(TruncationTooSmall, match="got -1"):
        theta_taylor(dd, -1)
    for N in (-2, -5):
        with pytest.raises(TruncationTooSmall):
            pi_nf_matrix(dd, N)
        with pytest.raises(TruncationTooSmall):
            build_model_space(dd, N)
    assert len(theta_taylor(dd, 0).coeffs) == 1


def test_empty_model_space():
    ms = build_model_space(defect_data(np.zeros((0, 0))), 32)
    assert ms.dim == 0 and ms.basis.shape == (0, 0)
    assert ms.trunc_error == 0.0 and ms.cnu_margin == 1.0


class _LinalgCounter:
    """Counts calls of the np.linalg functions `names` (svd only with vectors)
    while patched in, and in `norms` the calls of svd without vectors."""

    def __init__(self, monkeypatch, names=("eigh", "svd", "pinv")):
        self.calls = dict.fromkeys(names, 0)
        self.norms = 0
        for name in self.calls:
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            vectors = kwargs.get("compute_uv", True)
            self.calls[name] += vectors
            self.norms += not vectors
            return fn(*args, **kwargs)

        return counted


def test_defect_data_takes_one_svd_and_reading_either_side_adds_none(monkeypatch):
    P = random_gamma_contraction(np.random.default_rng(10)).P
    count = _LinalgCounter(monkeypatch)
    dd = defect_data(P)
    assert count.calls == {"eigh": 0, "svd": 1, "pinv": 0}
    _ = dd.rank_dP, dd.D_P, dd.Q_dP, dd.root, dd.flushed_max
    _ = dd.D_Pstar, dd.Q_dPstar, dd.rank_dPstar
    _ = dd.adjoint().adjoint().D_Pstar, dd.adjoint().Q_dP  # the bases swap, nothing is rebuilt
    assert count.calls == {"eigh": 0, "svd": 1, "pinv": 0}


def test_model_space_takes_no_svd_with_vectors_and_no_matrix_power(monkeypatch):
    # the tail is read off the embedding's doubling, and its norm is the one SVD
    dd = defect_data(random_gamma_contraction(np.random.default_rng(10)).P)
    count = _LinalgCounter(monkeypatch, names=("svd", "matrix_power"))
    build_model_space(dd, 32)
    assert count.calls == {"svd": 0, "matrix_power": 0} and count.norms == 1


def test_classification_takes_one_svd_with_vectors(monkeypatch):
    # one SVD of P gives ||P||, the isometry residuals and the defect record;
    # the only other SVDs are the norms ||S|| and ||S - S*P||, without vectors
    rng = np.random.default_rng(11)
    pairs = {
        GAMMA_CONTRACTION: random_gamma_contraction(rng),
        GAMMA_UNITARY: gamma_unitary_synth(*random_commuting_unitaries(rng, 4)),
    }
    for kind, pair in pairs.items():
        count = _LinalgCounter(monkeypatch)
        rep = is_gamma_contraction(pair)
        assert rep.defect is not None and rep.kind == kind
        assert count.calls["svd"] == 1 and count.calls["pinv"] == 0
        assert count.norms <= 2


@pytest.mark.parametrize("read_star_first", [False, True])
def test_adjoint_hands_over_the_built_sides(read_star_first):
    rng = np.random.default_rng(12)
    for _ in range(5):
        P = random_gamma_contraction(rng).P
        dd = defect_data(P)
        if read_star_first:
            _ = dd.D_Pstar
        swapped = dd.adjoint()
        assert np.array_equal(swapped.P, adj(P))
        assert swapped.Q_dP is dd.Q_dPstar and swapped.Q_dPstar is dd.Q_dP
        assert swapped.root is dd.root and swapped.flushed_max == dd.flushed_max
        assert np.array_equal(swapped.D_P, dd.D_Pstar)
        assert np.array_equal(swapped.D_Pstar, dd.D_P)
        back = swapped.adjoint()
        for name in ("P", "D_P", "D_Pstar", "Q_dP", "Q_dPstar", "root", "flushed_max"):
            assert np.array_equal(getattr(back, name), getattr(dd, name)), name
        assert swapped.rank_dP == swapped.rank_dPstar == dd.rank_dP


def test_star_side_never_raises_once_p_is_accepted():
    # I - PP* and I - P*P share the singular values of P, so both sides
    # come from one flush of 1 - s^2 and have one rank
    for p in (1 - 1e-12, 1 - 1e-11, 1 + 1e-11):
        dd = defect_data(np.diag([p, 0.5]) @ random_unitary(np.random.default_rng(13), 2))
        assert dd.rank_dPstar == dd.rank_dP == 1


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([0.0, 1e-12, 1e-9, 0.3]))
def test_defect_side_identities(seed, n, gap):
    # D_P^2 = I - P*P up to the flush, Q_dP is orthonormal, and D_P times
    # D_P^+ on the range is the range projection Q_dP Q_dP*, up to the
    # rounding in D_P amplified by 1 / sigma_min(D_P)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0, 1, n)
    s[0] = 1 - gap
    P = random_unitary(rng, n) @ np.diag(s) @ random_unitary(rng, n)
    dd = defect_data(P)
    Q, root = dd.Q_dP, dd.root
    assert opnorm(dd.D_P @ dd.D_P - (np.eye(n) - adj(P) @ P)) <= dd.flushed_max + 1e-14
    assert np.allclose(adj(Q) @ Q, np.eye(dd.rank_dP), rtol=0, atol=1e-14)
    atol = 1e-14 / root.min(initial=1.0)
    assert np.allclose(dd.D_P @ (Q / root) @ adj(Q), Q @ adj(Q), rtol=0, atol=atol)


def _defect_reference(P):
    """(D_P, D_P*, rank of each, flushed_max) from one eigh each of I - P*P and
    I - PP*, each flushed at RANK_TOL * max(1, max|w|) (reference)."""
    sides = []
    for M in (np.eye(len(P)) - adj(P) @ P, np.eye(len(P)) - P @ adj(P)):
        w, V = np.linalg.eigh(0.5 * (M + adj(M)))
        small = w < RANK_TOL * max(1.0, np.max(np.abs(w), initial=0.0))
        D = (V * np.sqrt(np.where(small, 0.0, w))) @ adj(V)
        sides.append((0.5 * (D + adj(D)), int(np.sum(~small)), np.max(np.abs(w) * small, initial=0.0)))
    (D_P, rank, flushed), (D_Pstar, rank_star, _) = sides
    return D_P, D_Pstar, (rank, rank_star), flushed


def _reference_cases():
    rng = np.random.default_rng(24)
    shift = np.diag(np.ones(3), -1)
    return {
        "random": random_strict_contraction(rng, 6, 0.95),
        "nilpotent": random_gamma_contraction(rng).P,
        "shift": shift,
        "jordan": 0.5 * np.eye(4) + 0.5 * shift,
        "near_isometric": np.diag([1 - 1e-12, 0.5]) @ random_unitary(rng, 2),
        "unitary": random_unitary(rng, 5),
        "empty": np.zeros((0, 0)),
    }


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_defect_record_matches_the_two_eigh_reference(case):
    P = _reference_cases()[case]
    dd = defect_data(P)
    D_P, D_Pstar, ranks, flushed = _defect_reference(P)
    eye, eps = np.eye(len(P)), 1e-14 * max(1, len(P))
    assert ranks == (dd.rank_dP, dd.rank_dPstar)
    assert dd.flushed_max == pytest.approx(flushed, rel=1e-3, abs=eps)
    assert opnorm(P @ dd.D_P - dd.D_Pstar @ P) <= eps
    assert opnorm(dd.D_P @ dd.D_P - (eye - adj(P) @ P)) <= dd.flushed_max + eps
    assert opnorm(dd.D_Pstar @ dd.D_Pstar - (eye - P @ adj(P))) <= dd.flushed_max + eps
    assert opnorm(dd.D_P - D_P) <= 1e-13 and opnorm(dd.D_Pstar - D_Pstar) <= 1e-13
