import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisc import defect
from symbidisc.classify import is_gamma_contraction
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
    truncation_tail,
)
from symbidisc.errors import NotAContraction, NotCnu, ResolventSingular, TruncationTooSmall
from symbidisc.generate import random_gamma_contraction, random_strict_contraction, random_unitary
from symbidisc.linalg import adj, opnorm


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


def test_cnu_check_rejects_unimodular_spectrum():
    with pytest.raises(NotCnu):
        cnu_check(defect_data(np.diag([1.0, 0.3])))


@pytest.mark.parametrize("K", [0, 3])
def test_theta_taylor_rejects_unimodular_spectrum(K):
    with pytest.raises(NotCnu):
        theta_taylor(defect_data(np.diag([1.0, 0.3])), K)


def test_adjoint_record_equals_defect_data_of_adjoint():
    rng = np.random.default_rng(9)
    for _ in range(5):
        P = random_gamma_contraction(rng).P
        swapped = defect_data(P).adjoint()
        direct = defect_data(adj(P))
        for name in ("P", "D_P", "D_Pstar", "Q_dP", "Q_dPstar"):
            assert np.array_equal(getattr(swapped, name), getattr(direct, name)), name


def test_scalar_moebius_coefficients():
    # Theta for P = c is the Moebius map: C_0 = -c, C_k = (1 - c^2) c^(k-1)
    for c in (0.3, 0.5, 0.9):
        cf = theta_taylor(defect_data([[c]]), 10)
        assert cf.taylor.coeffs[0][0, 0] == pytest.approx(-c, abs=1e-13)
        for k in range(1, 11):
            expect = (1 - c * c) * c ** (k - 1)
            assert cf.taylor.coeffs[k][0, 0] == pytest.approx(expect, abs=1e-13)


def test_theta_eval_matches_taylor_series():
    rng = np.random.default_rng(3)
    P = random_strict_contraction(rng, 3, 0.6)
    K = 60
    cf = theta_taylor(defect_data(P), K)
    z = 0.4 + 0.3j
    series = sum(cf.taylor.coeffs[k] * z**k for k in range(K + 1))
    assert np.allclose(series, theta_eval(cf, z), atol=1e-10)


def test_theta_contractive_on_disk():
    rng = np.random.default_rng(4)
    P = random_strict_contraction(rng, 3, 0.9)
    cf = theta_taylor(defect_data(P), 0)
    for t in np.linspace(0, 2 * np.pi, 32, endpoint=False):
        assert opnorm(theta_eval(cf, np.exp(1j * t))) <= 1 + 1e-10


def test_boundary_defect_vanishes_for_matrices():
    rng = np.random.default_rng(5)
    P = random_strict_contraction(rng, 2, 0.8)
    cf = theta_taylor(defect_data(P), 0)
    assert opnorm(delta_eval(cf, 1.234)) < 1e-7


def test_boundary_samplers_stack_matches_point_by_point():
    rng = np.random.default_rng(6)
    cf = theta_taylor(defect_data(random_strict_contraction(rng, 3, 0.9)), 0)
    ts = 2 * np.pi * rng.random(17)
    thetas = theta_eval(cf, np.exp(1j * ts))
    deltas = delta_eval(cf, ts)
    assert thetas.shape == (17, cf.defect.rank_dPstar, cf.defect.rank_dP)
    for t, th, de in zip(ts, thetas, deltas):
        assert np.allclose(th, theta_eval(cf, np.exp(1j * t)), rtol=0, atol=1e-14)
        assert np.allclose(de, delta_eval(cf, t), rtol=0, atol=1e-14)


def test_stacked_theta_eval_rejects_one_singular_resolvent():
    # I - z P* is singular at z = 1 / conj(0.5) = 2
    cf = theta_taylor(defect_data(np.diag([0.5, 0.2])), 0)
    with pytest.raises(ResolventSingular):
        theta_eval(cf, np.array([0.3, 2.0, 0.1j]))


def test_truncation_controls():
    P = np.diag([0.5, 0.1])
    assert spectral_radius(P) == pytest.approx(0.5)
    N = 32
    assert truncation_tail(P, N) <= 0.5 ** (N + 1) + 1e-15


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
        assert np.max(opnorm(delta_eval(theta_taylor(dd, 0), ts))) <= 1e-7


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


def test_model_space_rejects_insufficient_truncation():
    with pytest.raises(TruncationTooSmall):
        build_model_space(defect_data(np.diag([0.9, 0.1])), 8)


def test_pi_nf_identities():
    rng = np.random.default_rng(8)
    P = random_strict_contraction(rng, 3, 0.8, rho_max=0.5)
    N = 40
    Pi = pi_nf_matrix(defect_data(P), N)
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


@pytest.mark.parametrize("N", [-1, 0, 1, 32])
def test_pi_nf_matrix_matches_the_two_product_loop(N):
    rng = np.random.default_rng(13)
    contractions = (
        random_strict_contraction(rng, 3, 0.8, rho_max=0.5),
        random_strict_contraction(rng, 15, 0.95, rho_max=0.9),
        np.diag(np.ones(5), -1),  # a shift: D_P* has rank 1
    )
    for P in contractions:
        dd = defect_data(P)
        Pi, ref = pi_nf_matrix(dd, N), _pi_nf_two_products(dd, N)
        assert Pi.shape == ref.shape == ((N + 1) * dd.rank_dPstar, P.shape[0])
        assert np.allclose(Pi, ref, rtol=0, atol=1e-14)


class _LinalgCounter:
    """Counts calls of np.linalg eigh, svd and pinv while patched in."""

    def __init__(self, monkeypatch):
        self.calls = {"eigh": 0, "svd": 0, "pinv": 0}
        for name in self.calls:
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


def test_defect_data_takes_one_eigh_and_builds_the_star_side_on_first_read(monkeypatch):
    P = random_gamma_contraction(np.random.default_rng(10)).P
    count = _LinalgCounter(monkeypatch)
    dd = defect_data(P)
    assert count.calls == {"eigh": 1, "svd": 0, "pinv": 0}
    _ = dd.rank_dP, dd.D_P, dd.Q_dP, dd.flushed_max
    assert count.calls["eigh"] == 1
    _ = dd.D_Pstar, dd.Q_dPstar, dd.rank_dPstar
    assert count.calls == {"eigh": 2, "svd": 0, "pinv": 0}
    _ = dd.adjoint().adjoint().D_Pstar  # both sides are handed over, not rebuilt
    assert count.calls["eigh"] == 2


def test_classification_never_builds_the_star_side(monkeypatch):
    pair = random_gamma_contraction(np.random.default_rng(11))
    count = _LinalgCounter(monkeypatch)
    rep = is_gamma_contraction(pair)
    assert "_star" not in vars(rep.defect)
    assert count.calls["pinv"] == 0


@pytest.mark.parametrize("read_star_first", [False, True])
def test_adjoint_hands_over_the_built_sides(read_star_first):
    rng = np.random.default_rng(12)
    for _ in range(5):
        P = random_gamma_contraction(rng).P
        dd = defect_data(P)
        if read_star_first:
            _ = dd.D_Pstar
        swapped, direct = dd.adjoint(), defect_data(adj(P))
        for name in ("P", "D_P", "D_Pstar", "Q_dP", "Q_dPstar", "flushed_max"):
            assert np.array_equal(getattr(swapped, name), getattr(direct, name)), name
        assert swapped.rank_dP == swapped.rank_dPstar == dd.rank_dP


def test_star_side_never_raises_once_p_is_accepted():
    # I - PP* and I - P*P have the same spectrum; the star side is cut to
    # rank_dP, so rounding on its eigenvalues cannot make it indefinite
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
    Q, root = dd.Q_dP, dd.root_dP
    assert opnorm(dd.D_P @ dd.D_P - (np.eye(n) - adj(P) @ P)) <= dd.flushed_max + 1e-14
    assert np.allclose(adj(Q) @ Q, np.eye(dd.rank_dP), rtol=0, atol=1e-14)
    atol = 1e-14 / root.min(initial=1.0)
    assert np.allclose(dd.D_P @ (Q / root) @ adj(Q), Q @ adj(Q), rtol=0, atol=atol)
