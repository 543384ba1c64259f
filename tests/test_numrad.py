import numpy as np
import pytest

from symbidisc import numrad
from symbidisc.linalg import DEFAULT_TOL, adj, opnorm
from symbidisc.numrad import numerical_radius

EPS = np.finfo(float).eps


def _dense_max(A, angles=20_000, chunk=1000):
    """Max of the top eigenvalue of Re(e^{i theta} A) over a uniform grid, stacked."""
    thetas = 2 * np.pi * np.arange(angles) / angles
    best = -np.inf
    for start in range(0, angles, chunk):
        z = np.exp(1j * thetas[start:start + chunk])[:, None, None]
        H = 0.5 * (z * A + np.conj(z) * adj(A))
        best = max(best, float(np.max(np.linalg.eigvalsh(H)[:, -1])))
    return best


def _normal(rng, eigs):
    n = len(eigs)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (Q * np.asarray(eigs)) @ adj(Q)


def _random(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), None


def _knife_edge(delta, seed):
    # normal, with one eigenvalue of modulus 1 + delta and the rest on the
    # circle: w is the largest eigenvalue modulus
    rng = np.random.default_rng(seed)
    eigs = np.exp(2j * np.pi * rng.random(4))
    eigs[0] *= 1 + delta
    return _normal(rng, eigs), max(1.0, 1 + delta)


def _hermitian():
    B, _ = _random(4, 12)
    H = B + adj(B)
    return H, float(np.max(np.abs(np.linalg.eigvalsh(H))))


# name -> (A, known w or None)
BOUND_CASES = {
    **{f"random-{n}-{seed}": _random(n, seed) for n in (2, 3, 8, 20) for seed in (0, 1)},
    # w(J_n) = cos(pi / (n + 1))
    **{f"jordan-{n}": (np.diag(np.ones(n - 1), 1), np.cos(np.pi / (n + 1))) for n in range(2, 6)},
    # numerical range is the unit disk, so f is flat
    "disk": (np.array([[0.0, 2.0], [0.0, 0.0]]), 1.0),
    "hermitian": _hermitian(),
    # maximum at theta = pi
    "minus-identity": (-np.eye(3), 1.0),
    "scalar-identity": ((0.3 + 0.4j) * np.eye(3), 0.5),
    "zero": (np.zeros((3, 3)), 0.0),
    # singular, so s = 1 (z = infinity) is a root of the Cayley-mapped
    # quadratic; the zero column makes the computed root exactly 1.  For
    # [[a, b], [0, c]] with a, c >= 0, w = (a + c + sqrt((a - c)^2 + |b|^2)) / 2
    "zero-row": (np.array([[0.5, 1.0], [0.0, 0.0]]), (0.5 + np.sqrt(1.25)) / 2),
    "zero-column": (np.array([[0.0, 1.0], [0.0, 1.0]]), (1 + np.sqrt(2)) / 2),
    "knife-outside": _knife_edge(1e-6, 13),
    "knife-inside": _knife_edge(-1e-6, 14),
    # ROADMAP counterexample: the peak sits between the angles of a uniform grid
    "off-grid-peak": (np.diag([1.0, 1.000005 * np.exp(1j * (np.pi / 2 + np.pi / 720))]), 1.000005),
}


@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_two_sided_bounds(name):
    A, known = BOUND_CASES[name]
    A = np.asarray(A, dtype=complex)
    res = numerical_radius(A)
    w = known if known is not None else res.value
    rounding = 8 * EPS * max(1.0, opnorm(A))
    assert res.value <= res.upper
    assert res.upper - res.value <= DEFAULT_TOL.convergence_tol * max(1.0, w) + rounding
    assert res.upper >= _dense_max(A)
    if known is not None:
        assert res.value - rounding <= known <= res.upper


def test_level_set_cap_falls_back_to_the_norm(monkeypatch):
    # with no level-set step allowed, the upper bound is ||A|| >= w(A)
    monkeypatch.setattr(numrad, "MAX_LEVEL_SETS", 0)
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    res = numerical_radius(A)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.upper == pytest.approx(2.0, abs=1e-12)


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
