import numpy as np
import pytest

from symbidisc.gamma_point import (
    GammaPoint,
    beta_solve,
    boundary_grid,
    in_gamma,
    symmetrize,
)


def test_known_points():
    assert in_gamma(GammaPoint(2, 1))  # roots 1, 1
    assert in_gamma(GammaPoint(0, 0))
    assert in_gamma(GammaPoint(1.5, 0.5))  # roots 1, 0.5
    assert in_gamma(GammaPoint(0, -0.9))
    assert not in_gamma(GammaPoint(2.2, 1))
    assert not in_gamma(GammaPoint(3, 1))
    assert not in_gamma(GammaPoint(0, 1.5))


def test_symmetrize_round_trip_agrees_with_bidisc():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        z = 1.5 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
        pt = symmetrize(z[0], z[1])
        assert in_gamma(pt) == (abs(z[0]) <= 1 and abs(z[1]) <= 1)


def test_beta_solve_examples():
    sol = beta_solve(GammaPoint(2, 1))
    assert sol.exact
    assert sol.beta == pytest.approx(1.0, abs=1e-12)

    sol = beta_solve(GammaPoint(1.2, 0.5))
    assert sol.exact
    assert sol.beta == pytest.approx(0.8, abs=1e-12)


def test_beta_solve_matches_membership_inside():
    rng = np.random.default_rng(1)
    for _ in range(500):
        z = np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
        pt = symmetrize(1.4 * z[0], z[1] * 0.95)
        if abs(pt.p) > 1 - 1e-6:
            continue
        sol = beta_solve(pt)
        member = sol.exact and abs(sol.beta) <= 1 + 1e-9
        assert member == in_gamma(pt)


def test_boundary_sample_lies_on_distinguished_boundary():
    # the distinguished boundary is |p| = 1, s = conj(s) p, |s| <= 2
    s, p = boundary_grid(7)
    assert len(s) == len(p) == 49
    assert np.all(np.abs(np.abs(p) - 1) < 1e-12)
    assert np.all(np.abs(s - s.conj() * p) < 1e-12)
    assert np.all(np.abs(s) <= 2 + 1e-12)
    assert all(in_gamma(GammaPoint(a, b)) for a, b in zip(s, p))


def test_double_roots_on_the_torus_are_members():
    # s^2 - 4p rounds to about 1e-16 at z1 = z2; its square root must not
    # push the roots off the circle by ~1e-8
    s, p = boundary_grid(64)
    diag = np.arange(64) * 65
    assert all(in_gamma(GammaPoint(s[i], p[i])) for i in diag)
    z = (1 + 3e-9) * np.exp(0.3j)
    assert not in_gamma(GammaPoint(2 * z, z * z))


def test_boundary_grid_matches_sample():
    # point j * n + k symmetrizes the torus point (z_j, z_k)
    s, p = boundary_grid(5)
    z = np.exp(2j * np.pi * np.arange(5) / 5)
    pts = [symmetrize(z1, z2) for z1 in z for z2 in z]
    assert np.allclose(s, [q.s for q in pts])
    assert np.allclose(p, [q.p for q in pts])
