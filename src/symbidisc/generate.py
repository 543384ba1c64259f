"""Seeded random generators for test inputs.

The workhorse is random_gamma_contraction: compress a truncated pure model
pair to the closure of a random seed vector under the adjoints of both
operators.  That closure is co-invariant by construction, so the
compression satisfies the defining identities to machine precision and its
second component is nilpotent (hence completely non-unitary).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .defect import spectral_radius
from .hardy import SymbolPoly, gamma_isometry_model
from .linalg import DEFAULT_TOL, Tolerance, adj, as_matrix, opnorm, range_basis
from .numrad import numerical_radius
from .pair import OperatorPair, make_pair


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with positive diagonal phases."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_commuting_unitaries(rng: np.random.Generator, n: int):
    """Two commuting unitaries: random phases in a shared eigenbasis."""
    U = random_unitary(rng, n)
    d1 = np.exp(2j * np.pi * rng.random(n))
    d2 = np.exp(2j * np.pi * rng.random(n))
    return U @ np.diag(d1) @ adj(U), U @ np.diag(d2) @ adj(U)


def random_symbol(rng: np.random.Generator, n: int, wr_max: float = 1.0) -> np.ndarray:
    """Random matrix rescaled so its numerical radius lands in (0, wr_max].

    The rescaling divides by the certified upper bound on w(A), so the
    bound wr_max is proven, not estimated.
    """
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = numerical_radius(A).upper
    target = wr_max * (0.4 + 0.6 * rng.random())
    return A * (target / w)


def random_strict_contraction(
    rng: np.random.Generator,
    n: int,
    norm_max: float = 0.9,
    rho_max: Optional[float] = None,
    max_tries: int = 200,
) -> np.ndarray:
    """Random contraction with ||P|| <= norm_max, optionally capping rho(P)."""
    for _ in range(max_tries):
        P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        P *= norm_max * (0.4 + 0.6 * rng.random()) / opnorm(P)
        if rho_max is None or spectral_radius(P) <= rho_max:
            return P
    raise RuntimeError("could not hit the requested spectral radius cap")


def coinvariant_closure(S, P, seeds, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the smallest S*,P*-invariant span of the seeds."""
    S, P = as_matrix(S), as_matrix(P)
    B = range_basis(np.atleast_2d(np.asarray(seeds, dtype=complex).T
                                  if np.ndim(seeds) == 1 else as_matrix(seeds)), tol)
    for _ in range(S.shape[0] + 1):
        grown = range_basis(np.hstack([B, adj(S) @ B, adj(P) @ B]), tol)
        if grown.shape[1] == B.shape[1]:
            return B
        B = grown
    return B


def random_gamma_contraction(
    rng: np.random.Generator,
    block_max: int = 3,
    degree_max: int = 3,
    tol: Tolerance = DEFAULT_TOL,
) -> OperatorPair:
    """Random pair satisfying the defining identities to machine precision."""
    b = int(rng.integers(1, block_max + 1))
    d = int(rng.integers(1, degree_max + 1))
    A = random_symbol(rng, b)
    model = gamma_isometry_model(A, d + 1)
    dim = model.dim
    n_seeds = int(rng.integers(1, 3))
    seeds = rng.standard_normal((dim, n_seeds)) + 1j * rng.standard_normal((dim, n_seeds))
    # weight low degrees so the closure is often a proper subspace
    w = np.repeat(np.exp(-np.arange(d + 2, dtype=float)), b)
    Q = coinvariant_closure(model.S, model.P, seeds * w[:, None], tol)
    S_c = adj(Q) @ model.S @ Q
    P_c = adj(Q) @ model.P @ Q
    U = random_unitary(rng, Q.shape[1])
    return make_pair(U @ S_c @ adj(U), U @ P_c @ adj(U))


def random_inner_poly(rng: np.random.Generator, e: int, degree: int) -> SymbolPoly:
    """Random inner matrix polynomial: product of degree-one Blaschke-type
    factors U (Pi + z (I - Pi)) with unitary U and an orthogonal projection
    Pi, which is unitary-valued on the circle."""
    coeffs = [np.eye(e, dtype=complex)]
    for _ in range(degree):
        U = random_unitary(rng, e)
        k = int(rng.integers(0, e))
        V = random_unitary(rng, e)
        Pi = V[:, :k] @ adj(V[:, :k])
        f0 = U @ Pi
        f1 = U @ (np.eye(e) - Pi)
        nxt = [np.zeros((e, e), dtype=complex) for _ in range(len(coeffs) + 1)]
        for j, c in enumerate(coeffs):
            nxt[j] += f0 @ c
            nxt[j + 1] += f1 @ c
        coeffs = nxt
    while len(coeffs) > 1 and opnorm(coeffs[-1]) < 1e-14:
        coeffs.pop()
    return SymbolPoly(coeffs)
