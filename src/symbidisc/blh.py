"""Intertwining solver for shift-invariant subspaces.

Given a symbol operator A and a polynomial inner multiplier Theta, find B
with (A + A*z) Theta(z) = Theta(z) (B + B*z).  Matching coefficients of
z^k gives a real-linear system in (Re B, Im B) because B and its adjoint
are not independent complex unknowns.  The companion check tests directly
whether Theta's range is invariant under the truncated symbol operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooSmall
from .hardy import SymbolPoly, build_mult_op, symbol_a_plus_astar_z
from .linalg import DEFAULT_TOL, Tolerance, adj, as_matrix, opnorm, range_basis
from .numrad import numerical_radius

INNER_GRID = 128
INNER_WARN = 1e-8


@dataclass(frozen=True)
class BlhProblem:
    A: np.ndarray
    theta: SymbolPoly
    inner_residual: float

    @property
    def is_inner(self) -> bool:
        return self.inner_residual <= INNER_WARN


def make_problem(A, theta: SymbolPoly) -> BlhProblem:
    """Bundle a symbol and multiplier; records how far Theta is from inner.

    The inner residual is max ||Theta* Theta - I|| over INNER_GRID boundary
    points, evaluated as one stack.
    """
    A = as_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != theta.cod_dim:
        raise ValueError("A must be square on the codomain of theta")
    Th = theta.eval(np.exp(2j * np.pi * np.arange(INNER_GRID) / INNER_GRID))
    worst = np.max(opnorm(adj(Th) @ Th - np.eye(theta.dom_dim)))
    return BlhProblem(A, theta, float(worst))


@dataclass(frozen=True)
class BlhSolution:
    B: np.ndarray
    residual: float
    kernel_dim: int
    wB: float


@dataclass(frozen=True)
class NoSolution:
    best_B: np.ndarray
    residual: float


def _coefficient_pairs(theta: SymbolPoly):
    """(Theta_k, Theta_{k-1}) for k = 0..deg+1, zero outside the coefficient range."""
    d = theta.degree
    coeffs = list(theta.coeffs)
    zero = np.zeros_like(coeffs[0])
    return [
        (coeffs[k] if k <= d else zero, coeffs[k - 1] if k >= 1 else zero)
        for k in range(d + 2)
    ]


def _conjugate_linear_lstsq(n: int, lin, anti, rhs, rcond):
    """Least-squares n x n X with lin_k vec(X) + anti_k vec(X*) = rhs_k for all k.

    vec is column-major.  vec(X*) is vec(conj X) with its entries permuted
    by the transpose, so permuting the columns of the anti blocks the same
    way gives M1 v + M2 conj(v) = r, solved as a real system in (Re v, Im v).
    Returns (X, rank of the real system).
    """
    M1 = np.vstack(lin)
    M2 = np.vstack(anti)[:, np.arange(n * n).reshape(n, n).T.ravel()]
    r = np.concatenate(rhs)
    top = np.hstack([(M1 + M2).real, -(M1 - M2).imag])
    bot = np.hstack([(M1 + M2).imag, (M1 - M2).real])
    sol, _, rank, _ = np.linalg.lstsq(
        np.vstack([top, bot]), np.concatenate([r.real, r.imag]), rcond=rcond
    )
    return (sol[: n * n] + 1j * sol[n * n :]).reshape((n, n), order="F"), int(rank)


def _coefficient_residual(A, theta: SymbolPoly, B) -> float:
    return max(
        opnorm(A @ Tk + adj(A) @ Tk1 - Tk @ B - Tk1 @ adj(B))
        for Tk, Tk1 in _coefficient_pairs(theta)
    )


def blh_solve(prob: BlhProblem, tol: Tolerance = DEFAULT_TOL):
    """Solve the coefficient-matching system for B.

    Returns a BlhSolution on success or a NoSolution value carrying the
    least-squares candidate and its residual.  kernel_dim counts real
    parameters of the homogeneous solution space; 0 is expected for inner
    Theta.
    """
    A, theta = prob.A, prob.theta
    e = theta.dom_dim
    eye_e = np.eye(e)
    lin, anti, rhs = [], [], []
    for Tk, Tk1 in _coefficient_pairs(theta):
        lin.append(np.kron(eye_e, Tk))
        anti.append(np.kron(eye_e, Tk1))
        rhs.append((A @ Tk + adj(A) @ Tk1).reshape(-1, order="F"))
    B, rank = _conjugate_linear_lstsq(e, lin, anti, rhs, tol.rank_tol)
    kernel_dim = 2 * e * e - rank

    residual = _coefficient_residual(A, theta, B)
    if residual > tol.residual_tol * max(1.0, opnorm(A)):
        return NoSolution(B, float(residual))
    wB = numerical_radius(B, tol).value
    return BlhSolution(B, float(residual), kernel_dim, float(wB))


def mirror_solve(B, theta: SymbolPoly) -> np.ndarray:
    """The same equation solved for A: least-squares A with
    A Theta_k + A* Theta_{k-1} = Theta_k B + Theta_{k-1} B* for all k."""
    eye = np.eye(theta.cod_dim)
    lin, anti, rhs = [], [], []
    for Tk, Tk1 in _coefficient_pairs(theta):
        lin.append(np.kron(Tk.T, eye))
        anti.append(np.kron(Tk1.T, eye))
        rhs.append((Tk @ B + Tk1 @ adj(B)).reshape(-1, order="F"))
    A, _ = _conjugate_linear_lstsq(theta.cod_dim, lin, anti, rhs, rcond=None)
    return A


def invariance_check(A, theta: SymbolPoly, N: int, tol: Tolerance = DEFAULT_TOL):
    """Is the range of Theta invariant under the truncated symbol operator?

    The range is sampled through domain degrees <= N - deg - 1; the image
    under A + A* M_z is compared against the range through domain degrees
    <= N - deg, so no truncation edge enters the residual.
    """
    A = as_matrix(A)
    d = theta.degree
    if N < d + 1:
        raise TruncationTooSmall(f"need N >= deg + 1 = {d + 1}")
    e = theta.dom_dim
    T_theta = build_mult_op(theta, N)
    dom_cols = (N - d) * e
    Q_small = range_basis(T_theta[:, :dom_cols], tol)
    Q_big = range_basis(T_theta[:, : dom_cols + e], tol)
    T = build_mult_op(symbol_a_plus_astar_z(A), N)
    img = T @ Q_small
    residual = float(opnorm(img - Q_big @ (adj(Q_big) @ img)))
    return residual <= tol.residual_tol * max(1.0, opnorm(A)), residual
