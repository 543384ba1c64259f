"""Intertwining solver for shift-invariant subspaces.

Given a symbol operator A and a polynomial inner multiplier Theta, find B
with (A + A*z) Theta(z) = Theta(z) (B + B*z).  Matching coefficients of
z^k gives a real-linear system in (Re B, Im B) because B and its adjoint
are not independent complex unknowns.  The companion check tests directly
whether Theta's range is invariant under the truncated symbol operator,
applied by `hardy.blockwise`.  The inner residual and w(B) wait for a first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TruncationTooSmall
from .hardy import SymbolPoly, blockwise, build_mult_op
from .linalg import RANK_TOL, RESIDUAL_TOL, adj, as_matrix, opnorm, range_basis
from .numrad import numerical_radius

INNER_GRID = 128
INNER_WARN = 1e-8


@dataclass(frozen=True)
class BlhProblem:
    """A symbol and a multiplier; `inner_residual` is computed on first read."""

    A: np.ndarray
    theta: SymbolPoly

    @cached_property
    def inner_residual(self) -> float:  # max |eigenvalue| of Theta* Theta - I on the grid
        Th = self.theta.eval(np.exp(2j * np.pi * np.arange(INNER_GRID) / INNER_GRID))
        H = adj(Th) @ Th - np.eye(self.theta.dom_dim)
        return float(np.max(np.abs(np.linalg.eigvalsh(H)), initial=0.0))

    @property
    def is_inner(self) -> bool:
        return self.inner_residual <= INNER_WARN


def _symbol_on(A, theta: SymbolPoly) -> np.ndarray:
    """A as a matrix; ValueError unless it is square on the codomain of theta."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != theta.cod_dim:
        raise ValueError("A must be square on the codomain of theta")
    return A


def make_problem(A, theta: SymbolPoly) -> BlhProblem:
    """Bundle a symbol and multiplier after the shape check; how far Theta
    is from inner waits for the first read of `inner_residual`."""
    return BlhProblem(_symbol_on(A, theta), theta)


@dataclass(frozen=True)
class BlhSolution:
    B: np.ndarray
    residual: float
    kernel_dim: int

    @cached_property
    def wB(self) -> float:  # w(B), computed on first read
        return float(numerical_radius(self.B).value)


@dataclass(frozen=True)
class NoSolution:
    best_B: np.ndarray
    residual: float


def _coefficient_maps(theta: SymbolPoly):
    """The two sides of the equation as maps to their z^k coefficients,
    k = 0..deg+1: B -> Theta_k B + Theta_{k-1} B*, the coefficients of
    Theta (B + B*z), and A -> A Theta_k + A* Theta_{k-1}, those of
    (A + A*z) Theta.  Theta_k is zero outside the coefficient range.  A
    stack of matrices gives a stack of coefficient stacks.
    """
    C = np.array(theta.coeffs)
    zero = np.zeros_like(C[:1])
    Tk, Tk1 = np.concatenate([C, zero]), np.concatenate([zero, C])

    def theta_symbol(B):
        return Tk @ B[..., None, :, :] + Tk1 @ adj(B)[..., None, :, :]

    def symbol_theta(A):
        return A[..., None, :, :] @ Tk + adj(A)[..., None, :, :] @ Tk1

    return theta_symbol, symbol_theta


def _real_lstsq(f, n: int, rhs, rcond):
    """Least-squares n x n X with f(X) = rhs, for a real-linear f.

    X is not a complex unknown, because f may involve X*.  f is applied to
    the 2n^2 real directions E_ij and i E_ij as one stack; their images,
    split into real and imaginary parts, are the columns of a real system
    in (Re X, Im X).  Returns (X, rank of the real system).
    """
    E = np.eye(n * n).reshape(n * n, n, n)
    cols = f(np.concatenate([E, 1j * E])).reshape(2 * n * n, -1)
    r = np.ravel(rhs)
    sol, _, rank, _ = np.linalg.lstsq(
        np.hstack([cols.real, cols.imag]).T, np.concatenate([r.real, r.imag]), rcond=rcond
    )
    return (sol[: n * n] + 1j * sol[n * n :]).reshape(n, n), int(rank)


def blh_solve(prob: BlhProblem):
    """Solve the coefficient-matching system for B.

    Returns a BlhSolution on success or a NoSolution value carrying the
    least-squares candidate and its residual.  kernel_dim counts real
    parameters of the homogeneous solution space; 0 is expected for inner
    Theta.
    """
    A, theta = prob.A, prob.theta
    e = theta.dom_dim
    theta_symbol, symbol_theta = _coefficient_maps(theta)
    rhs = symbol_theta(A)
    B, rank = _real_lstsq(theta_symbol, e, rhs, RANK_TOL)
    kernel_dim = 2 * e * e - rank

    residual = float(np.max(opnorm(theta_symbol(B) - rhs)))
    if residual > RESIDUAL_TOL * max(1.0, opnorm(A)):
        return NoSolution(B, residual)
    return BlhSolution(B, residual, kernel_dim)


def mirror_solve(B, theta: SymbolPoly) -> np.ndarray:
    """The same equation solved for A: least-squares A with
    A Theta_k + A* Theta_{k-1} = Theta_k B + Theta_{k-1} B* for all k."""
    theta_symbol, symbol_theta = _coefficient_maps(theta)
    A, _ = _real_lstsq(symbol_theta, theta.cod_dim, theta_symbol(B), rcond=None)
    return A


def invariance_check(A, theta: SymbolPoly, N: int):
    """Is the range of Theta invariant under the truncated symbol operator?

    The range is sampled through domain degrees <= N - deg - 1; the image
    under A + A* M_z is compared against the range through domain degrees
    <= N - deg, so no truncation edge enters the residual.  A + A* M_z is
    applied block by block with `hardy.blockwise`, M_z moving the blocks down one degree.
    """
    A = _symbol_on(A, theta)
    d = theta.degree
    if N < d + 1:
        raise TruncationTooSmall(f"need N >= deg + 1 = {d + 1}")
    e = theta.dom_dim
    T_theta = build_mult_op(theta, N)
    dom_cols = (N - d) * e
    Q_small = range_basis(T_theta[:, :dom_cols])
    Q_big = range_basis(T_theta[:, : dom_cols + e])
    c = len(A)  # the block size: degree j of the image is A Q_j + A* Q_(j-1)
    img = blockwise(A, Q_small)
    img[c:] += blockwise(adj(A), Q_small[: len(Q_small) - c])
    residual = float(opnorm(img - Q_big @ (adj(Q_big) @ img)))
    return residual <= RESIDUAL_TOL * max(1.0, opnorm(A)), residual
