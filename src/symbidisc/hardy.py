"""Truncated vector-valued Hardy space machinery.

Operators on polynomials of degree 0..N with values in C^b are stored as
block matrices in the degree-major basis (degree first, coordinate within
block second).  Multiplication by an analytic matrix polynomial becomes a
lower-block-triangular block-Toeplitz matrix; identities that hold on the
infinite space survive truncation on an interior degree window.  A constant
symbol acts on each degree block alone (`blockwise`) and M_z moves the blocks
down by one, so M_{A + A*z} Q is blockwise(A, Q) plus blockwise(A*, Q) one block lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, TruncationTooSmall
from .linalg import adj, as_matrix, check_budget
from .pair import OperatorPair, degree_mask, make_pair


@dataclass(frozen=True)
class SymbolPoly:
    """Matrix polynomial sum_k C_k z^k given by its coefficient list."""

    coeffs: tuple

    def __init__(self, coeffs: Sequence):
        mats = tuple(as_matrix(c) for c in coeffs)
        if not mats:
            raise ValueError("at least one coefficient required")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise DimensionMismatch("all coefficients must share dimensions")
        object.__setattr__(self, "coeffs", mats)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def cod_dim(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def dom_dim(self) -> int:
        return self.coeffs[0].shape[1]

    def eval(self, z) -> np.ndarray:
        """Value at z by Horner's rule; an array of points gives a stack of values."""
        z = np.asarray(z)[..., None, None]
        out = np.zeros(z.shape[:-2] + self.coeffs[0].shape, dtype=complex)
        for c in reversed(self.coeffs):
            out = out * z + c
        return out


def symbol_a_plus_astar_z(A) -> SymbolPoly:
    """The degree-one symbol A + A* z of a pure model pair."""
    A = as_matrix(A)
    return SymbolPoly([A, adj(A)])


def build_mult_op(phi: SymbolPoly, N: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Block-Toeplitz multiplication operator for an analytic symbol.

    Acts on degrees 0..N with the coefficient C_k on the k-th block
    subdiagonal; truncated identities are exact up to degree N - deg(phi).
    ProblemTooLarge before the matrix is allocated when it is over budget.
    Given `out`, a zero array of that shape or a view of one, it is filled instead.
    """
    d = phi.degree
    if N < d:
        raise TruncationTooSmall(f"need N >= deg(phi) = {d}, got {N}")
    b_r, b_c = phi.cod_dim, phi.dom_dim
    if out is None:
        check_budget("multiplication operator", (N + 1) * b_r, (N + 1) * b_c)
        out = np.zeros(((N + 1) * b_r, (N + 1) * b_c), dtype=complex)
    blocks = out.reshape(N + 1, b_r, N + 1, b_c)  # a view: blocks[i, :, j] is block (i, j)
    for k, C in enumerate(phi.coeffs):
        j = np.arange(N + 1 - k)
        blocks[j + k, :, j] = C
    return out


def shift_op(block_size: int, N: int) -> np.ndarray:
    """Truncated multiplication by z on H^2 tensor C^block_size."""
    zero = np.zeros((block_size, block_size))
    eye = np.eye(block_size)
    return build_mult_op(SymbolPoly([zero, eye]), N)


def gamma_isometry_model(A, N: int) -> OperatorPair:
    """Truncated pure model pair (M_{A + A*z}, M_z) on degrees 0..N."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("symbol must be square")
    if N < 1:
        raise TruncationTooSmall("need N >= 1")
    b = A.shape[0]
    S = build_mult_op(symbol_a_plus_astar_z(A), N)
    P = shift_op(b, N)
    return make_pair(S, P, window=degree_mask(S.shape[0], b, N - 1))


def compress(op, basis) -> np.ndarray:
    """Compression Q* op Q onto the span of orthonormal columns Q."""
    M = as_matrix(op)
    Q = as_matrix(basis)
    if M.shape[1] != Q.shape[0]:
        raise DimensionMismatch(
            f"operator dimension {M.shape[1]} does not match basis rows {Q.shape[0]}"
        )
    return adj(Q) @ M @ Q


def blockwise(C: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(I tensor C) Q on degree-major rows: C times each degree block of Q, in one batched
    product.  ValueError unless Q's rows are whole blocks of C's width (none for width 0)."""
    (rows, m), (b_r, b) = Q.shape, C.shape
    blocks = rows // b if b else 0
    if blocks * b != rows:
        raise ValueError(f"{rows} rows are not whole blocks of {b}")
    return (C @ Q.reshape(blocks, b, m)).reshape(blocks * b_r, m)
