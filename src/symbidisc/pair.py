"""Commuting operator pair carrier."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import as_matrix, opnorm


def restrict(M: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Restrict a matrix to the rows and columns selected by a boolean mask."""
    if mask is None:
        return M
    return M[np.ix_(mask, mask)]


@dataclass(frozen=True)
class OperatorPair:
    """A commuting pair (S, P) with the Frobenius norm of its commutator.

    `svd_P` = np.linalg.svd(P) as (U, s, Vh), `norm_S` = ||S|| and the
    spectral `commutator_norm` = ||SP - PS|| are taken on first read and
    kept: every check on the pair reads the first two, so P is factored
    once.  `commutator_fro` >= `commutator_norm` is taken with the pair and
    takes no SVD, so the commutator gate reads the exact norm only when
    the Frobenius norm exceeds RESIDUAL_TOL.

    For pairs living on a truncated Hardy space, `window` is the boolean
    coordinate mask of the degrees on which operator identities are exact
    (see `degree_mask`).  Plain matrix pairs leave it unset.
    """

    S: np.ndarray
    P: np.ndarray
    commutator_fro: float
    window: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    @cached_property
    def svd_P(self):
        return np.linalg.svd(self.P)

    @cached_property
    def norm_S(self) -> float:
        return opnorm(self.S)

    @cached_property
    def commutator_norm(self) -> float:
        return opnorm(restrict(self.S @ self.P - self.P @ self.S, self.window))


def degree_mask(dim: int, block_size: int, degree_hi: int) -> np.ndarray:
    """Boolean mask keeping coordinates of degree <= degree_hi."""
    degs = np.arange(dim) // block_size
    return degs <= degree_hi


def make_pair(S, P, window: Optional[np.ndarray] = None) -> OperatorPair:
    S, P = as_matrix(S), as_matrix(P)
    if S.shape != P.shape or S.shape[0] != S.shape[1]:
        raise ValueError("S and P must be square matrices of the same size")
    comm = restrict(S @ P - P @ S, window)
    return OperatorPair(S, P, float(np.linalg.norm(comm)), window)
