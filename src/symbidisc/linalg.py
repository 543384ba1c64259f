"""Dense complex linear-algebra substrate.

The rank flush of PSD spectra, PSD square roots, orthonormal range bases
and minimal-norm sandwiched least-squares solves.  Everything downstream
(defect operators, model spaces, dilations) goes through these primitives
so the rank/phase conventions are fixed in one place.
"""

from __future__ import annotations

import numpy as np

from .errors import IndefiniteInput, NonFiniteInput, NotHermitian, ProblemTooLarge

GRAM_BUDGET_BYTES = 2**28  # the largest dense complex array a routine may allocate
# The rank cut, relative to the largest singular value or eigenvalue, and the
# residual bound, absolute up to a max(1, scale) factor: every identity is checked at one of them.
RANK_TOL = 1e-10
RESIDUAL_TOL = 1e-8


def check_budget(what: str, rows: int, cols: int) -> None:
    """ProblemTooLarge when a rows x cols complex array exceeds GRAM_BUDGET_BYTES."""
    if 16 * rows * cols > GRAM_BUDGET_BYTES:
        raise ProblemTooLarge(f"{what} of {rows} x {cols} exceeds {GRAM_BUDGET_BYTES} bytes")


def as_matrix(M) -> np.ndarray:
    """Coerce input to a 2-d complex ndarray; non-finite entries raise NonFiniteInput."""
    A = np.atleast_2d(np.asarray(M, dtype=complex))
    if not np.all(np.isfinite(A)):
        raise NonFiniteInput("matrix has non-finite entries")
    return A


def opnorm(M):
    """Spectral (operator) norm; 0 for empty matrices.

    A stack (..., m, n) gives an array with one norm per matrix.
    """
    M = np.atleast_2d(np.asarray(M))
    norms = np.linalg.svd(M, compute_uv=False)[..., 0] if M.size else np.zeros(M.shape[:-2])
    return float(norms) if M.ndim == 2 else norms


def screened_opnorm(M, bound):
    """||M||_F where that is at most bound, else the spectral norm: one per matrix of a stack.

    As ||M||_2 <= ||M||_F, the result bounds ||M||_2 above, is exact above
    bound, and is at most bound exactly when ||M||_2 is; only matrices whose
    Frobenius norm exceeds bound take an SVD."""
    M = np.asarray(M)
    norms = np.linalg.norm(M, axis=(-2, -1))
    over = norms > bound
    if np.any(over):
        norms = np.where(over, opnorm(M), norms)
    return float(norms) if M.ndim == 2 else norms


def adj(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


def rank_flush(w):
    """(w, flushed): the eigenvalues w of a Hermitian PSD matrix, rank-flushed.

    Eigenvalues within cut = RANK_TOL*max(1, max|w|) of zero become exact
    zeros, flushed is the largest |eigenvalue| so zeroed, and one below -cut
    raises IndefiniteInput.  A stack (m, n) is treated row by row.
    """
    cut = RANK_TOL * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))[..., None]
    if (w < -cut).any():
        raise IndefiniteInput(f"eigenvalue {w.min():.3e} below -RANK_TOL*||M||")
    small = w < cut
    return np.where(small, 0.0, w), (np.abs(w) * small).max(axis=-1, initial=0.0)


def psd_sqrt(M) -> np.ndarray:
    """Hermitian PSD square root of M, or of each matrix in a stack.

    ||M - M*|| is screened in the Frobenius norm before any SVD; the flush
    of `rank_flush` keeps defect operators of unitaries identically zero."""
    M = as_matrix(M)
    if M.size == 0:
        return M.copy()
    w, V = np.linalg.eigh(0.5 * (M + adj(M)))
    bound = RANK_TOL * np.maximum(1.0, np.max(np.abs(w), axis=-1, initial=0.0)) * 10
    if np.any(screened_opnorm(M - adj(M), bound) > bound):
        raise NotHermitian("matrix is not hermitian within tolerance")
    w, _ = rank_flush(w)
    R = (V * np.sqrt(w)[..., None, :]) @ adj(V)
    return 0.5 * (R + adj(R))


def _fix_phases(Q: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real and positive."""
    if Q.size == 0:
        return Q.copy()
    a = Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])]  # unit columns: a != 0
    return Q * (np.conj(a) / np.hypot(a.real, a.imag))  # bit for bit the scalar conj(a) / abs(a)


def range_basis(M) -> np.ndarray:
    """Orthonormal basis of the column space of M.

    Singular values <= RANK_TOL * sigma_max are treated as zero.  The zero
    matrix yields a basis with 0 columns.  Columns follow a deterministic
    phase convention (largest entry real positive).
    """
    M = as_matrix(M)
    if M.size == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > RANK_TOL * s[0]))
    return _fix_phases(U[:, :r])


def sandwich_solve(L, R, C):
    """Minimal-Frobenius-norm solution X of L X R = C.

    Returns (X, residual) where residual = ||L X R - C||_F.  Inconsistent
    systems are not an error; the caller interprets the residual.
    """
    L, R, C = as_matrix(L), as_matrix(R), as_matrix(C)
    Lp = np.linalg.pinv(L, rcond=RANK_TOL)
    Rp = np.linalg.pinv(R, rcond=RANK_TOL)
    X = Lp @ C @ Rp
    residual = float(np.linalg.norm(L @ X @ R - C))
    return X, residual
