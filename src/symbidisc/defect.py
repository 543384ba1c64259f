"""Defect operators, characteristic function, and the truncated model space.

For a contraction P the defect operators are D_P = (I - P*P)^(1/2) and
D_P* = (I - PP*)^(1/2); the characteristic function is

    Theta(z) = [-P + z D_P* (I - z P*)^(-1) D_P]  restricted to ran D_P,

stored in orthonormal defect-space bases.  A finite c.n.u. matrix has
spectral radius < 1, so Theta is inner, the boundary defect vanishes, and
the model space reduces to the orthogonal complement of Theta * H^2 inside
the truncated H^2 over the D_P* defect space.  The model basis is obtained
by orthonormalizing the columns of the minimal-dilation embedding

    h  ->  sum_k z^k (D_P* P*^k h),

whose range spans that complement up to the geometric truncation tail.
The routines that need the defect spaces take the DefectData record of P,
built once by `defect_data`, instead of P itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IndefiniteInput,
    NotAContraction,
    NotCnu,
    ResolventSingular,
    TruncationTooSmall,
)
from .hardy import SymbolPoly
from .linalg import DEFAULT_TOL, Tolerance, _fix_phases, adj, as_matrix, opnorm, psd_eigh
from .linalg import psd_sqrt, range_basis

CNU_MARGIN = 1e-8
MODEL_TAIL = 1e-8  # the model space needs spectral_radius^(N+1) <= MODEL_TAIL
DELTA_GRID = 256  # boundary angles at which the defect of Theta is sampled


def _side(w: np.ndarray, V: np.ndarray, flushed) -> tuple:
    """(D, Q, root, flushed) from eigenpairs of D^2 with the cut ones zeroed:
    Q holds the kept eigenvectors, descending, so that D Q = Q diag(root)."""
    kept = np.flatnonzero(w)[::-1]
    Q, root = _fix_phases(V[:, kept]), np.sqrt(w[kept])
    D = (Q * root) @ adj(Q)
    return 0.5 * (D + adj(D)), Q, root, float(flushed)


@dataclass(frozen=True)
class DefectData:
    """A contraction P with its defect operators and their range bases.

    Built once per P by `defect_data` and handed on to every routine that
    needs the defect spaces.  D Q = Q diag(root) on the D_P and D_P* sides;
    flushed_max is the largest |eigenvalue| of I - P*P that the rank cut zeroed.
    The D_P* side is built from its own eigh the first time it is read.
    """

    P: np.ndarray
    D_P: np.ndarray
    Q_dP: np.ndarray
    root_dP: np.ndarray
    flushed_max: float
    star: tuple | None = None  # a D_P* side already built, handed over by adjoint()

    rank_dP = property(lambda self: self.Q_dP.shape[1])
    D_Pstar = property(lambda self: self._star[0])
    Q_dPstar = property(lambda self: self._star[1])
    root_dPstar = property(lambda self: self._star[2])
    rank_dPstar = rank_dP  # the D_P* side is cut to the same rank

    @cached_property
    def _star(self) -> tuple:
        """One eigh of I - PP* (the spectrum of I - P*P) cut to rank_dP: it never raises."""
        if self.star is not None:
            return self.star
        M = np.eye(len(self.P)) - self.P @ adj(self.P)
        w, V = np.linalg.eigh(0.5 * (M + adj(M)))
        cut = np.arange(len(w)) < len(w) - self.rank_dP
        return _side(np.where(cut, 0.0, w), V, np.max(np.abs(w) * cut, initial=0.0))

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvals(self.P)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.spectrum), initial=0.0))

    def adjoint(self) -> "DefectData":
        """The record of P*: the two sides swap, and neither is rebuilt."""
        own = (self.D_P, self.Q_dP, self.root_dP, self.flushed_max)
        return DefectData(adj(self.P), *self._star, star=own)


@dataclass(frozen=True)
class CharFn:
    """Taylor data of the characteristic function in defect bases."""

    taylor: SymbolPoly
    defect: DefectData


@dataclass(frozen=True)
class ModelSpace:
    """Orthonormal basis of the truncated model space of a c.n.u. matrix,
    the range of the truncated minimal-dilation embedding."""

    basis: np.ndarray
    embedding: np.ndarray
    N: int
    cnu_margin: float  # 1 - spectral radius, the margin that licenses dropping Delta
    trunc_error: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def spectral_radius(P) -> float:
    P = as_matrix(P)
    if P.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(P))))


def cnu_check(dd: DefectData) -> None:
    """Finite c.n.u. contraction <=> spectral radius < 1 (read from dd)."""
    if dd.spectral_radius >= 1 - CNU_MARGIN:
        raise NotCnu("P has a (numerically) unimodular eigenvalue; split the unitary part first")


def defect_data(P, tol: Tolerance = DEFAULT_TOL) -> DefectData:
    """Defect data of P: the D_P side from one eigh of I - P*P.

    P is a contraction exactly when `psd_eigh` accepts I - P*P, which for
    square P has the spectrum of I - PP*; otherwise NotAContraction.
    Classification uses the same test for its ||P|| <= 1 check.
    """
    P = as_matrix(P)
    try:
        w, V, flushed = psd_eigh(np.eye(P.shape[0]) - adj(P) @ P, tol)
    except IndefiniteInput:
        raise NotAContraction(f"||P|| = {opnorm(P):.6f} exceeds 1") from None
    return DefectData(P, *_side(w, V, flushed))


def theta_taylor(dd: DefectData, K: int) -> CharFn:
    """First K+1 Taylor coefficients of the characteristic function of dd.P.

    C_0 = -Q* P Q restricted to the defect bases.  The Neumann expansion of
    the resolvent gives C_k = Q_dPstar* D_P* P*^(k-1) D_P Q_dP for k >= 1:
    the degree-(k-1) block of the embedding `pi_nf_matrix` times D_P Q_dP.
    """
    # for K = 0 the embedding has no blocks, but it still runs the c.n.u. check
    Pi = pi_nf_matrix(dd, K - 1)
    C = (Pi @ dd.D_P @ dd.Q_dP).reshape(K, dd.rank_dPstar, dd.rank_dP)
    return CharFn(SymbolPoly([-adj(dd.Q_dPstar) @ dd.P @ dd.Q_dP, *C]), dd)


def theta_eval(charfn: CharFn, z) -> np.ndarray:
    """Evaluate Theta(z) directly through the resolvent (not the series).

    An array of points gives the stack of values, one per point.  I - z P*
    is singular where z conj(lambda) = 1 for an eigenvalue lambda of P,
    read off the spectrum cached on the defect data.
    """
    dd = charfn.defect
    P = dd.P
    z = np.asarray(z)
    gap = np.min(np.abs(1 - z[..., None] * np.conj(dd.spectrum)), axis=-1, initial=np.inf)
    singular = gap <= CNU_MARGIN
    if np.any(singular):
        raise ResolventSingular(f"I - z P* is singular at z = {z[singular][0]}")
    zs = z[..., None, None]
    M = np.eye(P.shape[0]) - zs * adj(P)
    core = -P + zs * dd.D_Pstar @ np.linalg.solve(M, dd.D_P)
    return adj(dd.Q_dPstar) @ core @ dd.Q_dP


def delta_eval(charfn: CharFn, t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Boundary defect [I - Theta(e^it)* Theta(e^it)]^(1/2) on the D_P basis.

    An array of angles gives the stack of defects, one per angle.
    """
    th = theta_eval(charfn, np.exp(1j * np.asarray(t)))
    return psd_sqrt(np.eye(th.shape[-1]) - adj(th) @ th, tol)


def pi_nf_matrix(dd: DefectData, N: int) -> np.ndarray:
    """Matrix of the truncated minimal-dilation embedding of dd.P.

    Degree-k row block is Q_dPstar* D_P* P*^k; columns are the embeddings
    of the standard basis of the source space.
    """
    cnu_check(dd)
    Pstar = adj(dd.P)
    rs = dd.rank_dPstar
    B = adj(dd.Q_dPstar) @ dd.D_Pstar  # the degree-k block, carried as B <- B P*
    Pi = np.empty(((N + 1) * rs, B.shape[1]), dtype=complex)
    for k in range(N + 1):
        Pi[k * rs : (k + 1) * rs] = B
        B = B @ Pstar
    return Pi


def truncation_tail(P, N: int) -> float:
    """||P^(N+1)||, the norm bound on everything the truncation discards."""
    P = as_matrix(P)
    if P.size == 0:
        return 0.0
    return opnorm(np.linalg.matrix_power(P, N + 1))


def build_model_space(dd: DefectData, N: int, tol: Tolerance = DEFAULT_TOL) -> ModelSpace:
    """Orthonormal basis of the truncated model space of dd.P.

    A matrix that passes `cnu_check` has spectral radius < 1, so it is of
    class C_00: Theta is inner and the boundary defect vanishes (Sz.-Nagy
    and Foias, ch. VI), which licenses dropping the boundary summand of
    the ambient space without sampling it.  N must reach the smallest
    truncation with spectral_radius^(N+1) <= MODEL_TAIL.
    """
    cnu_check(dd)
    rho = dd.spectral_radius
    need = int(np.ceil(np.log(MODEL_TAIL) / np.log(rho))) - 1 if rho > 0 else 0
    if N < need:
        raise TruncationTooSmall(f"spectral radius {rho:.4f} needs N >= {need} (got {N})")
    Pi = pi_nf_matrix(dd, N)
    return ModelSpace(range_basis(Pi, tol), Pi, N, 1 - rho, truncation_tail(dd.P, N))
