"""Defect operators, characteristic function, and the truncated model space.

For a contraction P the defect operators are D_P = (I - P*P)^(1/2) and
D_P* = (I - PP*)^(1/2); the characteristic function is

    Theta(z) = [-P + z D_P* (I - z P*)^(-1) D_P]  restricted to ran D_P,

stored in orthonormal defect-space bases.  A finite c.n.u. matrix has
spectral radius < 1, so Theta is inner, the boundary defect vanishes, and
the model space reduces to the orthogonal complement of Theta * H^2 inside
the truncated H^2 over the D_P* defect space.  The model basis is the
minimal-dilation embedding itself,

    Pi:  h  ->  sum_k z^k (D_P* P*^k h),

whose range spans that complement; Pi* Pi = I - P^(N+1) P*^(N+1) is I up to the measured tail.
Both defect operators come from one SVD P = U diag(s) V*: D_P = V diag(r) V*
and D_P* = U diag(r) U* with r = (1 - s^2)^(1/2), which is P D_P = D_P* P.
The routines that need the defect spaces take the DefectData record of P
instead of P, built once per pair by `_defect_record` from its SVD of P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteInput,
    NotAContraction,
    NotCnu,
    ResolventSingular,
    TruncationTooSmall,
)
from .hardy import SymbolPoly
from .linalg import _fix_phases, adj, as_matrix, check_budget, opnorm
from .linalg import psd_sqrt, rank_flush

CNU_MARGIN = 1e-8
MODEL_TAIL = 1e-8  # the model space needs the measured tail ||P^(N+1)|| <= MODEL_TAIL
DELTA_GRID = 256  # boundary angles at which the defect of Theta is sampled


@dataclass(frozen=True)
class DefectData:
    """A contraction P with the range bases of its defect operators.

    Built once per pair by `_defect_record` from its SVD of P and handed
    on to every routine that needs the defect spaces.  D_P Q_dP = Q_dP diag(root) and D_P* Q_dPstar
    = Q_dPstar diag(root): both sides share the kept singular values of P,
    so they have one rank, and D_P and D_P* are built from them on each
    read.  flushed_max is the largest |1 - s^2| over the singular values s
    of P that the rank cut zeroed.
    """

    P: np.ndarray
    Q_dP: np.ndarray
    Q_dPstar: np.ndarray
    root: np.ndarray
    flushed_max: float

    rank_dP = rank_dPstar = property(lambda self: len(self.root))
    D_P = property(lambda self: (self.Q_dP * self.root) @ adj(self.Q_dP))
    D_Pstar = property(lambda self: (self.Q_dPstar * self.root) @ adj(self.Q_dPstar))

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvals(self.P)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.spectrum), initial=0.0))

    def adjoint(self) -> "DefectData":
        """The record of P*: the two bases swap."""
        return DefectData(adj(self.P), self.Q_dPstar, self.Q_dP, self.root, self.flushed_max)


@dataclass(frozen=True)
class ModelSpace:
    """The truncated minimal-dilation embedding Pi of a c.n.u. matrix, an orthonormal
    basis of its truncated model space, and the DefectData it came from."""

    basis: np.ndarray
    trunc_error: float
    defect: DefectData
    # 1 - spectral radius, the margin that licenses dropping Delta, read on first use
    cnu_margin = property(lambda self: 1 - self.defect.spectral_radius)

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


def defect_data(P) -> DefectData:
    """Defect data of P from one SVD P = U diag(s) V*.

    I - P*P = V diag(1 - s^2) V* and I - PP* = U diag(1 - s^2) U*, so the
    columns of V and U that `rank_flush` keeps are the range bases of D_P
    and D_P*.  P is a contraction exactly when `rank_flush` accepts
    1 - s^2; otherwise NotAContraction.  Classification's ||P|| <= 1 check
    and factorization_check run this test with `_defect_record` on the SVD
    the pair carries (`OperatorPair.svd_P`), so a pair's P is factored once.
    """
    P = as_matrix(P)
    if P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"P must be square, got shape {P.shape}")
    return _defect_record(P, *np.linalg.svd(P))


def _defect_record(P, U, s, Vh) -> DefectData:
    """The DefectData of square P from its SVD factors P = U diag(s) Vh."""
    try:
        w, flushed = rank_flush((1 - s) * (1 + s))
    except IndefiniteInput:
        raise NotAContraction(f"||P|| = {s[0]:.6f} exceeds 1") from None
    kept = np.flatnonzero(w)[::-1]  # descending root
    Q = _fix_phases(np.hstack([adj(Vh[kept]), U[:, kept]]))  # column by column: one pass for both bases
    r = len(kept)
    return DefectData(P, Q[:, :r], Q[:, r:], np.sqrt(w[kept]), float(flushed))


def theta_taylor(dd: DefectData, K: int) -> SymbolPoly:
    """First K+1 Taylor coefficients of the characteristic function of dd.P.

    C_0 = -Q* P Q restricted to the defect bases.  The Neumann expansion of
    the resolvent gives C_k = Q_dPstar* D_P* P*^(k-1) D_P Q_dP for k >= 1:
    the degree-(k-1) block of the embedding `pi_nf_matrix` times
    D_P Q_dP = Q_dP diag(root).  The embedding rejects K < 0.
    """
    # for K = 0 the embedding has no blocks, but it still runs the c.n.u. check
    Pi = pi_nf_matrix(dd, K - 1)[0]
    C = (Pi @ (dd.Q_dP * dd.root)).reshape(K, dd.rank_dPstar, dd.rank_dP)
    return SymbolPoly([-adj(dd.Q_dPstar) @ dd.P @ dd.Q_dP, *C])


def theta_eval(dd: DefectData, z) -> np.ndarray:
    """Evaluate Theta(z) of dd.P through the resolvent (not the series).

    An array of points gives the stack of values, one per point.  I - z P*
    is singular where z conj(lambda) = 1 for an eigenvalue lambda of P,
    read off the spectrum cached on the defect data.
    """
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


def delta_eval(dd: DefectData, t) -> np.ndarray:
    """Boundary defect [I - Theta(e^it)* Theta(e^it)]^(1/2) on the D_P basis.

    An array of angles gives the stack of defects, one per angle.
    """
    th = theta_eval(dd, np.exp(1j * np.asarray(t)))
    return psd_sqrt(np.eye(th.shape[-1]) - adj(th) @ th)


def pi_nf_matrix(dd: DefectData, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix of the truncated minimal-dilation embedding of dd.P, and P*^(N+1).

    Degree-k row block is Q_dPstar* D_P* P*^k; columns are the embeddings
    of the standard basis of the source space, filled by doubling.  Its
    powers P*^(2^j) over the binary digits of N + 1 multiply to P*^(N+1),
    the adjoint of the tail the truncation drops: Pi* Pi = I - P^(N+1) P*^(N+1).
    ProblemTooLarge before Pi is allocated when it is over the budget of `check_budget`.
    As spectral_radius^(N+1) <= ||P^(N+1)||_F, a tail below (1 - CNU_MARGIN)^(N+1), less
    a relative rounding slack of 1e-6, certifies c.n.u.; otherwise `cnu_check` decides.
    """
    if N < -1:
        raise TruncationTooSmall(f"the embedding needs N + 1 >= 0 blocks, got {N + 1}")
    power, tail, rows = adj(dd.P), np.eye(len(dd.P)), (N + 1) * dd.rank_dPstar
    check_budget("minimal-dilation embedding", rows, len(dd.P))
    Pi = dd.root[:, None] * adj(dd.Q_dPstar)  # the degree-0 block Q_dPstar* D_P*
    for j in range((N + 1).bit_length()):  # power = P*^(2^j)
        if (N + 1) >> j & 1:
            tail = tail @ power
        if len(Pi) < rows:  # blocks 0..2^j-1 times P*^(2^j) are blocks 2^j..2^(j+1)-1
            Pi = np.concatenate([Pi, Pi[: rows - len(Pi)] @ power])
        power = power @ power
    if not np.linalg.norm(tail) < (1 - CNU_MARGIN) ** (N + 1) * (1 - 1e-6):
        cnu_check(dd)
    return Pi[:rows], tail


def build_model_space(dd: DefectData, N: int) -> ModelSpace:
    """Orthonormal basis of the truncated model space of dd.P: the embedding Pi.

    A matrix that passes `cnu_check` has spectral radius < 1, so it is of
    class C_00: Theta is inner and the boundary defect vanishes (Sz.-Nagy
    and Foias, ch. VI), which licenses dropping the boundary summand of
    the ambient space without sampling it.  N is accepted when the measured
    tail ||P^(N+1)|| is at most MODEL_TAIL; then Pi* Pi = I - P^(N+1) P*^(N+1)
    is I to within the squared tail, 1e-16, and rounding, so Pi is the basis.
    ProblemTooLarge, before Pi is allocated, when three arrays of Pi's size are over budget.
    """
    # the path holds Pi, a block product and a conjugate copy: 3.004-3.008 Pi (tracemalloc)
    check_budget("model space", 3 * (N + 1) * dd.rank_dPstar, len(dd.P))
    Pi, tail = pi_nf_matrix(dd, N)
    trunc_error = opnorm(tail)
    if trunc_error > MODEL_TAIL:  # spectral_radius^(N+1) <= ||P^(N+1)||, exact for normal P
        rho = dd.spectral_radius
        need = int(np.ceil(np.log(MODEL_TAIL) / np.log(rho))) - 1 if rho > 0 else 0
        raise TruncationTooSmall(
            f"||P^(N+1)|| = {trunc_error:.3e} exceeds {MODEL_TAIL:.0e} at N = {N} "
            f"(spectral radius {rho:.4f} needs N >= {need}, a lower bound)"
        )
    return ModelSpace(Pi, trunc_error, dd)
