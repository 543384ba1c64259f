"""Explicit dilations and functional models.

Schaffer pair: on the space H + truncated H^2 over the D_P defect space,

    V = [[P, 0], [row(D_P), M_z]],   W = [[S, 0], [row(A* D_P), A + A* M_z]],

with the embedding h -> h + 0 intertwining the adjoints exactly.  The
model builder compresses (M_{A + A*z}, M_z) to the truncated model space in
the basis Pi, as Pi* times row slices of Pi and of (I tensor A) Pi
(`hardy.blockwise`), and certifies the model against the input pair; the
compressed scalar X = Pi* (I tensor A) Pi realizes S = X + P X*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import (
    ACCEPT_THRESHOLD,
    GAMMA_CONTRACTION,
    GAMMA_ISOMETRY,
    GAMMA_UNITARY,
    fundamental_op,
    is_gamma_contraction,
)
from .defect import ModelSpace, _defect_record, build_model_space, pi_nf_matrix
from .errors import (
    ClassificationFailed,
    NotADilation,
    NotCommuting,
    NotUnitary,
    ResidualTooLarge,
    TruncationTooSmall,
)
from .hardy import SymbolPoly, blockwise, build_mult_op, symbol_a_plus_astar_z
from .linalg import RANK_TOL, RESIDUAL_TOL, adj, as_matrix, check_budget, opnorm, screened_opnorm
from .numrad import numerical_radius
from .pair import OperatorPair, degree_mask, make_pair

_PASSING = (GAMMA_CONTRACTION, GAMMA_ISOMETRY, GAMMA_UNITARY)
FACTOR_DEPTH = 8  # stages of the minimal dilation that factorization_check pins down
MODEL_RESIDUAL_FLOOR = 1e-8  # least bound on a model identity's residual (tolerance_bound)


@dataclass(frozen=True)
class SchafferPair:
    V: np.ndarray
    W: np.ndarray
    embed: np.ndarray
    window: np.ndarray

    def as_pair(self) -> OperatorPair:
        return make_pair(self.W, self.V, window=self.window)


@dataclass(frozen=True)
class NfAyModel:
    """The functional model of a pair; in the input's coordinates, so `intertwiner` is I."""

    model_space: ModelSpace
    symbol_A: np.ndarray
    S_model: np.ndarray
    P_model: np.ndarray
    residual_S: float
    residual_P: float
    intertwiner: np.ndarray
    X: np.ndarray  # Pi* (I tensor A) Pi: S_model's first term, the compressed scalar

    @property
    def tolerance_bound(self) -> float:
        return max(MODEL_RESIDUAL_FLOOR, 10 * self.model_space.trunc_error)


@dataclass(frozen=True)
class CompressedScalar:
    X: np.ndarray
    source_A: np.ndarray

    @cached_property
    def decompressed_wr(self) -> float:  # w(source_A), computed on first read
        return numerical_radius(self.source_A).value


def _require_gamma(pair: OperatorPair):
    """Classification report of a passing pair; it carries the DefectData of P."""
    report = is_gamma_contraction(pair)
    if report.kind not in _PASSING:
        raise ClassificationFailed(f"pair classified {report.kind}: {report.failed()}")
    return report


def schaffer_build(pair: OperatorPair, N: int) -> SchafferPair:
    """Explicit isometric dilation pair (W, V) on H + truncated Hardy space.

    The adjoint intertwinings with the embedding are exact: no truncation
    enters the embedded columns.  The defect data of P comes from the
    classification report.  The Hardy blocks are written into V and W, so the
    call holds V, W and the embedding, which `check_budget` bounds before they are allocated.
    """
    report = _require_gamma(pair)
    S, P, dd = pair.S, pair.P, report.defect
    n = S.shape[0]
    F = report.fundamental_op
    r = dd.rank_dP
    hardy_dim = (N + 1) * r
    dim = n + hardy_dim
    check_budget("Schaffer dilation", dim, 2 * dim + n)  # V, W and the embedding

    row = dd.root[:, None] * adj(dd.Q_dP)  # h -> D_P h in defect-basis coordinates

    V = np.zeros((dim, dim), dtype=complex)
    V[:n, :n] = P
    V[n : n + r, :n] = row
    build_mult_op(SymbolPoly([np.zeros((r, r)), np.eye(r)]), N, out=V[n:, n:])

    W = np.zeros((dim, dim), dtype=complex)
    W[:n, :n] = S
    W[n : n + r, :n] = adj(F) @ row
    build_mult_op(symbol_a_plus_astar_z(F), N, out=W[n:, n:])

    embed = np.zeros((dim, n), dtype=complex)
    embed[:n, :n] = np.eye(n)

    window = np.concatenate([np.ones(n, dtype=bool), degree_mask(hardy_dim, r, N - 1)])
    return SchafferPair(V, W, embed, window)


def nf_ay_build(pair: OperatorPair, N: int) -> NfAyModel:
    """Functional model of a c.n.u. pair on the truncated model space.

    The symbol is the adjoint of the fundamental operator of (S*, P*),
    solved on the swapped defect data of P from the classification report.
    The model operators compress the pure model pair M to the range of the
    embedding Pi, with Pi* M = S Pi*, Pi* M_z = P Pi* and Pi isometric up
    to the tail ||P^(N+1)|| <= MODEL_TAIL that `build_model_space` gates on,
    so the model has the input's dimension.  The basis is Pi itself, so the
    model is in the input's coordinates and its intertwiner is I.
    """
    dd = _require_gamma(pair).defect
    symbol_A = adj(fundamental_op(adj(pair.S), dd.adjoint())[0])

    model = build_model_space(dd, N)
    Pi, rs = model.basis, dd.rank_dPstar
    head = Pi[: len(Pi) - rs]  # the blocks that M_z moves down one degree, into Pi[rs:]
    X = adj(Pi) @ blockwise(symbol_A, Pi)
    S_model = X + adj(Pi[rs:]) @ blockwise(adj(symbol_A), head)
    P_model = adj(Pi[rs:]) @ head

    res = opnorm(np.stack([S_model - pair.S, P_model - pair.P]))
    return NfAyModel(model, symbol_A, S_model, P_model, *map(float, res), np.eye(pair.dim), X)


def compressed_scalar(model: NfAyModel) -> CompressedScalar:
    """The model's X, the compression of the constant symbol operator; S = X + P X* is
    checked by `screened_opnorm`.  w(symbol_A) waits for the first read of `decompressed_wr`."""
    X, bound = model.X, model.tolerance_bound
    defect = screened_opnorm(model.S_model - (X + model.P_model @ adj(X)), bound)
    if defect > bound:
        raise ResidualTooLarge(f"S = X + P X* fails by {defect:.3e} (bound {bound:.3e})")
    return CompressedScalar(X, model.symbol_A)


def gamma_unitary_synth(U1, U2) -> OperatorPair:
    """Pair (U1 + U2, U1 U2) from commuting unitaries; always classifies unitary."""
    U1, U2 = as_matrix(U1), as_matrix(U2)
    eye = np.eye(U1.shape[0])
    t = RESIDUAL_TOL
    for name, U in (("U1", U1), ("U2", U2)):
        if opnorm(adj(U) @ U - eye) > t or opnorm(U @ adj(U) - eye) > t:
            raise NotUnitary(f"{name} is not unitary within tolerance")
    if opnorm(U1 @ U2 - U2 @ U1) > t:
        raise NotCommuting("U1 and U2 do not commute")
    return make_pair(U1 + U2, U1 @ U2)


def factorization_check(pair: OperatorPair, other_dilation, N: int):
    """Factor another isometric dilation (V, E) through the minimal one.

    The factor map Phi sends the stages M_z^j Pi of the minimal dilation to
    the stages V^j E, j <= d = min(FACTOR_DEPTH, N - 1).  As Pi h = D_P* h +
    M_z Pi P* h, their span is the Wold sum of the wandering degrees 0..d-1
    and z^d ran Pi_{<=N-d} (Sz.-Nagy and Foias, ch. I), with the defect
    record of P built from the pair's SVD of P.  On that orthonormal
    basis B, degree-j coordinates go to V^j w, w = (E - V E P*) Q / root on
    the D_P* basis Q, and z^d U goes to V^d E Vh*/s from one thin SVD
    U s Vh of Pi_{<=N-d}, cut by pinv's rule (RANK_TOL times the largest s).

    Returns (Phi, isometry residual, well-definedness residual): Phi is
    (Phi B) B*, and ||(Phi B)*(Phi B) - I|| does not depend on the basis.
    The stage matrix has null space (h at stage j, -P* h at stage j + 1)
    for h in ker D_P*, and ker Pi_{<=N-d} at stage d.  So for d >= 1 the
    stages define Phi exactly when (E - V E P*)(I - Q Q*) and V^d E
    (I - Vh* Vh) vanish; the last residual is the norm of the two side by
    side.  V Phi = Phi M_z holds on the stages by construction.
    """
    V, embed = map(as_matrix, other_dilation)
    P, n = pair.P, pair.dim

    d_res = screened_opnorm(adj(V) @ embed - embed @ adj(P), ACCEPT_THRESHOLD)
    if d_res > ACCEPT_THRESHOLD:
        raise NotADilation(f"adjoint intertwining fails by {d_res:.3e}")

    if N < 1:
        raise TruncationTooSmall(f"need N >= 1, got {N}")
    dd = _defect_record(P, *pair.svd_P)
    depth = min(FACTOR_DEPTH, N - 1)
    U, s, Vh = np.linalg.svd(pi_nf_matrix(dd, N - depth)[0], full_matrices=False)
    keep = s > RANK_TOL * s.max(initial=0.0)
    U, s, Vh = U[:, keep], s[keep], Vh[keep]

    wander = embed - V @ embed @ adj(P)  # |(E - V E P*) h| = |D_P* h| if V is isometric
    WQ = wander @ dd.Q_dPstar

    Y, stages = np.hstack([embed, WQ / dd.root]), []  # [V^j E | V^j w]
    for _ in range(depth):
        stages.append(Y[:, n:])
        Y = V @ Y
    tail = Y[:, :n] @ adj(Vh) / s  # the image of z^d U
    PhiB = np.hstack([*stages, tail])
    iso_res = opnorm(adj(PhiB) @ PhiB - np.eye(PhiB.shape[1]))
    wd_res = opnorm(np.hstack([wander - WQ @ adj(dd.Q_dPstar), Y[:, :n] - (tail * s) @ Vh]))
    return np.hstack([*stages, tail @ adj(U)]), float(iso_res), float(wd_res)
