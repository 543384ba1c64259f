"""Classification of commuting pairs.

The hierarchy runs: P unitary with S = S*P and ||S|| <= 2 (the unitary
case); P isometric with the same algebra (the isometric case); and the
general case decided through the fundamental-operator equation

    S - S*P = D_P A D_P,   w(A) <= 1,

solved on the defect basis of P.  The pair's one SVD of P gives ||P||, the
isometry residuals and the defect record.  A von Neumann sampling check
and a joint unitary-equivalence test round out the toolbox.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .defect import DefectData, _defect_record
from .errors import DimensionMismatch, NotAContraction, NotCommuting, NotPureModelForm
from .linalg import RESIDUAL_TOL, adj, as_matrix, check_budget, opnorm, screened_opnorm
from .numrad import WR_SLACK, decide_wr
from .pair import OperatorPair, restrict

GAMMA_UNITARY = "GammaUnitary"
GAMMA_ISOMETRY = "GammaIsometry"
GAMMA_CONTRACTION = "GammaContraction"
NOT_GAMMA = "NotGamma"
INCONCLUSIVE = "Inconclusive"
PURE_FORM_TOL = 1e-10  # bound on S* - S P* off its symbol block, relative to max(1, ||A||)

@dataclass
class ClassificationReport:
    kind: str
    fundamental_op: Optional[np.ndarray] = None
    fundamental_residual: float = np.inf
    wA: float = np.inf  # wA <= w(A) <= wA_upper: the bounds of `decide_wr` that decided
    wA_upper: float = np.inf
    wA_decided_by: Optional[str] = None  # the `decide_wr` step that decided w(A) <= 1 + WR_SLACK
    checks: list = field(default_factory=list)
    defect: Optional[DefectData] = None
    flushed_max = property(lambda self: self.defect.flushed_max if self.defect else 0.0)

    def add(self, name: str, ok: bool, residual: float):
        self.checks.append((name, bool(ok), float(residual)))

    def failed(self):
        return [c for c in self.checks if not c[1]]


_UNITARY_CHECKS = ("P isometric", "P co-isometric", "S = S*P", "||S|| <= 2")
_ISOMETRY_CHECKS = ("P isometric", "S = S*P", "||S|| <= 2")


def _commutator_gate(pair: OperatorPair):
    """NotCommuting unless ||SP - PS|| <= RESIDUAL_TOL * max(1, ||S|| ||P||).

    A Frobenius norm within RESIDUAL_TOL passes with no norm taken."""
    if pair.commutator_fro <= RESIDUAL_TOL:
        return
    norm_P = float(np.max(pair.svd_P[1], initial=0.0))
    if pair.commutator_norm > RESIDUAL_TOL * max(1.0, pair.norm_S * norm_P):
        raise NotCommuting(
            f"commutator norm {pair.commutator_norm:.3e} exceeds tolerance"
        )


def _algebra_checks(pair: OperatorPair, record_all: bool = True) -> dict:
    """Check name -> (ok, residual) for the unitary and isometric cases.

    Residuals are restricted to the pair's window; without one both
    isometry residuals are max|1 - s^2| over the singular values s of P.
    Unless record_all, ||S - S*P|| reads inf when P is not isometric: no verdict then reads it.
    """
    S, P, w, s, norm_S = pair.S, pair.P, pair.window, pair.svd_P[1], pair.norm_S
    t = RESIDUAL_TOL
    if w is None:
        r_iso = r_coiso = float(np.max(np.abs((1 - s) * (1 + s)), initial=0.0))
    else:
        r_iso = opnorm(restrict(adj(P) @ P - np.eye(len(P)), w))
        r_coiso = opnorm(restrict(P @ adj(P) - np.eye(len(P)), w))
    r_sym = opnorm(restrict(S - adj(S) @ P, w)) if record_all or r_iso <= t else np.inf
    return {
        "P isometric": (r_iso <= t, r_iso),
        "P co-isometric": (r_coiso <= t, r_coiso),
        "S = S*P": (r_sym <= t, r_sym),
        "||S|| <= 2": (norm_S <= 2 + t, max(0.0, norm_S - 2)),
    }


def _passes(checks: dict, names) -> bool:
    return all(checks[name][0] for name in names)


def is_gamma_isometry(pair: OperatorPair):
    _commutator_gate(pair)
    checks = _algebra_checks(pair)
    ok = _passes(checks, _ISOMETRY_CHECKS)
    rep = ClassificationReport(kind=GAMMA_ISOMETRY if ok else NOT_GAMMA)
    for name in _ISOMETRY_CHECKS:
        rep.add(name, *checks[name])
    return ok, rep


def fundamental_op(S, dd: DefectData):
    """Solve S - S*P = D_P A D_P, with dd the defect data of P = dd.P.

    With D_P Q = Q diag(r), A = diag(1/r) Q*CQ diag(1/r) for C = S - S*P on
    the D_P defect basis Q, and the residual is ||QQ*CQQ* - C||_F.  dd made
    the rank decision.  Returns (A, residual).  Called on S* with
    dd.adjoint() it yields the adjoint of the model symbol.
    """
    C, Q, inv = S - adj(S) @ dd.P, dd.Q_dP, 1 / dd.root
    B = adj(Q) @ C @ Q
    return inv[:, None] * B * inv, float(np.linalg.norm(Q @ B @ adj(Q) - C))


def is_gamma_contraction(pair: OperatorPair) -> ClassificationReport:
    """Full classification of a commuting pair.

    Produces the strongest applicable kind; every sub-check is recorded in
    the report with its residual.  The pair's SVD of P gives ||P|| = s_0, the
    isometry residuals of a pair without a window and the DefectData the
    report carries; ||P|| <= 1 passes exactly when that record accepts P.
    w(A) <= 1 passes when the certified upper bound on w(A) is at most
    1 + WR_SLACK; the answer is NotGamma when the lower bound exceeds it,
    and Inconclusive when the two bounds straddle it.  The bounds are those
    of `decide_wr` at that level: wA and wA_upper are the bounds that
    decided and wA_decided_by the step that found them.
    """
    S, P = pair.S, pair.P
    U, s, Vh = pair.svd_P
    _commutator_gate(pair)
    algebra = _algebra_checks(pair, record_all=False)
    try:
        dd = _defect_record(P, U, s, Vh)
    except NotAContraction:
        dd = None
    t = RESIDUAL_TOL
    rep = ClassificationReport(INCONCLUSIVE, defect=dd)
    rep.add("||P|| <= 1", dd is not None, max(0.0, float(np.max(s, initial=0.0)) - 1))
    rep.add("||S|| <= 2", *algebra["||S|| <= 2"])
    if rep.failed():
        rep.kind = NOT_GAMMA
        return rep
    F, residual = fundamental_op(S, dd)
    wr = decide_wr(F, 1 + WR_SLACK)
    rep.fundamental_op = F
    rep.fundamental_residual = residual
    rep.wA, rep.wA_upper, rep.wA_decided_by = wr.value, wr.upper, wr.decided_by
    rep.add("fundamental equation consistent", residual <= t, residual)
    rep.add("w(A) <= 1", wr.upper <= 1 + WR_SLACK, max(0.0, wr.upper - 1))
    if residual > t or wr.value > 1 + WR_SLACK:
        rep.kind = NOT_GAMMA
    elif rep.failed():
        rep.kind = INCONCLUSIVE  # the bounds on w(A) straddle 1 + WR_SLACK
    elif _passes(algebra, _UNITARY_CHECKS):
        rep.kind = GAMMA_UNITARY
    elif _passes(algebra, _ISOMETRY_CHECKS):
        rep.kind = GAMMA_ISOMETRY
    else:
        rep.kind = GAMMA_CONTRACTION
    return rep


def recover_pure_symbol(pair: OperatorPair, N: int) -> np.ndarray:
    """Read the symbol back off a truncated pure model pair.

    S* - S P* concentrates the symbol's adjoint in the degree-0 diagonal
    block; all other interior blocks (degrees below N) must vanish.
    """
    S, P = pair.S, pair.P
    dim = S.shape[0]
    if dim % (N + 1) != 0:
        raise NotPureModelForm(f"dimension {dim} is not a multiple of N+1 = {N + 1}")
    b = dim // (N + 1)
    E = adj(S) - S @ adj(P)
    A = adj(E[:b, :b])
    scale = max(1.0, opnorm(A))
    blocks = E[: N * b, : N * b].reshape(N, b, N, b).swapaxes(1, 2).copy()
    blocks[:1, :1] = 0
    worst = float(np.max(opnorm(blocks), initial=0.0))
    if worst > PURE_FORM_TOL * scale:
        raise NotPureModelForm(
            f"off-block residual {worst:.3e} too large for a pure model pair"
        )
    return A


# ---------------------------------------------------------------------------
# von Neumann sampling
# ---------------------------------------------------------------------------

# The torus grid stage takes candidates 16 at a time to bound memory: a
# block's grid x grid values take 1 MiB at grid 64 (all 102 candidates of a
# default call at once raised peak RSS by about 9 MiB); patches take all.
_VN_BLOCK = 16


def _torus_map(degree: int) -> np.ndarray:
    """Binomial map from (s, p) coefficients to (z1, z2) coefficients on the torus.

    s^a p^b = sum_k C(a, k) z1^(k+b) z2^(a-k+b) for s = z1 + z2, p = z1 z2;
    row a * (degree + 1) + b (a + b <= degree), column i * (degree + 1) + j.
    """
    m = degree + 1
    T = np.zeros((m * m, m * m))
    for a in range(m):
        for b in range(m - a):
            for k in range(a + 1):
                T[a * m + b, (k + b) * m + a - k + b] = math.comb(a, k)
    return T


def _grid_table(grid: int, size: int, step: int = 1) -> np.ndarray:
    """Rows z^k (k < size) at every step-th torus grid angle 2 pi j / grid."""
    return np.exp(1j * (2 * np.pi * np.arange(0, grid, step) / grid)[:, None] * np.arange(size))


def _torus_sup(E: np.ndarray, grid: int) -> np.ndarray:
    """Sup over the torus of |sum_ij E[i, j] z1^i z2^j|, one per array in the stack E.

    Four stages of the same separable product |Z1 E Z2^T|: the grid x grid
    torus grid from one table of z^k, _VN_BLOCK arrays at a time, then for
    all arrays at once three 17 x 17 patches around each current maximum
    (the center among them), of half-width 2 pi / grid shrinking by 8 each
    time; a patch table is the center's row times exp(i x k) at offsets x.
    """
    rows = np.arange(len(E))
    powers = np.arange(E.shape[-1])
    Z = _grid_table(grid, E.shape[-1])
    grid_vals = (np.abs(Z @ E[b : b + _VN_BLOCK] @ Z.T) for b in range(0, len(E), _VN_BLOCK))
    k = np.concatenate([v.reshape(len(v), -1).argmax(axis=1) for v in grid_vals])
    Z1, Z2 = Z[k // grid], Z[k % grid]
    sup, h = np.zeros(len(E)), 2 * np.pi / grid
    for _ in range(3):
        offsets = np.exp(1j * np.linspace(-h, h, 17)[:, None] * powers)
        Z1, Z2 = Z1[:, None, :] * offsets, Z2[:, None, :] * offsets
        vals = np.abs(Z1 @ E @ Z2.swapaxes(1, 2)).reshape(len(E), -1)
        k = np.argmax(vals, axis=1)
        sup = np.maximum(sup, vals[rows, k])
        Z1, Z2 = Z1[rows, k // 17], Z2[rows, k % 17]
        h /= 8
    return sup


@functools.lru_cache(maxsize=64)  # candidate families kept per process
def _vn_family(degree: int, trials: int, grid: int, seed: int):
    """(cands, E, coarse, sup): coefficients on s^a p^b and on z1^i z2^j and max |p| on every
    (grid // 8)-th torus angle, all three read-only, and the torus sups, NaN until first
    refined by any call: all refine alike."""
    # (a, b) with a + b <= degree in row-major order, the order the coefficients are drawn in
    a, b = np.nonzero(np.add.outer(np.arange(degree + 1), np.arange(degree + 1)) <= degree)
    draws = np.random.default_rng(seed).uniform(-1, 1, size=(trials, a.size, 2))
    cands = np.zeros((trials + 2, degree + 1, degree + 1), dtype=complex)
    cands[0, 1, 0] = cands[1, 0, 1] = 1.0
    cands[2:, a, b] = draws[..., 0] + 1j * draws[..., 1]
    E = (cands.reshape(len(cands), -1) @ _torus_map(degree)).reshape(cands.shape)
    Zc = _grid_table(grid, degree + 1, max(1, grid // 8))
    coarse = np.abs(Zc @ E @ Zc.T).reshape(len(cands), -1).max(axis=1)
    cands.flags.writeable = E.flags.writeable = coarse.flags.writeable = False
    return cands, E, coarse, np.full(trials + 2, np.nan)


def von_neumann_margin(
    pair: OperatorPair,
    degree: int = 3,
    trials: int = 100,
    grid: int = 64,
    seed: int = 0,
):
    """Minimum of sup-norm-on-boundary minus ||p(S, P)|| over sampled polynomials.

    The coordinate monomials s and p are always included alongside the
    random trials (coefficients uniform in the unit square for a + b <=
    degree), so canonical violations are found deterministically.  All
    candidates are evaluated on the pair at once, from one table of the
    words S^a P^b, and on the torus as polynomials in (z1, z2).  A
    negative margin certifies the pair is not a Gamma-contraction (up to
    grid slack).  The witness returned is a copy.

    The candidates depend on (degree, trials, grid, seed) alone and are
    built once per process, each torus sup when first needed (_vn_family).
    Only candidates that can attain the minimum get _torus_sup and an exact
    norm, and the result is that of refining all.  A margin is at least its
    floor, the torus sup (before refinement, the max on every (grid // 8)-th
    grid angle) minus the Schatten 4-norm of p(S, P); the margin of the
    candidate of lowest floor caps the minimum.  Floors above that ceiling,
    with relative slack 1e-12, are dropped.  ProblemTooLarge before the
    family is drawn when the candidate stacks are over budget; ValueError
    before that when degree < 1, trials < 0 or grid < 1.
    """
    for name, value, least in (("degree", degree, 1), ("trials", trials, 0), ("grid", grid, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    S, P = pair.S, pair.P
    _commutator_gate(pair)
    # the peak per candidate: p(S, P) and two copies (adjoint and Gram, or the SVD's), and patches;
    # a block of the torus grid stage holds grid x grid values and their moduli, 1.5 complex entries
    check_budget("von Neumann candidate stacks", trials + 2, 3 * S.size + 3 * 17 * 17)
    check_budget("von Neumann torus grid", min(_VN_BLOCK, trials + 2), 3 * grid * grid // 2)
    cands, E, coarse, sup = _vn_family(degree, trials, grid, operator.index(seed))

    words = np.zeros(cands.shape[1:] + S.shape, dtype=complex)  # S^a P^b, 0 for a + b > degree
    words[0, 0], words[1, 0], words[0, 1] = np.eye(len(S)), S, P
    for k in range(2, degree + 1):
        words[k, 0], words[0, k] = words[k - 1, 0] @ S, words[0, k - 1] @ P
    for a in range(1, degree):
        for b in range(1, degree + 1 - a):
            words[a, b] = words[a, 0] @ words[0, b]
    ops = np.tensordot(cands, words, axes=2)
    # ||M||_2 <= ||M*M||_F^(1/2), the Schatten 4-norm, summed on the real view: no complex copy
    gram = adj(ops) @ ops
    s4 = np.einsum("kij,kij->k", gram.view(float), gram.view(float)) ** 0.25
    del gram
    floors = np.where(np.isnan(sup), coarse, sup) - s4
    c = int(np.argmin(floors))
    if np.isnan(sup[c]):
        sup[c] = _torus_sup(E[c : c + 1], grid)[0]
    ceiling = sup[c] - opnorm(ops[c])
    live = floors <= ceiling + 1e-12 * (abs(ceiling) + coarse + s4)
    todo = np.flatnonzero(live & np.isnan(sup))
    if todo.size:
        sup[todo] = _torus_sup(E[todo], grid)
    margins = np.full(len(sup), np.inf)
    margins[live] = sup[live] - opnorm(ops[live])
    k = int(np.argmin(margins))
    return float(margins[k]), cands[k].copy()


# ---------------------------------------------------------------------------
# joint unitary equivalence
# ---------------------------------------------------------------------------

# Eigenvalues of the random Hermitian element closer than _MERGE_GAP times its
# norm share a cluster: a split at gap g turns an input perturbation e into a
# certificate of about e / g, so only wide gaps split.  A reduced Gram
# operator over linalg.GRAM_BUDGET_BYTES (4096 unknowns, one cluster of size 64)
# raises ProblemTooLarge.  The Gram null space is cut at (NULL_TOL*scale)^2, and
# INTERTWINER_SEED draws the Hermitian element and one element of a wider null space.
_MERGE_GAP = 1e-3
NULL_TOL = 1e-6
INTERTWINER_SEED = 0
# The largest intertwining residual that counts as an identity: the equivalence
# certificate ||U T - T' U|| / max(1, ||T||), and a dilation's ||V* E - E P*||.
ACCEPT_THRESHOLD = 100 * RESIDUAL_TOL


@functools.lru_cache(maxsize=16)  # one entry per letter count
def _h_coefficients(k: int):
    """(c, d): H's read-only coefficients on k letters and their adjoints, from INTERTWINER_SEED."""
    rng = np.random.default_rng(INTERTWINER_SEED)
    c = rng.standard_normal(2 * k) + 1j * rng.standard_normal(2 * k)
    d = rng.standard_normal((2 * k, 2 * k)) + 1j * rng.standard_normal((2 * k, 2 * k))
    # H = sum c_i L_i + sum d_ij L_i L_j + h.c. on letters of norm <= 1; with
    # sum|c| + 2 sum|d| = 1 an accepted certificate t moves H, and so each
    # sorted eigenvalue (Weyl), by at most 2 t.  The slack doubles that.
    w = np.sum(abs(c)) + 2 * np.sum(abs(d))
    c, d = c / w, d / w
    c.flags.writeable = d.flags.writeable = False
    return c, d


def _intertwiner_space(L: np.ndarray, scale: float):
    """Null space of the intertwining equations on the spectral blocks.

    L stacks the two tuples' letters, shape (2, k, n, n).  Returns (V1, V2,
    I, J, basis): the intertwiners are V2 D V1* with D_IJ in the span of the
    columns of basis and D zero elsewhere; I = J = arange(n) for a simple
    spectrum, where D is diagonal.  None when the spectra or an empty null
    space rule out an intertwiner.
    """
    c, d = _h_coefficients(L.shape[1])
    Lh = np.concatenate([L, adj(L)], axis=1) / scale
    M = np.einsum("i,tiab->tab", c, Lh) + (Lh @ np.einsum("ij,tjab->tiab", d, Lh)).sum(1)
    lam, V = np.linalg.eigh(M + adj(M))
    slack = 4 * ACCEPT_THRESHOLD
    if np.any(abs(lam[0] - lam[1]) > slack):
        return None
    # An intertwiner maps each eigenspace of H_1 onto that of H_2.  Merge
    # clusters generously: a merge only enlarges a block, while a split can
    # lose a true intertwiner.
    gap = max(_MERGE_GAP * np.max(abs(lam[0])), 2 * slack)
    cluster = np.concatenate(([0], np.cumsum(np.diff(lam).min(0) > gap)))
    n = len(cluster)
    simple = cluster[-1] == n - 1
    I, J = (np.arange(n),) * 2 if simple else np.nonzero(cluster[:, None] == cluster)
    check_budget("intertwiner Gram operator", I.size, I.size)
    A, B = adj(V)[:, None] @ L @ V[:, None]

    # Gram operator G = sum K^H K of the Sylvester maps X -> B X - X A over the
    # letter pairs (T, T') and (T*, T'*), at the entries X_IJ:
    #   G_(ij),(kl) = d_jl (sum B^H B)_ik + (sum A A^H)^T_jl d_ik
    #                 - sum conj(A)_jl B_ik - sum A^T_jl B^H_ik.
    # Both letter pairs give the same cross terms, the second term being the
    # adjoint of the first.  On a simple spectrum the unknowns are X_ii, and
    # the diagonals of sum A A^H + A^H A are row and column sums of |A|^2.
    if simple:
        sq = (abs(A) ** 2 + abs(B) ** 2).sum(0)
        C = (A.conj() * B).sum(0)
        G = np.diag(sq.sum(0) + sq.sum(1)) - 2 * (C + adj(C))
    else:
        AA, BB = (A @ adj(A) + adj(A) @ A).sum(0), (B @ adj(B) + adj(B) @ B).sum(0)
        ii, jj = np.ix_(I, I), np.ix_(J, J)
        G = (J[:, None] == J) * BB[ii] + (I[:, None] == I) * AA.T[jj]
        for Ak, Bk in zip(A, B):
            C = Ak.conj()[jj] * Bk[ii]
            G -= 2 * (C + adj(C))
    evals, evecs = np.linalg.eigh(G)
    n_null = int(np.sum(evals <= (NULL_TOL * scale) ** 2))
    return (V[0], V[1], I, J, evecs[:, :n_null]) if n_null else None


def _polar_factor(x: np.ndarray, V1, V2, I, J) -> np.ndarray:
    """The unitary V2 W V1* with W the polar factor of D, D_IJ = x and 0 elsewhere.

    A diagonal D (I = J = arange(n)) has the polar factor diag(x / |x|), 1
    where x is 0; a block-diagonal D takes an SVD."""
    n = len(V1)
    if I.size == n:
        r = abs(x)
        return (V2 * np.divide(x, r, out=np.ones(n, dtype=complex), where=r > 0)) @ adj(V1)
    D = np.zeros((n, n), dtype=complex)
    D[I, J] = x
    W, _, Zh = np.linalg.svd(D)
    return V2 @ W @ Zh @ adj(V1)


def find_unitary_intertwiner(ops1, ops2):
    """Search for a unitary U with U T = T' U for every listed operator.

    Both lists must be non-empty, of equal length and each of square
    matrices of one size; otherwise DimensionMismatch.  Returns (U,
    certificate), the certificate being max ||U T - T' U|| / max(1, ||T||)
    over the letters, or (None, inf): always for lists of different sizes,
    and the empty U with certificate 0 for 0 x 0 lists.  Each norm is
    `screened_opnorm` at ACCEPT_THRESHOLD: an upper bound, exact above the
    threshold.  Three checks come first and only reject, each because it
    implies a certificate above the threshold:
    - a letter's singular values or trace differ by more than that
      threshold times max(1, ||T||), as max_k |s_k(T) - s_k(T')| <=
      ||U T U* - T'|| (Mirsky) and |tr T - tr T'| <= n ||U T U* - T'||;
    - the spectra of one random Hermitian element H of each tuple's
      *-algebra differ by more than its slack (_intertwiner_space);
    - the Gram null space below is empty.
    In the eigenbases of H the Gram operator of the joint Sylvester system
    is solved on the sum m_k^2 block-diagonal unknowns of the eigenvalue
    clusters; a simple spectrum takes the diagonal path, n unknowns and a
    polar factor that is the phase of D, with no SVD.  The null space is
    spanned by the eigenvectors with eigenvalues at most (NULL_TOL*scale)^2,
    and U is the polar factor of one element: on a line, as for every
    irreducible pair (Schur's lemma), the null vector D_0 with no draw, its
    multiples c D_0 sharing one certificate; on a wider space one element
    seeded from INTERTWINER_SEED, invertible whenever some element is, and
    the polar factor of an invertible intertwiner is a unitary one.  Raises
    ProblemTooLarge when the Gram operator would exceed GRAM_BUDGET_BYTES.
    """
    ops1 = [as_matrix(T) for T in ops1]
    ops2 = [as_matrix(T) for T in ops2]
    if len(ops1) != len(ops2) or not ops1:
        raise DimensionMismatch("operator lists must be non-empty and equal length")
    for name, ops in (("first", ops1), ("second", ops2)):
        n = ops[0].shape[0]
        if any(T.shape != (n, n) for T in ops):
            raise DimensionMismatch(f"{name} operator list has mismatched shapes")
    n = ops1[0].shape[0]
    if n != ops2[0].shape[0]:
        return None, np.inf
    if n == 0:
        return np.zeros((0, 0)), 0.0
    L = np.stack([ops1, ops2])
    s, tr = np.linalg.svd(L, compute_uv=False), np.trace(L, axis1=-2, axis2=-1)
    norms1 = np.maximum(1.0, s[0, :, 0])
    scale = max(norms1.max(), s[1, :, 0].max())
    bound = ACCEPT_THRESHOLD * norms1
    if np.any(abs(s[0] - s[1]).max(-1) > bound) or np.any(abs(tr[0] - tr[1]) / n > bound):
        return None, np.inf
    space = _intertwiner_space(L, scale)
    if space is None:
        return None, np.inf
    V1, V2, I, J, basis = space
    x = basis[:, 0]
    if basis.shape[1] > 1:
        z = np.random.default_rng([INTERTWINER_SEED, 1]).standard_normal((2, basis.shape[1]))
        x = basis @ (z[0] + 1j * z[1])
    U = _polar_factor(x, V1, V2, I, J)
    R = (U @ L[0] - L[1] @ U) / norms1[:, None, None]
    return U, float(np.max(screened_opnorm(R, ACCEPT_THRESHOLD)))


def joint_unitary_equiv(ops1, ops2) -> bool:
    """Joint unitary equivalence of two operator tuples.

    True exactly when find_unitary_intertwiner's certificate is at most
    ACCEPT_THRESHOLD = 100 RESIDUAL_TOL; the checks that reject before it is
    computed are each implied by it.  The certificate is that of one polar
    factor: of the null vector on a line (irreducible pairs), with no draw,
    else of one seeded element, invertible when an intertwiner exists; it
    bounds the spectral one above and is exact past the threshold, so the
    verdict is the spectral norm's; a simple spectrum of H takes the
    diagonal path, with no SVD after the singular-value screen.  0 x 0
    lists are equivalent.  Raises ProblemTooLarge as
    find_unitary_intertwiner does.
    """
    return find_unitary_intertwiner(ops1, ops2)[1] <= ACCEPT_THRESHOLD
