"""Classification of commuting pairs.

The hierarchy runs: P unitary with S = S*P and ||S|| <= 2 (the unitary
case); P isometric with the same algebra (the isometric case); and the
general case decided through the fundamental-operator equation

    S - S*P = D_P A D_P,   w(A) <= 1,

solved as a sandwiched least-squares problem on the defect space.  A von
Neumann sampling check and a joint unitary-equivalence test round out the
toolbox.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .defect import DefectData, defect_data
from .errors import DimensionMismatch, NotAContraction, NotCommuting, NotPureModelForm
from .gamma_point import boundary_grid
from .hardy import block_of
from .linalg import DEFAULT_TOL, Tolerance, adj, as_matrix, opnorm, sandwich_solve
from .numrad import WR_SLACK, numerical_radius
from .pair import OperatorPair, restrict

GAMMA_UNITARY = "GammaUnitary"
GAMMA_ISOMETRY = "GammaIsometry"
GAMMA_CONTRACTION = "GammaContraction"
NOT_GAMMA = "NotGamma"
INCONCLUSIVE = "Inconclusive"

@dataclass
class ClassificationReport:
    kind: str
    fundamental_op: Optional[np.ndarray] = None
    fundamental_residual: float = np.inf
    wA: float = np.inf
    wA_upper: float = np.inf
    checks: list = field(default_factory=list)
    defect: Optional[DefectData] = None

    def add(self, name: str, ok: bool, residual: float):
        self.checks.append((name, bool(ok), float(residual)))

    def failed(self):
        return [c for c in self.checks if not c[1]]


_UNITARY_CHECKS = ("P isometric", "P co-isometric", "S = S*P", "||S|| <= 2")
_ISOMETRY_CHECKS = ("P isometric", "S = S*P", "||S|| <= 2")


def _commutator_gate(pair: OperatorPair, tol: Tolerance) -> None:
    scale = max(1.0, opnorm(pair.S) * opnorm(pair.P))
    if pair.commutator_norm > tol.residual_tol * scale:
        raise NotCommuting(
            f"commutator norm {pair.commutator_norm:.3e} exceeds tolerance"
        )


def _algebra_checks(pair: OperatorPair, tol: Tolerance) -> dict:
    """Check name -> (ok, residual) for the unitary and isometric cases.

    Residuals are restricted to the pair's window; each is computed once.
    """
    S, P, w = pair.S, pair.P, pair.window
    eye = np.eye(P.shape[0])
    t = tol.residual_tol
    r_iso = opnorm(restrict(adj(P) @ P - eye, w))
    r_coiso = opnorm(restrict(P @ adj(P) - eye, w))
    r_sym = opnorm(restrict(S - adj(S) @ P, w))
    ns = opnorm(S)
    return {
        "P isometric": (r_iso <= t, r_iso),
        "P co-isometric": (r_coiso <= t, r_coiso),
        "S = S*P": (r_sym <= t, r_sym),
        "||S|| <= 2": (ns <= 2 + t, max(0.0, ns - 2)),
    }


def _passes(checks: dict, names) -> bool:
    return all(checks[name][0] for name in names)


def _algebra_verdict(pair: OperatorPair, tol: Tolerance, names, kind: str):
    _commutator_gate(pair, tol)
    checks = _algebra_checks(pair, tol)
    rep = ClassificationReport(kind=kind if _passes(checks, names) else NOT_GAMMA)
    for name in names:
        rep.add(name, *checks[name])
    return rep.kind == kind, rep


def is_gamma_unitary(pair: OperatorPair, tol: Tolerance = DEFAULT_TOL):
    return _algebra_verdict(pair, tol, _UNITARY_CHECKS, GAMMA_UNITARY)


def is_gamma_isometry(pair: OperatorPair, tol: Tolerance = DEFAULT_TOL):
    return _algebra_verdict(pair, tol, _ISOMETRY_CHECKS, GAMMA_ISOMETRY)


def fundamental_op(S, dd: DefectData, tol: Tolerance = DEFAULT_TOL):
    """Solve S - S*P = D_P A D_P, with dd the defect data of P = dd.P.

    Returns (A on the D_P defect basis, residual).  Called on S* with
    dd.adjoint() it yields the adjoint of the functional-model symbol.
    """
    X, residual = sandwich_solve(dd.D_P, dd.D_P, S - adj(S) @ dd.P, tol)
    return adj(dd.Q_dP) @ X @ dd.Q_dP, residual


def is_gamma_contraction(
    pair: OperatorPair,
    tol: Tolerance = DEFAULT_TOL,
    wr_slack: float = WR_SLACK,
) -> ClassificationReport:
    """Full classification of a commuting pair.

    Produces the strongest applicable kind; every sub-check is recorded in
    the report with its residual.  ||P|| <= 1 passes exactly when
    `defect_data` accepts P, and the report carries that DefectData.
    w(A) <= 1 passes when the certified upper bound on w(A) is at most
    1 + wr_slack; the answer is NotGamma when the lower bound exceeds it,
    and Inconclusive when the two bounds straddle it.
    """
    _commutator_gate(pair, tol)
    S, P = pair.S, pair.P
    algebra = _algebra_checks(pair, tol)
    try:
        dd = defect_data(P, tol)
    except NotAContraction:
        dd = None
    t = tol.residual_tol
    rep = ClassificationReport(kind=INCONCLUSIVE, defect=dd)
    rep.add("||P|| <= 1", dd is not None, max(0.0, opnorm(P) - 1))
    rep.add("||S|| <= 2", *algebra["||S|| <= 2"])
    if rep.failed():
        rep.kind = NOT_GAMMA
        return rep
    F, residual = fundamental_op(S, dd, tol)
    wr = numerical_radius(F, tol)
    rep.fundamental_op = F
    rep.fundamental_residual = residual
    rep.wA, rep.wA_upper = wr.value, wr.upper
    rep.add("fundamental equation consistent", residual <= t, residual)
    rep.add("w(A) <= 1", wr.upper <= 1 + wr_slack, max(0.0, wr.upper - 1))
    if residual > t or wr.value > 1 + wr_slack:
        rep.kind = NOT_GAMMA
    elif rep.failed():
        rep.kind = INCONCLUSIVE  # the bounds on w(A) straddle 1 + wr_slack
    elif _passes(algebra, _UNITARY_CHECKS):
        rep.kind = GAMMA_UNITARY
    elif _passes(algebra, _ISOMETRY_CHECKS):
        rep.kind = GAMMA_ISOMETRY
    else:
        rep.kind = GAMMA_CONTRACTION
    return rep


def recover_pure_symbol(pair: OperatorPair, N: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Read the symbol back off a truncated pure model pair.

    S* - S P* concentrates the symbol's adjoint in the degree-0 diagonal
    block; all other interior blocks must vanish.
    """
    S, P = pair.S, pair.P
    dim = S.shape[0]
    if dim % (N + 1) != 0:
        raise NotPureModelForm(f"dimension {dim} is not a multiple of N+1 = {N + 1}")
    b = dim // (N + 1)
    E = adj(S) - S @ adj(P)
    A = adj(E[:b, :b])
    scale = max(1.0, opnorm(A))
    worst = 0.0
    for i in range(N):
        for j in range(N):
            if i == 0 and j == 0:
                continue
            worst = max(worst, opnorm(block_of(E, b, b, i, j)))
    if worst > 1e-10 * scale:
        raise NotPureModelForm(
            f"off-block residual {worst:.3e} too large for a pure model pair"
        )
    return A


# ---------------------------------------------------------------------------
# von Neumann sampling
# ---------------------------------------------------------------------------


def _poly_on_boundary_sup(coeffs: np.ndarray, grid: int) -> float:
    """Sup of |p(s, p)| over the boundary grid, with one local refinement."""
    deg = coeffs.shape[0] - 1

    def _eval(svals, pvals):
        out = np.zeros_like(svals, dtype=complex)
        spow = np.ones_like(svals, dtype=complex)
        for a in range(deg + 1):
            ppow = np.ones_like(pvals, dtype=complex)
            for b in range(deg + 1):
                c = coeffs[a, b]
                if c != 0:
                    out += c * spow * ppow
                ppow = ppow * pvals
            spow = spow * svals
        return np.abs(out)

    svals, pvals = boundary_grid(grid)
    vals = _eval(svals, pvals)
    best = int(np.argmax(vals))
    sup = float(vals[best])
    # refine around the winning torus point
    tj = 2 * np.pi * (best // grid) / grid
    tk = 2 * np.pi * (best % grid) / grid
    h = 2 * np.pi / grid
    for _ in range(3):
        loc = np.linspace(-h, h, 17)
        a1, a2 = np.meshgrid(tj + loc, tk + loc, indexing="ij")
        z1, z2 = np.exp(1j * a1).ravel(), np.exp(1j * a2).ravel()
        v = _eval(z1 + z2, z1 * z2)
        k = int(np.argmax(v))
        sup = max(sup, float(v[k]))
        tj, tk = a1.ravel()[k], a2.ravel()[k]
        h /= 8
    return sup


def _poly_of_pair(coeffs: np.ndarray, S: np.ndarray, P: np.ndarray) -> np.ndarray:
    deg = coeffs.shape[0] - 1
    n = S.shape[0]
    out = np.zeros((n, n), dtype=complex)
    Spow = np.eye(n, dtype=complex)
    for a in range(deg + 1):
        Ppow = np.eye(n, dtype=complex)
        for b in range(deg + 1):
            c = coeffs[a, b]
            if c != 0:
                out += c * Spow @ Ppow
            Ppow = Ppow @ P
        Spow = Spow @ S
    return out


def von_neumann_margin(
    pair: OperatorPair,
    degree: int = 3,
    trials: int = 100,
    grid: int = 64,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
):
    """Minimum of sup-norm-on-boundary minus ||p(S, P)|| over sampled polynomials.

    The coordinate monomials are always included alongside the random
    trials, so canonical violations are found deterministically.  A
    negative margin certifies the pair is not a Gamma-contraction (up to
    grid slack).
    """
    _commutator_gate(pair, tol)
    rng = np.random.default_rng(seed)
    S, P = pair.S, pair.P

    def _coeff_array(pairs):
        c = np.zeros((degree + 1, degree + 1), dtype=complex)
        for (a, b), v in pairs:
            c[a, b] = v
        return c

    candidates = [_coeff_array([((1, 0), 1.0)]), _coeff_array([((0, 1), 1.0)])]
    for _ in range(trials):
        c = np.zeros((degree + 1, degree + 1), dtype=complex)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                c[a, b] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        candidates.append(c)

    min_margin = np.inf
    witness = candidates[0]
    for c in candidates:
        margin = _poly_on_boundary_sup(c, grid) - opnorm(_poly_of_pair(c, S, P))
        if margin < min_margin:
            min_margin = margin
            witness = c
    return float(min_margin), witness


# ---------------------------------------------------------------------------
# joint unitary equivalence
# ---------------------------------------------------------------------------


def _operator_lists(ops1, ops2):
    """Coerce two operator lists and check their shapes.

    Both lists must be non-empty and of equal length, and each must hold
    square matrices of one size; otherwise DimensionMismatch.
    """
    ops1 = [as_matrix(T) for T in ops1]
    ops2 = [as_matrix(T) for T in ops2]
    if len(ops1) != len(ops2) or not ops1:
        raise DimensionMismatch("operator lists must be non-empty and equal length")
    for name, ops in (("first", ops1), ("second", ops2)):
        n = ops[0].shape[0]
        if any(T.shape != (n, n) for T in ops):
            raise DimensionMismatch(f"{name} operator list has mismatched shapes")
    return ops1, ops2


def find_unitary_intertwiner(
    ops1,
    ops2,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
    null_tol: float = 1e-6,
):
    """Search for a unitary U with U T = T' U for every listed operator.

    The intertwiners of the operators and their adjoints form the null
    space of the Hermitian n^2 x n^2 Gram operator of the joint Sylvester
    system, spanned by its eigenvectors with eigenvalues at most
    (null_tol * scale)^2.  A unitary is extracted by polar decomposition of
    a random element of that space.  Returns (U, residual) or (None, inf).
    """
    ops1, ops2 = _operator_lists(ops1, ops2)
    n = ops1[0].shape[0]
    if n != ops2[0].shape[0]:
        return None, np.inf

    # Gram operator G = sum K^H K of the Sylvester maps X -> B X - X A, with
    # K = I (x) B - A^T (x) I on column-major vec(X), assembled from n x n
    # factors as one sum of Kronecker products; K itself is never formed.
    eye = np.eye(n)
    pairs = [
        (A, B) for T1, T2 in zip(ops1, ops2) for A, B in ((T1, T2), (adj(T1), adj(T2)))
    ]
    left = [eye, sum((A @ adj(A)).T for A, _ in pairs)]
    right = [sum(adj(B) @ B for _, B in pairs), eye]
    for A, B in pairs:
        left += [-A.T, -A.conj()]
        right += [adj(B), B]
    L = np.stack(left).reshape(len(left), n * n)
    R = np.stack(right).reshape(len(right), n * n)
    G = (L.T @ R).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    scale = max(1.0, max(opnorm(T) for T in ops1 + ops2))
    evals, evecs = np.linalg.eigh(G)
    n_null = int(np.sum(evals <= (null_tol * scale) ** 2))
    if n_null == 0:
        return None, np.inf
    basis = evecs[:, :n_null]

    rng = np.random.default_rng(seed)
    best_U, best_res = None, np.inf
    for _ in range(8):
        coef = rng.standard_normal(n_null) + 1j * rng.standard_normal(n_null)
        X = (basis @ coef).reshape((n, n), order="F")
        W, _, Zh = np.linalg.svd(X)
        U = W @ Zh
        res = max(
            opnorm(U @ T1 - T2 @ U) / max(1.0, opnorm(T1))
            for T1, T2 in zip(ops1, ops2)
        )
        if res < best_res:
            best_U, best_res = U, res
    return best_U, float(best_res)


def _trace_words_agree(ops1, ops2, max_len: int, tol: Tolerance) -> bool:
    """Exhaustive DFS over words in the operators and adjoints."""
    alpha1 = ops1 + [adj(T) for T in ops1]
    alpha2 = ops2 + [adj(T) for T in ops2]
    n = ops1[0].shape[0]
    nrm = max(1.0, max(opnorm(T) for T in alpha1 + alpha2))

    def agree(t1, t2, length):
        slack = tol.residual_tol * 10 * max(1.0, nrm**length, abs(t1), abs(t2))
        return abs(t1 - t2) <= slack

    if not agree(float(n), float(ops2[0].shape[0]), 0):
        return False

    stack = [(np.eye(n, dtype=complex), np.eye(n, dtype=complex), 0)]
    while stack:
        W1, W2, length = stack.pop()
        if length >= max_len:
            continue
        for L1, L2 in zip(alpha1, alpha2):
            V1, V2 = L1 @ W1, L2 @ W2
            if not agree(np.trace(V1), np.trace(V2), length + 1):
                return False
            stack.append((V1, V2, length + 1))
    return True


def joint_unitary_equiv(
    ops1,
    ops2,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Joint unitary equivalence of two operator tuples.

    The unitary-intertwiner certificate ||U T - T' U|| decides.  Traces of
    the words of length at most 2 in the operators and adjoints are compared
    first; they only reject, and a False from them is definitive.
    """
    ops1, ops2 = _operator_lists(ops1, ops2)
    n = ops1[0].shape[0]
    if n != ops2[0].shape[0]:
        return False
    if n == 0:
        return True
    if not _trace_words_agree(ops1, ops2, 2, tol):
        return False
    U, res = find_unitary_intertwiner(ops1, ops2, tol)
    return U is not None and res <= max(tol.residual_tol * 100, 1e-7)
