"""Seeded property suite.

Each criterion function draws its own inputs from a seed derived from the
run configuration, checks one package-level property, and reports a
CriterionResult.  The CLI `suite` subcommand and the acceptance tests both
run exactly these functions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .blh import (
    BlhSolution,
    blh_solve,
    invariance_check,
    make_problem,
    mirror_solve,
)
from .classify import (
    GAMMA_CONTRACTION,
    GAMMA_UNITARY,
    is_gamma_contraction,
    is_gamma_isometry,
    joint_unitary_equiv,
    recover_pure_symbol,
    von_neumann_margin,
)
from .defect import (
    DELTA_GRID,
    build_model_space,
    defect_data,
    delta_eval,
    theta_eval,
    theta_taylor,
)
from .dilation import compressed_scalar, gamma_unitary_synth, nf_ay_build, schaffer_build
from .dilation import factorization_check
from .gamma_point import beta_solve, in_gamma, symmetrize
from .generate import (
    random_commuting_unitaries,
    random_gamma_contraction,
    random_inner_poly,
    random_strict_contraction,
    random_symbol,
    random_unitary,
)
from .hardy import SymbolPoly, compress, gamma_isometry_model, shift_op
from .linalg import adj, opnorm
from .numrad import numerical_radius
from .pair import make_pair

RHO_CAP = 0.53  # keeps the geometric tail under the model-space gate at N = 32


@dataclass(frozen=True)
class RunConfig:
    """The suite's truncation degree N and seed; `dilate` also takes its default N from here."""

    N: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("N", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or not abs(v) <= sys.float_info.max:
                raise ValueError(f"{name} must be a finite int, got {v!r}")
        if self.N < 2:
            raise ValueError("truncation N must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


DEFAULT_CONFIG = RunConfig()


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _rng(cfg: RunConfig, salt: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, salt])


def criterion_scalar_oracle(cfg: RunConfig) -> CriterionResult:
    """Root test vs bidisc predicate vs beta characterization on 10^4 points."""
    rng = _rng(cfg, 1)
    n = 10_000
    moduli = 1.5 * np.sqrt(rng.random((n, 2)))
    angles = 2 * np.pi * rng.random((n, 2))
    zs = moduli * np.exp(1j * angles)
    root_dis = beta_dis = beta_checked = 0
    for z1, z2 in zs:
        pt = symmetrize(z1, z2)
        member = in_gamma(pt)
        if member != (abs(z1) <= 1 and abs(z2) <= 1):
            root_dis += 1
        if abs(pt.p) <= 1 - 1e-6:
            beta_checked += 1
            sol = beta_solve(pt)
            if (sol.exact and abs(sol.beta) <= 1 + 1e-9) != member:
                beta_dis += 1
    ok = root_dis == 0 and beta_dis == 0
    detail = (
        f"{n} samples: {root_dis} root/bidisc disagreements, "
        f"{beta_dis}/{beta_checked} beta disagreements"
    )
    return CriterionResult(1, "scalar oracle equivalence", ok, detail)


def criterion_gamma_unitary(cfg: RunConfig) -> CriterionResult:
    """Synthetic unitary pairs classify unitary; shrinking P breaks it."""
    rng = _rng(cfg, 2)
    bad_pos = bad_neg = 0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        U1, U2 = random_commuting_unitaries(rng, dim)
        pair = gamma_unitary_synth(U1, U2)
        if is_gamma_contraction(pair).kind != GAMMA_UNITARY:
            bad_pos += 1
        shrunk = make_pair(pair.S, 0.99 * pair.P)
        if is_gamma_contraction(shrunk).kind == GAMMA_UNITARY:
            bad_neg += 1
    ok = bad_pos == 0 and bad_neg == 0
    return CriterionResult(
        2,
        "Gamma-unitary criterion",
        ok,
        f"100 pairs: {bad_pos} misclassified, {bad_neg} perturbed still unitary",
    )


def criterion_symbol_recovery(cfg: RunConfig) -> CriterionResult:
    """Round trip A -> pure model pair -> recovered symbol."""
    rng = _rng(cfg, 3)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        A = random_symbol(rng, dim)
        model = gamma_isometry_model(A, 6)
        worst = max(worst, opnorm(recover_pure_symbol(model, 6) - A))
    ok = worst <= 1e-12
    return CriterionResult(3, "pure-model symbol recovery", ok, f"max error {worst:.3e}")


def criterion_fundamental_equation(cfg: RunConfig) -> CriterionResult:
    """Generated pairs classify via the defect-equation criterion; negatives fail."""
    rng = _rng(cfg, 4)
    worst_res = worst_w = worst_w_upper = 0.0
    bad = 0
    for _ in range(100):
        pair = random_gamma_contraction(rng)
        rep = is_gamma_contraction(pair)
        if rep.kind != GAMMA_CONTRACTION:
            bad += 1
        worst_res = max(worst_res, rep.fundamental_residual)
        worst_w = max(worst_w, rep.wA)
        worst_w_upper = max(worst_w_upper, rep.wA_upper)
    neg1 = is_gamma_contraction(make_pair(np.diag([1.2, 0.0]), np.zeros((2, 2))))
    neg2 = is_gamma_contraction(make_pair([[2.2]], [[1.0]]))
    ok = (
        bad == 0
        and worst_res <= 1e-10
        and worst_w_upper <= 1 + 1e-8  # a lower bound on w(A) never licenses a pass
        and neg1.kind == "NotGamma"
        and neg2.kind == "NotGamma"
    )
    detail = (
        f"100 pairs: {bad} misclassified, max residual {worst_res:.3e}, "
        f"max w(A) {worst_w:.12f}; negatives {neg1.kind}/{neg2.kind}"
    )
    return CriterionResult(4, "fundamental-operator criterion", ok, detail)


def criterion_von_neumann(cfg: RunConfig) -> CriterionResult:
    """Polynomial sampling margin on generated pairs; scalar violation found."""
    rng = _rng(cfg, 4)  # same draw as criterion 4 on purpose
    worst = np.inf
    for i in range(100):
        pair = random_gamma_contraction(rng)
        margin, _ = von_neumann_margin(
            pair, degree=3, trials=100, seed=cfg.seed + i
        )
        worst = min(worst, margin)
    bad_margin, _ = von_neumann_margin(
        make_pair([[2.2]], [[1.0]]), degree=3, trials=100, seed=cfg.seed
    )
    ok = worst >= -1e-6 and bad_margin <= -0.19
    detail = f"min margin {worst:.3e} over 100 pairs; violation margin {bad_margin:.3f}"
    return CriterionResult(5, "von Neumann inequality", ok, detail)


def criterion_char_fn(cfg: RunConfig) -> CriterionResult:
    """Moebius coefficients, boundary contractivity, vanishing boundary defect."""
    rng = _rng(cfg, 6)
    worst_coeff = 0.0
    for c in (0.3, 0.5, 0.9):
        taylor = theta_taylor(defect_data([[c]]), 20)
        expect = [-c] + [(1 - c * c) * c ** (k - 1) for k in range(1, 21)]
        got = [taylor.coeffs[k][0, 0] for k in range(21)]
        worst_coeff = max(worst_coeff, max(abs(g - e) for g, e in zip(got, expect)))
    worst_norm = worst_delta = 0.0
    ts = 2 * np.pi * np.arange(DELTA_GRID) / DELTA_GRID
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        P = random_strict_contraction(rng, dim, 0.9)
        dd = defect_data(P)
        worst_norm = max(worst_norm, np.max(opnorm(theta_eval(dd, np.exp(1j * ts)))))
        worst_delta = max(worst_delta, np.max(opnorm(delta_eval(dd, ts))))
    ok = worst_coeff <= 1e-12 and worst_norm <= 1 + 1e-9 and worst_delta <= 1e-7
    detail = (
        f"Moebius error {worst_coeff:.3e}; max boundary norm {worst_norm:.12f}; "
        f"max defect {worst_delta:.3e}"
    )
    return CriterionResult(6, "characteristic function", ok, detail)


def criterion_nf_model(cfg: RunConfig) -> CriterionResult:
    """Model-space shift compression and embedding identities."""
    rng = _rng(cfg, 7)
    bad_equiv = 0
    worst_id = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        P = random_strict_contraction(rng, dim, 0.9, rho_max=RHO_CAP)
        dd = defect_data(P)
        ms = build_model_space(dd, cfg.N)
        Mz, Pi = shift_op(dd.rank_dPstar, cfg.N), ms.basis
        P_model = compress(Mz, Pi)
        if not joint_unitary_equiv([P_model], [P]):
            bad_equiv += 1
        worst_id = max(
            worst_id,
            opnorm(P_model - P),
            opnorm(adj(Mz) @ Pi - Pi @ adj(P)),
            opnorm(adj(Pi) @ Pi - np.eye(dim)),
        )
    ok = bad_equiv == 0 and worst_id <= 1e-5
    detail = (
        f"20 contractions: {bad_equiv} inequivalent shifts, "
        f"max embedding residual {worst_id:.3e}"
    )
    return CriterionResult(7, "Nagy-Foias model", ok, detail)


def criterion_nf_ay_model(cfg: RunConfig) -> CriterionResult:
    """Round-trip model equivalence and the scalar compressed-scalar values."""
    rng = _rng(cfg, 8)
    bad = 0
    worst = 0.0
    for _ in range(20):
        pair = random_gamma_contraction(rng)
        m = nf_ay_build(pair, cfg.N)
        res = max(m.residual_S, m.residual_P)
        worst = max(worst, res)
        if res > m.tolerance_bound:
            bad += 1
    m = nf_ay_build(make_pair([[1.2]], [[0.5]]), cfg.N)
    s_err = abs(m.S_model[0, 0] - 1.2)
    x_err = abs(compressed_scalar(m).X[0, 0] - 0.8)
    ok = bad == 0 and s_err <= 1e-6 and x_err <= 1e-6
    detail = (
        f"20 round trips: {bad} over bound, worst residual {worst:.3e}; "
        f"scalar s error {s_err:.3e}, X error {x_err:.3e}"
    )
    return CriterionResult(8, "NF-AY model and compressed scalar", ok, detail)


def criterion_schaffer(cfg: RunConfig) -> CriterionResult:
    """Exact adjoint intertwinings; the dilation pair is a Gamma-isometry."""
    rng = _rng(cfg, 9)
    worst = 0.0
    bad_iso = 0
    for _ in range(20):
        pair = random_gamma_contraction(rng)
        sp = schaffer_build(pair, cfg.N)
        worst = max(
            worst,
            opnorm(adj(sp.V) @ sp.embed - sp.embed @ adj(pair.P)),
            opnorm(adj(sp.W) @ sp.embed - sp.embed @ adj(pair.S)),
        )
        iso_ok, _ = is_gamma_isometry(sp.as_pair())
        if not iso_ok:
            bad_iso += 1
    ok = worst <= 1e-12 and bad_iso == 0
    detail = f"max intertwining residual {worst:.3e}; {bad_iso} isometry failures"
    return CriterionResult(9, "Schaffer dilation", ok, detail)


def _blh_instance(rng: np.random.Generator):
    """One (A, theta) instance: shift-type theta, least-squares A from mirror_solve, or random A."""
    e = int(rng.integers(1, 4))
    branch = int(rng.integers(0, 3))
    if branch == 0:
        # shift-type theta: W z^m, solvable for every A
        m = int(rng.integers(1, 4))
        W = random_unitary(rng, e)
        zero = np.zeros((e, e))
        theta = SymbolPoly([zero] * m + [W])
        return random_symbol(rng, e), theta
    theta = random_inner_poly(rng, e, int(rng.integers(1, 4)))
    if branch == 1:
        # least-squares A from a random B0 with w(B0) <= 1: solved by B0, by another B or by none
        B0 = random_symbol(rng, e)
        A = mirror_solve(B0, theta)
        return A, theta
    return random_symbol(rng, e), theta


def criterion_blh(cfg: RunConfig) -> CriterionResult:
    """Solver/invariance iff on 200 instances plus the pinned examples."""
    rng = _rng(cfg, 10)
    disagree = wb_bad = 0
    done = 0
    while done < 200:
        A, theta = _blh_instance(rng)
        prob = make_problem(A, theta)
        sol = blh_solve(prob)
        # skip knife-edge instances where the threshold itself is the question
        if 1e-10 < sol.residual < 1e-4:
            continue
        done += 1
        invariant, _ = invariance_check(A, theta, max(8, theta.degree + 2))
        if isinstance(sol, BlhSolution) != invariant:
            disagree += 1
        if (
            isinstance(sol, BlhSolution)
            and prob.is_inner
            and numerical_radius(A).upper <= 1
            and sol.wB > 1 + 1e-6
        ):
            wb_bad += 1

    A = random_symbol(rng, 2)
    zI = SymbolPoly([np.zeros((2, 2)), np.eye(2)])
    sol_z = blh_solve(make_problem(A, zI))
    err_z = opnorm(sol_z.B - A) if isinstance(sol_z, BlhSolution) else np.inf

    W = random_unitary(rng, 3)
    A3 = random_symbol(rng, 3)
    sol_w = blh_solve(make_problem(A3, SymbolPoly([W])))
    err_w = opnorm(sol_w.B - adj(W) @ A3 @ W) if isinstance(sol_w, BlhSolution) else np.inf

    diag_theta = SymbolPoly([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
    counter = blh_solve(make_problem(np.array([[0, 2], [0, 0]]), diag_theta))
    counter_ok = (not isinstance(counter, BlhSolution)) and counter.residual >= 1

    ok = disagree == 0 and wb_bad == 0 and err_z <= 1e-12 and err_w <= 1e-12 and counter_ok
    detail = (
        f"200 instances: {disagree} iff disagreements, {wb_bad} w(B) violations; "
        f"zI error {err_z:.3e}, unitary error {err_w:.3e}, "
        f"counterexample residual {getattr(counter, 'residual', 0.0):.3f}"
    )
    return CriterionResult(10, "BLH intertwining theorem", ok, detail)


def criterion_complete_invariant(cfg: RunConfig) -> CriterionResult:
    """(X, P) equivalence matches (S, P) equivalence on conjugates and strangers."""
    rng = _rng(cfg, 11)
    mismatch = 0
    for i in range(50):
        pair1 = random_gamma_contraction(rng)
        if i % 2 == 0:
            U = random_unitary(rng, pair1.dim)
            pair2 = make_pair(U @ pair1.S @ adj(U), U @ pair1.P @ adj(U))
        else:
            pair2 = random_gamma_contraction(rng)
        m1 = nf_ay_build(pair1, cfg.N)
        m2 = nf_ay_build(pair2, cfg.N)
        X1 = compressed_scalar(m1).X
        X2 = compressed_scalar(m2).X
        eq_sp = joint_unitary_equiv([pair1.S, pair1.P], [pair2.S, pair2.P])
        eq_xp = joint_unitary_equiv([X1, m1.P_model], [X2, m2.P_model])
        if eq_sp != eq_xp:
            mismatch += 1
    ok = mismatch == 0
    return CriterionResult(
        11, "joint complete unitary invariant", ok, f"50 cases: {mismatch} mismatches"
    )


def criterion_factorization(cfg: RunConfig) -> CriterionResult:
    """Schaffer dilation factors through the minimal one isometrically."""
    rng = _rng(cfg, 12)
    worst_iso = worst_wd = 0.0
    for _ in range(20):
        pair = random_gamma_contraction(rng)
        sp = schaffer_build(pair, cfg.N)
        _, iso_res, wd_res = factorization_check(pair, (sp.V, sp.embed), cfg.N)
        worst_iso = max(worst_iso, iso_res)
        worst_wd = max(worst_wd, wd_res)
    ok = worst_iso <= 1e-8 and worst_wd <= 1e-8
    detail = f"max isometry residual {worst_iso:.3e}, max well-definedness residual {worst_wd:.3e}"
    return CriterionResult(12, "dilation factorization", ok, detail)


CRITERIA: List[Callable[[RunConfig], CriterionResult]] = [
    criterion_scalar_oracle,
    criterion_gamma_unitary,
    criterion_symbol_recovery,
    criterion_fundamental_equation,
    criterion_von_neumann,
    criterion_char_fn,
    criterion_nf_model,
    criterion_nf_ay_model,
    criterion_schaffer,
    criterion_blh,
    criterion_complete_invariant,
    criterion_factorization,
]


def run_suite(cfg: RunConfig = DEFAULT_CONFIG) -> List[CriterionResult]:
    return [crit(cfg) for crit in CRITERIA]
