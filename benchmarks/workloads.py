"""Seeded inputs, operations and known-answer oracles for the benchmark.

Each workload builds a list of *rounds* from one seed.  A round is a fixed
sequence of items whose shape (slice, dimension, conjugate or stranger) is
the same for every seed; only the random content changes.  The closed loop
always runs whole rounds, so every run sees the same mix and its medians
stay comparable across seeds.

Every known answer comes from how the input was built (a generator
theorem, the eigenvalues of a normal matrix, a closed-form intertwiner, a
trace invariant), never from the code under test.  Inputs are never
dropped or re-drawn because of what the code under test answers; the only
re-draws select a construction property (a dimension, or a stranger whose
trace invariants differ from the pair it is compared with).

All calls into symbidisc go through the package namespace at call time, so
the span recorder in spans.py sees them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

import symbidisc as sd

INCONCLUSIVE = "Inconclusive"
MODEL_N = 32  # truncation used by the suite's model and dilation criteria
RESIDUAL_MAX = 1e-8  # model, factorization and S = X + P X* residuals
INTERTWINING_MAX = 1e-12  # Schaffer adjoint intertwinings are exact
VN_MARGIN_MIN = -1e-6
VN_VIOLATION_MAX = -0.19  # the scalar pair (2.2, 1) violates von Neumann
CLOSED_FORM_B_TOL = 1e-10
MAX_DRAWS = 2000


@dataclass
class Item:
    """One operation's input with its known answer."""

    slice: str
    data: Any
    expect: Any = None


@dataclass
class Outcome:
    """How one answer compares with the known answer.

    `ok` is the verdict of the oracle.  `inconclusive` marks an answer of
    Inconclusive on an input where that answer is allowed.  `known_defect`
    marks a wrong answer on the slice that exposes a defect the project
    already tracks; such an answer is counted apart from `failed` and
    reported on its own.
    """

    ok: bool
    inconclusive: bool = False
    known_defect: bool = False
    detail: str = ""


@dataclass
class Workload:
    build: Callable[[np.random.Generator], List[List[Item]]]
    op: Callable[[Item], Any]
    check: Callable[[Item, Any], Outcome]
    warmup: Callable[[List[List[Item]]], Item]


def adj(M):
    return M.conj().T


def haar_conjugate(rng, S, P):
    U = sd.random_unitary(rng, S.shape[0])
    return U @ S @ adj(U), U @ P @ adj(U)


def trace_invariants(S, P) -> np.ndarray:
    """Traces of words in S, P and adjoints: equal for unitarily equivalent pairs."""
    return np.array(
        [np.trace(S), np.trace(adj(S) @ S), np.trace(adj(S) @ P), np.trace(adj(P) @ P)]
    )


def invariants_separate(pair1, pair2) -> bool:
    """True when a trace invariant proves the two pairs inequivalent."""
    a = trace_invariants(pair1[0], pair1[1])
    b = trace_invariants(pair2[0], pair2[1])
    return float(np.max(np.abs(a - b))) > 1e-6 * max(1.0, float(np.max(np.abs(a))))


class PairsByDim:
    """random_gamma_contraction pairs grouped by dimension, handed out in draw order.

    A fixed batch is drawn up front, so set-up time does not depend on how
    soon the seed happens to produce a wanted dimension; more are drawn only
    when a dimension runs out.
    """

    def __init__(self, rng, batch: int):
        self.rng = rng
        self.by_dim = defaultdict(list)
        for _ in range(batch):
            self._draw()

    def _draw(self):
        pair = sd.random_gamma_contraction(self.rng)
        self.by_dim[pair.dim].append(pair)

    def take(self, n: int):
        for _ in range(MAX_DRAWS):
            if self.by_dim[n]:
                return self.by_dim[n].pop(0)
            self._draw()
        raise RuntimeError(f"no generated pair of dimension {n} in {MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# classify: one is_gamma_contraction call
# ---------------------------------------------------------------------------

# One block of twenty slots: 80% generated, 10% unitary, 5% knife-edge each side.
CLASSIFY_BLOCK = ["gamma"] * 8 + ["unitary", "knife_out"] + ["gamma"] * 8 + ["unitary", "knife_in"]
CLASSIFY_BLOCKS = 20  # 400 slots a round, 20 knife-edge negatives among them
CLASSIFY_DISTINCT_GAMMA = 80


def knife_edge_pair(rng, n: int, outside: bool):
    """(S, 0) with S normal: one eigenvalue of modulus 1 +/- delta, the rest on the circle.

    Because S is normal, w(S) = max |eigenvalue|, and with P = 0 the pair is
    a Gamma-contraction exactly when w(S) <= 1.
    """
    delta = 10.0 ** rng.uniform(-6, -4)
    moduli = np.ones(n)
    moduli[0] = 1 + delta if outside else 1 - delta
    eigs = moduli * np.exp(2j * np.pi * rng.random(n))
    U = sd.random_unitary(rng, n)
    S = (U * eigs) @ adj(U)
    return sd.make_pair(S, np.zeros((n, n), dtype=complex))


def build_classify(rng) -> List[List[Item]]:
    gamma = [Item("gamma", sd.random_gamma_contraction(rng), sd.GAMMA_CONTRACTION)
             for _ in range(CLASSIFY_DISTINCT_GAMMA)]
    round_, used = [], 0
    for _ in range(CLASSIFY_BLOCKS):
        for slot in CLASSIFY_BLOCK:
            if slot == "gamma":
                round_.append(gamma[used % len(gamma)])
                used += 1
            elif slot == "unitary":
                U1, U2 = sd.random_commuting_unitaries(rng, int(rng.integers(1, 5)))
                round_.append(Item(slot, sd.gamma_unitary_synth(U1, U2), sd.GAMMA_UNITARY))
            else:
                outside = slot == "knife_out"
                pair = knife_edge_pair(rng, int(rng.integers(2, 7)), outside)
                round_.append(Item(slot, pair, sd.NOT_GAMMA if outside else sd.GAMMA_CONTRACTION))
    return [round_]


def op_classify(item: Item):
    return sd.is_gamma_contraction(item.data).kind


def check_classify(item: Item, kind) -> Outcome:
    knife = item.slice.startswith("knife")
    if kind == item.expect:
        return Outcome(True)
    if kind == INCONCLUSIVE and knife:
        return Outcome(True, inconclusive=True)
    detail = f"{item.slice}: expected {item.expect}, got {kind}"
    # w(A) within 1e-4 of 1 is misjudged by the angle-grid numerical radius
    return Outcome(False, known_defect=item.slice == "knife_out", detail=detail)


# ---------------------------------------------------------------------------
# model: one complete-invariant comparison (suite criterion 11)
# ---------------------------------------------------------------------------

# (relation, dimension) of each comparison in a round: two conjugates to a stranger.
MODEL_ROUND = [("conjugate", 6), ("conjugate", 10), ("stranger", 8)]
MODEL_ROUNDS = 2
MODEL_BATCH = 100


def build_model(rng) -> List[List[Item]]:
    pairs = PairsByDim(rng, MODEL_BATCH)
    rounds = []
    for _ in range(MODEL_ROUNDS):
        round_ = []
        for relation, n in MODEL_ROUND:
            pair1 = pairs.take(n)
            if relation == "conjugate":
                pair2 = sd.make_pair(*haar_conjugate(rng, pair1.S, pair1.P))
            else:
                pair2 = pairs.take(n)
                while not invariants_separate((pair1.S, pair1.P), (pair2.S, pair2.P)):
                    pair2 = pairs.take(n)
            round_.append(Item(relation, (pair1, pair2), relation == "conjugate"))
        rounds.append(round_)
    return rounds


def op_model(item: Item):
    pair1, pair2 = item.data
    m1 = sd.nf_ay_build(pair1, MODEL_N)
    m2 = sd.nf_ay_build(pair2, MODEL_N)
    X1 = sd.compressed_scalar(m1).X
    X2 = sd.compressed_scalar(m2).X
    eq_sp = sd.joint_unitary_equiv([pair1.S, pair1.P], [pair2.S, pair2.P])
    eq_xp = sd.joint_unitary_equiv([X1, m1.P_model], [X2, m2.P_model])
    return m1, m2, X1, X2, eq_sp, eq_xp


def model_residual(pair, model, X) -> float:
    """Largest of the model's defining residuals, recomputed from its matrices."""
    U = model.intertwiner
    if U is None:
        return np.inf
    return max(
        np.linalg.norm(U @ model.S_model - pair.S @ U, 2),
        np.linalg.norm(U @ model.P_model - pair.P @ U, 2),
        np.linalg.norm(model.S_model - (X + model.P_model @ adj(X)), 2),
    )


def check_model(item: Item, result) -> Outcome:
    m1, m2, X1, X2, eq_sp, eq_xp = result
    pair1, pair2 = item.data
    res = max(model_residual(pair1, m1, X1), model_residual(pair2, m2, X2))
    problems = []
    if eq_sp != item.expect:
        problems.append(f"(S, P) equivalence {eq_sp}")
    if eq_xp != item.expect:
        problems.append(f"(X, P) equivalence {eq_xp}")
    if not res <= RESIDUAL_MAX:
        problems.append(f"model residual {res:.3e}")
    return Outcome(not problems, detail=f"{item.slice} n={pair1.dim}: " + ", ".join(problems))


# ---------------------------------------------------------------------------
# certify: von Neumann margin, Schaffer dilation, factorization, BLH
# ---------------------------------------------------------------------------

# Ten slots: one scalar von Neumann violation, and the BLH instance kinds.
CERTIFY_PAIRS = ["gamma"] * 4 + ["violation"] + ["gamma"] * 5
CERTIFY_BLH = ["zI", "unitary", "shift", "generic", "counter",
               "zI", "unitary", "shift", "generic", "generic"]
CERTIFY_SLOTS = 20


def blh_instance(rng, kind: str):
    """(A, theta, closed-form B or None, solvable or None) for one BLH kind."""
    e = int(rng.integers(1, 4))
    if kind == "counter":
        theta = sd.SymbolPoly([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        return np.array([[0, 2], [0, 0]], dtype=complex), theta, None, False
    A = sd.random_symbol(rng, e)
    zero = np.zeros((e, e), dtype=complex)
    if kind == "zI":
        return A, sd.SymbolPoly([zero, np.eye(e)]), A, True
    if kind in ("unitary", "shift"):
        # (A + A* z) W z^m = W z^m (B + B* z) holds with B = W* A W
        W = sd.random_unitary(rng, e)
        m = 0 if kind == "unitary" else int(rng.integers(1, 4))
        return A, sd.SymbolPoly([zero] * m + [W]), adj(W) @ A @ W, True
    theta = sd.random_inner_poly(rng, e, int(rng.integers(1, 4)))
    return A, theta, None, None


def build_certify(rng) -> List[List[Item]]:
    round_ = []
    for i in range(CERTIFY_SLOTS):
        pair_kind = CERTIFY_PAIRS[i % len(CERTIFY_PAIRS)]
        blh_kind = CERTIFY_BLH[i % len(CERTIFY_BLH)]
        if pair_kind == "violation":
            pair = sd.make_pair([[2.2]], [[1.0]])
        else:
            pair = sd.random_gamma_contraction(rng)
        round_.append(Item(f"{pair_kind}+{blh_kind}", (pair, i, blh_instance(rng, blh_kind))))
    return [round_]


def op_certify(item: Item):
    pair, vn_seed, (A, theta, _, _) = item.data
    margin, _ = sd.von_neumann_margin(pair, degree=3, trials=100, grid=64, seed=vn_seed)
    dilation = None
    if not item.slice.startswith("violation"):
        sp = sd.schaffer_build(pair, MODEL_N)
        _, iso_res, block_res = sd.factorization_check(pair, (sp.V, sp.embed), MODEL_N)
        dilation = sp, iso_res, block_res
    sol = sd.blh_solve(sd.make_problem(A, theta))
    invariant, _ = sd.invariance_check(A, theta, max(8, theta.degree + 2))
    return margin, dilation, sol, invariant


def check_certify(item: Item, result) -> Outcome:
    pair, _, (A, _, B_known, solvable) = item.data
    margin, dilation, sol, invariant = result
    problems = []
    if dilation is None:
        if not margin <= VN_VIOLATION_MAX:
            problems.append(f"violation margin {margin:.3e}")
    else:
        if not margin >= VN_MARGIN_MIN:
            problems.append(f"von Neumann margin {margin:.3e}")
        sp, iso_res, block_res = dilation
        inter = max(
            np.linalg.norm(adj(sp.V) @ sp.embed - sp.embed @ adj(pair.P), 2),
            np.linalg.norm(adj(sp.W) @ sp.embed - sp.embed @ adj(pair.S), 2),
        )
        if not inter <= INTERTWINING_MAX:
            problems.append(f"Schaffer intertwining {inter:.3e}")
        if not max(iso_res, block_res) <= RESIDUAL_MAX:
            problems.append(f"factorization residuals {iso_res:.3e}/{block_res:.3e}")
    solved = isinstance(sol, sd.BlhSolution)
    if solvable is None:
        if solved != invariant:
            problems.append(f"solver {solved} but invariance {invariant}")
    else:
        if solved != solvable or invariant != solvable:
            problems.append(f"solver {solved}, invariance {invariant}, expected {solvable}")
        if B_known is not None and solved:
            err = np.linalg.norm(sol.B - B_known, 2)
            if not err <= CLOSED_FORM_B_TOL * max(1.0, np.linalg.norm(A, 2)):
                problems.append(f"B error {err:.3e}")
        if not solvable and not solved and not sol.residual >= 1:
            problems.append(f"counterexample residual {sol.residual:.3e}")
    return Outcome(not problems, detail=f"{item.slice}: " + ", ".join(problems))


# ---------------------------------------------------------------------------
# scale: classify and compare Haar-conjugated truncated pure model pairs
# ---------------------------------------------------------------------------

# (relation, block size b, truncation N) with n = b (N + 1) in 16..28.  The
# Kronecker intertwiner outgrows the trace-word search only near n = 28, so
# both conjugates sit there; a stranger is rejected by the search alone.
SCALE_ROUND = [("conjugate", 4, 6), ("conjugate", 2, 13), ("stranger", 2, 7)]
SCALE_ROUNDS = 2


def model_pair(rng, b: int, N: int):
    pair = sd.gamma_isometry_model(sd.random_symbol(rng, b), N)
    return pair.S, pair.P


def build_scale(rng) -> List[List[Item]]:
    rounds = []
    for _ in range(SCALE_ROUNDS):
        round_ = []
        for relation, b, N in SCALE_ROUND:
            first = model_pair(rng, b, N)
            if relation == "conjugate":
                second = haar_conjugate(rng, *first)
            else:
                other = model_pair(rng, b, N)
                while not invariants_separate(first, other):
                    other = model_pair(rng, b, N)
                second = haar_conjugate(rng, *other)
            round_.append(Item(relation, (first, second), relation == "conjugate"))
        rounds.append(round_)
    return rounds


def op_scale(item: Item):
    (S1, P1), (S2, P2) = item.data
    kind = sd.is_gamma_contraction(sd.make_pair(S2, P2)).kind
    return kind, sd.joint_unitary_equiv([S1, P1], [S2, P2])


def check_scale(item: Item, result) -> Outcome:
    kind, equivalent = result
    problems = []
    # a co-invariant truncation of a Gamma-isometry is a Gamma-contraction
    if kind != sd.GAMMA_CONTRACTION:
        problems.append(f"kind {kind}")
    if equivalent != item.expect:
        problems.append(f"equivalence {equivalent}")
    n = item.data[0][0].shape[0]
    return Outcome(not problems, detail=f"{item.slice} n={n}: " + ", ".join(problems))


def _first(rounds: List[List[Item]], relation: Optional[str]) -> Item:
    return next(it for it in rounds[0] if relation is None or it.slice == relation)


WORKLOADS = {
    "classify": Workload(build_classify, op_classify, check_classify,
                         lambda rounds: _first(rounds, "gamma")),
    "model": Workload(build_model, op_model, check_model,
                      lambda rounds: _first(rounds, "stranger")),
    "certify": Workload(build_certify, op_certify, check_certify,
                        lambda rounds: _first(rounds, None)),
    "scale": Workload(build_scale, op_scale, check_scale,
                      lambda rounds: _first(rounds, "stranger")),
}
