import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisc import numrad
from symbidisc.classify import is_gamma_contraction
from symbidisc.errors import ProblemTooLarge
from symbidisc.generate import random_gamma_contraction, random_unitary
from symbidisc.linalg import adj, opnorm
from symbidisc.numrad import WR_SLACK, decide_wr, numerical_radius

EPS = np.finfo(float).eps


def _dense_max(A, angles=20_000, chunk=1000):
    """Max of the top eigenvalue of Re(e^{i theta} A) over a uniform grid, stacked."""
    thetas = 2 * np.pi * np.arange(angles) / angles
    best = -np.inf
    for start in range(0, angles, chunk):
        z = np.exp(1j * thetas[start:start + chunk])[:, None, None]
        H = 0.5 * (z * A + np.conj(z) * adj(A))
        best = max(best, float(np.max(np.linalg.eigvalsh(H)[:, -1])))
    return best


def _normal(rng, eigs):
    n = len(eigs)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (Q * np.asarray(eigs)) @ adj(Q)


def _random(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), None


def _knife_edge(delta, seed):
    # normal, with one eigenvalue of modulus 1 + delta and the rest on the
    # circle: w is the largest eigenvalue modulus
    rng = np.random.default_rng(seed)
    eigs = np.exp(2j * np.pi * rng.random(4))
    eigs[0] *= 1 + delta
    return _normal(rng, eigs), max(1.0, 1 + delta)


def _hermitian():
    B, _ = _random(4, 12)
    H = B + adj(B)
    return H, float(np.max(np.abs(np.linalg.eigvalsh(H))))


# name -> (A, known w or None)
BOUND_CASES = {
    **{f"random-{n}-{seed}": _random(n, seed) for n in (2, 3, 8, 20) for seed in (0, 1)},
    # w(J_n) = cos(pi / (n + 1))
    **{f"jordan-{n}": (np.diag(np.ones(n - 1), 1), np.cos(np.pi / (n + 1))) for n in range(2, 6)},
    # numerical range is the unit disk, so f is flat
    "disk": (np.array([[0.0, 2.0], [0.0, 0.0]]), 1.0),
    "hermitian": _hermitian(),
    # maximum at theta = pi
    "minus-identity": (-np.eye(3), 1.0),
    "scalar-identity": ((0.3 + 0.4j) * np.eye(3), 0.5),
    "zero": (np.zeros((3, 3)), 0.0),
    # singular, so s = 1 (z = infinity) is a root of the Cayley-mapped
    # quadratic; the zero column makes the computed root exactly 1.  For
    # [[a, b], [0, c]] with a, c >= 0, w = (a + c + sqrt((a - c)^2 + |b|^2)) / 2
    "zero-row": (np.array([[0.5, 1.0], [0.0, 0.0]]), (0.5 + np.sqrt(1.25)) / 2),
    "zero-column": (np.array([[0.0, 1.0], [0.0, 1.0]]), (1 + np.sqrt(2)) / 2),
    "knife-outside": _knife_edge(1e-6, 13),
    "knife-inside": _knife_edge(-1e-6, 14),
    # ROADMAP counterexample: the peak sits between the angles of a uniform grid
    "off-grid-peak": (np.diag([1.0, 1.000005 * np.exp(1j * (np.pi / 2 + np.pi / 720))]), 1.000005),
}


@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_two_sided_bounds(name):
    A, known = BOUND_CASES[name]
    A = np.asarray(A, dtype=complex)
    res = numerical_radius(A)
    w = known if known is not None else res.value
    rounding = 8 * EPS * max(1.0, opnorm(A))
    assert res.value <= res.upper
    assert res.upper - res.value <= numrad.CONVERGENCE_TOL * max(1.0, w) + rounding
    assert 1 <= res.steps <= numrad.MAX_LEVEL_SETS
    assert res.upper >= _dense_max(A)
    if known is not None:
        assert res.value - rounding <= known <= res.upper


def test_level_set_cap_falls_back_to_the_norm(monkeypatch):
    # with no level-set step allowed, the upper bound is ||A|| >= w(A)
    monkeypatch.setattr(numrad, "MAX_LEVEL_SETS", 0)
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    res = numerical_radius(A)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.upper == pytest.approx(2.0, abs=1e-12)
    assert res.steps == 0


def test_jordan_block_oracle():
    # w([[0, 2], [0, 0]]) = 1: half the norm for a nilpotent 2x2 block
    res = numerical_radius([[0.0, 2.0], [0.0, 0.0]])
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_normal_matrix_gives_spectral_radius():
    D = np.diag([0.5, -0.25 + 0.5j, 0.9j])
    res = numerical_radius(D)
    assert res.value == pytest.approx(0.9, abs=1e-10)


def test_hermitian_matrix():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = B + adj(B)
    res = numerical_radius(H)
    assert res.value == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(H))), abs=1e-9)


def test_scalar():
    res = numerical_radius([[-0.3 + 0.4j]])
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.steps == 0  # the closed forms take no level-set step
    assert numerical_radius(np.zeros((0, 0))).steps == 0


def test_rayleigh_lower_bound_never_exceeds_value():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = numerical_radius(A).value
    for _ in range(200):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        assert abs(np.vdot(v, A @ v)) <= w + 1e-9


def _numerical_radius_reference(A):
    """The level-set loop started from the grid maximum, with no ascent.

    Returns (value, upper, steps) with the contract of numerical_radius.
    """
    thetas = 2 * np.pi * np.arange(numrad.START_ANGLES) / numrad.START_ANGLES
    f = numrad._top_eigs(A, thetas)
    pole, lower = thetas[np.argmin(f)], float(np.max(f))
    for steps in range(1, numrad.MAX_LEVEL_SETS + 1):
        r = lower + numrad.CONVERGENCE_TOL * max(1.0, lower)
        cuts = np.sort(np.append(numrad._level_set_angles(A, r, pole), pole))
        mids = 0.5 * (cuts + np.append(cuts[1:], cuts[0] + 2 * np.pi)) % (2 * np.pi)
        fm = numrad._top_eigs(A, mids)
        if np.max(fm) <= r:
            return lower, r, steps
        lower = float(np.max(fm))
    return lower, max(lower, opnorm(A)), numrad.MAX_LEVEL_SETS


def _matrix_of_kind(rng, n, kind):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "upper-triangular":
        return np.triu(A)
    if kind == "normal":
        return _normal(rng, np.diagonal(A))
    if kind == "rescaled":
        return A * 10.0 ** rng.uniform(-6, 6)
    if kind == "jordan":
        return np.exp(2j * np.pi * rng.random()) * np.diag(np.ones(n - 1), 1)
    if kind == "weighted-shift":
        return np.diag(rng.uniform(0.1, 2.0, n - 1), 1)
    if kind == "near-normal":
        return _normal(rng, np.diagonal(A)) + 10.0 ** rng.uniform(-9, -3) * A
    if kind == "scalar-plus-nilpotent":
        return A[0, 0] * np.eye(n) + np.triu(A, 1)
    return A


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 6, 20]),
    st.sampled_from(["generic", "upper-triangular", "normal", "rescaled"]),
)
def test_ascent_agrees_with_the_grid_start_reference(seed, n, kind):
    A = _matrix_of_kind(np.random.default_rng(seed), n, kind)
    res = numerical_radius(A)
    value, upper, steps = _numerical_radius_reference(A)
    rounding = 8 * EPS * opnorm(A)
    assert res.value <= upper + rounding and value <= res.upper + rounding
    assert res.steps <= steps


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 6, 20, 44]),
    st.sampled_from(["generic", "jordan", "weighted-shift", "near-normal", "scalar-plus-nilpotent"]),
)
def test_grid_bounds_bracket_the_level_set_bounds(seed, n, kind):
    A = _matrix_of_kind(np.random.default_rng(seed), n, kind)
    grid, pole, _ = numrad.grid_bounds(A)
    res = numerical_radius(A)
    rounding = 8 * n * EPS * np.linalg.norm(A)
    assert grid.value <= res.value + rounding and grid.upper >= res.upper
    assert 0 <= pole < 2 * np.pi


def test_generic_fundamental_operators_certify_in_one_step():
    rng = np.random.default_rng(40)
    ops = []
    while len(ops) < 40:
        A = is_gamma_contraction(random_gamma_contraction(rng)).fundamental_op
        if A.shape[0] >= 2:
            ops.append(A)
    assert [numerical_radius(A).steps for A in ops] == [1] * 40


def test_nearly_flat_f_certifies_in_one_step():
    # W(2 J_6) is a disk, so f is constant; a small perturbation leaves f
    # nearly flat with f'' near zero, where the Newton step is long and only
    # the true curvature and the step cap keep the ascent on the peak
    steps = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        steps.append(numerical_radius(2 * np.diag(np.ones(5), 1) + 0.03 * G).steps)
    assert steps == [1] * 20


def _check_against_dense(A, known=None, angles=20_000):
    res = numerical_radius(A)
    dense = _dense_max(A, angles)
    rounding = 8 * EPS * max(1.0, opnorm(A))
    assert res.upper - res.value <= numrad.CONVERGENCE_TOL * max(1.0, res.value) + rounding
    assert dense <= res.upper and res.value >= dense - 1e-7
    if known is not None:
        assert res.value - rounding <= known <= res.upper
    return res


def test_ascent_stops_at_a_crossing_of_the_top_eigenvalue():
    # the peaks of the two unimodular eigenvalues sit at -+pi/24, so the grid
    # maximum is their crossing at theta = 0, where the top pair is repeated
    rng = np.random.default_rng(24)
    A = _normal(rng, [np.exp(1j * np.pi / 24), np.exp(-1j * np.pi / 24), 0.3, -0.2j])
    _check_against_dense(A, known=1.0)


def test_ascent_from_a_midpoint_reaches_the_global_maximum():
    # the grid maximum, at theta = 0, is the local peak of the eigenvalue 1;
    # the global peak 1.001 at theta = 0.5 lies between grid angles, and the
    # peak 1.0005 at 0.56 makes the level-set interval around it lopsided, so
    # its midpoint is not the peak until the ascent polishes it
    rng = np.random.default_rng(78)
    eigs = np.r_[1.0, 1.001 * np.exp(-0.5j), 1.0005 * np.exp(-0.56j), 0.5 * rng.random(75)]
    U = random_unitary(rng, 78)
    res = _check_against_dense((U * eigs) @ adj(U), known=1.001, angles=1000)
    assert res.steps <= 2


def test_a_step_that_lowers_f_is_not_kept():
    # a weighted cyclic shift is unitarily equivalent to e^{2 pi i / 16} times
    # itself, so f has period pi / 8 and every grid angle sits at the same
    # phase; the rotation puts them just below an inflection, where the capped
    # Newton step crosses the peak into the next valley.  Keeping that step
    # would leave the lower bound below f(pole).
    A = np.diag(np.ones(15), -1).astype(complex)
    A[0, 15] = 0.1
    A *= np.exp(1j * (np.pi / 2 - 0.05) / 16)
    f0 = float(numrad._top_eigs(A, np.zeros(1))[0])
    _, f = numrad._ascend(A, 0.0)
    assert f >= f0 - 4 * EPS
    _check_against_dense(A)


def test_huge_entries_are_scaled_exactly_or_rejected():
    # unscaled, 1e160 entries overflow a square and 1e308 entries send the ascent into a NaN loop
    for v in (1e160, 1e300, 2.0**1000):
        for A, w in ((np.full((2, 2), v), 2 * v), (np.array([[0, v], [0, 0]]), v / 2)):
            res = numerical_radius(A)
            assert res.value == pytest.approx(w, rel=1e-14)
            assert res.value <= res.upper <= res.value * (1 + 1e-11)
            if v == 2.0**1000:  # scaled to the largest entry 2, exactly
                small = numerical_radius(2 * A / v)
                assert (res.value, res.upper) == (small.value * v / 2, small.upper * v / 2)
    assert numerical_radius(np.array([[0, 1e308], [0, 0]])).value == pytest.approx(5e307)
    for A in (np.full((2, 2), 1e308), [[1.7e308 + 1.7e308j]]):
        with pytest.raises(ProblemTooLarge):
            numerical_radius(A)


def test_ascent_stops_on_nan():
    A = np.array([[np.nan, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.isnan(numrad._ascend(A, 0.3)[1])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from(["generic", "upper-triangular", "normal", "jordan", "weighted-shift", "near-normal"]),
)
def test_decision_agrees_with_the_numerical_radius(seed, n, kind):
    # at levels w (1 +/- 10^-k), well outside CONVERGENCE_TOL of w, decide_wr
    # passes exactly when numerical_radius's upper bound does and otherwise
    # fails with a lower bound above the level; its bounds bracket w(A)
    A = _matrix_of_kind(np.random.default_rng(seed), n, kind)
    ref = numerical_radius(A)
    rounding = 8 * n * EPS * np.linalg.norm(A)
    for k in range(2, 10):
        for level in (ref.value * (1 + 10.0**-k), ref.value * (1 - 10.0**-k)):
            res = decide_wr(A, level)
            assert (res.upper <= level) == (ref.upper <= level) != (res.value > level)
            assert res.value <= ref.upper + rounding and ref.value <= res.upper + rounding
            assert res.decided_by in ("grid", "norm", "ascent", "level set")


def test_numerical_radius_runs_to_convergence_without_the_norm():
    # for normal A the norm would decide any level above w(A); at level
    # infinity nothing is decided early, so the level set certifies
    rng = np.random.default_rng(3)
    A = _normal(rng, np.exp(2j * np.pi * rng.random(5)))
    res = numerical_radius(A)
    assert res.decided_by == "level set" and res.steps >= 1
    assert res.upper - res.value <= numrad.CONVERGENCE_TOL * max(1.0, res.value) + 4 * EPS
    assert decide_wr(A, 1 + WR_SLACK).decided_by == "norm"


def test_decide_empty_and_scalar():
    for level, passes in ((0.0, True), (-1.0, False)):
        res = decide_wr(np.zeros((0, 0)), level)
        assert (res.value, res.upper, res.decided_by) == (0.0, 0.0, "closed form")
        assert (res.upper <= level) == passes
    for level, passes in ((1.0, True), (1 - 1e-15, False)):
        res = decide_wr([[0.6 + 0.8j]], level)
        assert res.decided_by == "closed form" and res.value == res.upper == pytest.approx(1.0, abs=EPS)
        assert (res.upper <= level) == passes != (res.value > level)


def test_decide_zero_matrix_on_the_grid():
    Z = np.zeros((3, 3))
    for level in (0.0, 1.0):
        assert decide_wr(Z, level) == numrad.NumRadResult(0.0, 0.0, 0.0, 0, "grid")
    res = decide_wr(Z, -1e-300)
    assert res.value > -1e-300 and res.decided_by == "grid"


def test_decide_jordan_block_with_flat_f():
    # W(2 J_2) is the unit disk: f = 1 at every angle, and ||2 J_2|| = 2
    J = np.array([[0.0, 2.0], [0.0, 0.0]])
    passed = decide_wr(J, 1 + WR_SLACK)
    assert passed.decided_by == "level set" and passed.value - 4 * EPS <= 1 <= passed.upper <= 1 + WR_SLACK
    failed = decide_wr(J, 1 - 1e-9)
    assert failed.decided_by == "grid" and failed.value > 1 - 1e-9
    level = 1 + numrad.CONVERGENCE_TOL / 2  # within CONVERGENCE_TOL of w: neither certified
    straddle = decide_wr(J, level)
    assert straddle.decided_by == "level set"
    assert straddle.value <= level < straddle.upper <= 1 + 2 * numrad.CONVERGENCE_TOL


def test_a_failure_needs_a_lower_bound_past_its_rounding_allowance():
    # f = 1 at every angle of 2 J_2, but the computed grid maximum reads 1 + 2^-52:
    # within 8 n eps ||A||_F of level 1 that is no failure, and the level set straddles
    J = np.array([[0.0, 2.0], [0.0, 0.0]])
    allowance = 8 * 2 * EPS * np.linalg.norm(J)
    at_one = decide_wr(J, 1.0)
    assert at_one.decided_by == "level set" and 1.0 < at_one.upper
    assert at_one.value <= 1.0 + allowance
    # w = 1 + 1e-9 is far past the allowance: the grid still fails it
    failed = decide_wr((1 + 1e-9) * J, 1.0)
    assert failed.decided_by == "grid" and failed.value > 1.0 + allowance


@pytest.mark.parametrize("scale, level, step", [
    (1.0, 2.0, "grid"),
    (1.0, 1.0, "level set"),
    (1 + 1e-9, 1.0, "grid"),
    (0.5, np.inf, "level set"),
])
def test_decide_wr_takes_the_rounding_allowance_once(monkeypatch, scale, level, step):
    # grid_bounds hands decide_wr the allowance it took for its upper bound
    calls, rounding = [], numrad._rounding
    monkeypatch.setattr(numrad, "_rounding", lambda A: calls.append(1) or rounding(A))
    res = decide_wr(scale * np.array([[0.0, 2.0], [0.0, 0.0]]), level)
    assert res.decided_by == step and len(calls) == 1


def test_decide_normal_matrix_with_w_exactly_one():
    rng = np.random.default_rng(21)
    A = _normal(rng, [1.0, 0.5j, -0.3, 0.2 + 0.7j])
    passed = decide_wr(A, 1 + WR_SLACK)
    assert passed.decided_by == "norm" and passed.value - 4 * EPS <= 1 <= passed.upper <= 1 + 1e-13
    assert passed.upper >= opnorm(A)
    at_one = decide_wr(A, 1.0)  # the norm plus its rounding allowance exceeds 1
    assert at_one.decided_by != "norm" and 1.0 < at_one.upper
    failed = decide_wr(A, 1 - 1e-9)
    assert failed.value > 1 - 1e-9 and failed.decided_by in ("grid", "ascent", "level set")


def test_decide_scales_entries_above_huge():
    v = 2.0**1000
    J = np.array([[0, v], [0, 0]])  # w = v / 2
    for level, decided_by, passes in ((0.6 * v, "grid", True), (0.4 * v, "grid", False),
                                      (0.5 * v * (1 + 1e-9), "level set", True)):
        res = decide_wr(J, level)
        assert res.decided_by == decided_by and (res.upper <= level) == passes
        assert res.value * (1 - 4 * EPS) <= v / 2 <= res.upper
        small = decide_wr(2 * J / v, 2 * level / v)  # the same matrix scaled to the entry 2
        assert (res.value, res.upper) == (small.value * v / 2, small.upper * v / 2)
    assert decide_wr([[-1.7e308]], 1.0).value == 1.7e308
    with pytest.raises(ProblemTooLarge):
        decide_wr(np.full((2, 2), 1e308), 1.0)
