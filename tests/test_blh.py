import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisc import blh
from symbidisc.blh import (
    INNER_GRID,
    BlhSolution,
    NoSolution,
    blh_solve,
    invariance_check,
    make_problem,
    mirror_solve,
)
from symbidisc.errors import ProblemTooLarge, TruncationTooSmall
from symbidisc.generate import random_inner_poly, random_symbol, random_unitary
from symbidisc.hardy import SymbolPoly, build_mult_op, symbol_a_plus_astar_z
from symbidisc.linalg import RANK_TOL, RESIDUAL_TOL, adj, opnorm, range_basis
from symbidisc.numrad import numerical_radius


def z_times_identity(e):
    return SymbolPoly([np.zeros((e, e)), np.eye(e)])


def test_theta_z_identity_gives_b_equals_a():
    rng = np.random.default_rng(0)
    A = random_symbol(rng, 3)
    sol = blh_solve(make_problem(A, z_times_identity(3)))
    assert isinstance(sol, BlhSolution)
    assert opnorm(sol.B - A) < 1e-12
    assert sol.residual < 1e-12
    assert sol.kernel_dim == 0


def test_theta_z_squared_identity():
    rng = np.random.default_rng(1)
    A = random_symbol(rng, 2)
    theta = SymbolPoly([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    sol = blh_solve(make_problem(A, theta))
    assert isinstance(sol, BlhSolution)
    assert opnorm(sol.B - A) < 1e-12


def test_constant_unitary_conjugates():
    rng = np.random.default_rng(2)
    A = random_symbol(rng, 3)
    W = random_unitary(rng, 3)
    sol = blh_solve(make_problem(A, SymbolPoly([W])))
    assert isinstance(sol, BlhSolution)
    assert opnorm(sol.B - adj(W) @ A @ W) < 1e-12
    assert sol.kernel_dim == 0


def test_diag_counterexample():
    theta = SymbolPoly([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])  # diag(z, 1)
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    sol = blh_solve(make_problem(A, theta))
    assert isinstance(sol, NoSolution)
    assert sol.residual >= 1.0


def test_invariance_examples():
    rng = np.random.default_rng(3)
    A = random_symbol(rng, 2)
    ok, res = invariance_check(A, z_times_identity(2), 8)
    assert ok and res < 1e-12

    theta = SymbolPoly([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
    bad_A = np.array([[0.0, 2.0], [0.0, 0.0]])
    ok, res = invariance_check(bad_A, theta, 8)
    assert not ok
    assert res >= 0.1


def test_invariance_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        invariance_check(np.eye(2), z_times_identity(2), 1)


def test_invariance_check_shares_the_shape_check_of_make_problem():
    theta = SymbolPoly([np.eye(1)])
    with pytest.raises(ValueError, match="square on the codomain of theta"):
        make_problem(np.eye(2), theta)
    with pytest.raises(ValueError, match="square on the codomain of theta"):
        invariance_check(np.eye(2), theta, 8)
    with pytest.raises(ProblemTooLarge):
        invariance_check(np.eye(1), theta, 10**7)


def test_inner_residual_recorded():
    rng = np.random.default_rng(4)
    theta = random_inner_poly(rng, 2, 2)
    prob = make_problem(np.eye(2), theta)
    assert prob.inner_residual < 1e-10
    assert prob.is_inner
    lossy = SymbolPoly([0.5 * np.eye(2)])
    assert not make_problem(np.eye(2), lossy).is_inner


def test_solver_invariance_agreement_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = int(rng.integers(1, 4))
        theta = random_inner_poly(rng, e, int(rng.integers(1, 4)))
        A = random_symbol(rng, e)
        sol = blh_solve(make_problem(A, theta))
        if 1e-10 < sol.residual < 1e-4:
            continue
        ok, _ = invariance_check(A, theta, 8)
        assert isinstance(sol, BlhSolution) == ok


def test_wb_bounded_for_shift_type_theta():
    rng = np.random.default_rng(6)
    for _ in range(10):
        e = int(rng.integers(1, 4))
        W = random_unitary(rng, e)
        theta = SymbolPoly([np.zeros((e, e)), W])
        A = random_symbol(rng, e)
        sol = blh_solve(make_problem(A, theta))
        assert isinstance(sol, BlhSolution)
        assert sol.wB <= 1 + 1e-6


def _kronecker_reference(A, theta, rcond):
    """The Kronecker-product builder the real-linear solver replaced.

    Column-major vec(Theta_k B) = (I kron Theta_k) vec(B), and vec(B*) is
    vec(conj B) with its entries permuted by the transpose, so the
    equations become M1 v + M2 conj(v) = r, solved as a real system in
    (Re v, Im v).  Returns (B, kernel_dim).
    """
    e, d = theta.dom_dim, theta.degree
    zero = np.zeros_like(theta.coeffs[0])
    pairs = [
        (theta.coeffs[k] if k <= d else zero, theta.coeffs[k - 1] if k >= 1 else zero)
        for k in range(d + 2)
    ]
    M1 = np.vstack([np.kron(np.eye(e), Tk) for Tk, _ in pairs])
    M2 = np.vstack([np.kron(np.eye(e), Tk1) for _, Tk1 in pairs])
    M2 = M2[:, np.arange(e * e).reshape(e, e).T.ravel()]
    r = np.concatenate([(A @ Tk + adj(A) @ Tk1).reshape(-1, order="F") for Tk, Tk1 in pairs])
    top = np.hstack([(M1 + M2).real, -(M1 - M2).imag])
    bot = np.hstack([(M1 + M2).imag, (M1 - M2).real])
    sol, _, rank, _ = np.linalg.lstsq(
        np.vstack([top, bot]), np.concatenate([r.real, r.imag]), rcond=rcond
    )
    B = (sol[: e * e] + 1j * sol[e * e :]).reshape((e, e), order="F")
    return B, 2 * e * e - int(rank)


def _reference_instances():
    rng = np.random.default_rng(11)
    for i in range(28):
        e = int(rng.integers(1, 4))
        if i % 2:
            theta = random_inner_poly(rng, e, int(rng.integers(1, 4)))
        else:  # not inner: a random polynomial of norm about 1
            theta = SymbolPoly(
                [rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
                 for _ in range(int(rng.integers(1, 4)))]
            )
        yield random_symbol(rng, e), theta
    yield random_symbol(rng, 2), SymbolPoly([2 * np.eye(2)])
    yield np.diag([0.5, 0.3]), SymbolPoly([np.diag([1.0, 0.0])])  # B_22 is free: kernel 2
    diag_z_1 = SymbolPoly([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])  # the counterexample
    yield np.array([[0.0, 2.0], [0.0, 0.0]]), diag_z_1


def test_real_linear_solver_matches_kronecker_reference():
    kernels = []
    for A, theta in _reference_instances():
        sol = blh_solve(make_problem(A, theta))
        B = sol.B if isinstance(sol, BlhSolution) else sol.best_B
        ref_B, ref_kernel = _kronecker_reference(A, theta, RANK_TOL)
        assert opnorm(B - ref_B) < 1e-12
        if isinstance(sol, BlhSolution):
            kernels.append(sol.kernel_dim)
            assert sol.kernel_dim == ref_kernel
    assert 2 in kernels


def test_mirror_solve_round_trips_through_blh_solve():
    # A = mirror(B0) is least squares; where blh_solve then finds a B,
    # mirror(B) gives A back, and B = B0 when the equation in A is
    # consistent, as it is for Theta = z^m W
    rng = np.random.default_rng(12)
    solved = 0
    for i in range(16):
        e = int(rng.integers(1, 4))
        if i % 2:
            theta = random_inner_poly(rng, e, int(rng.integers(1, 4)))
        else:
            m = int(rng.integers(0, 3))
            theta = SymbolPoly([np.zeros((e, e))] * m + [random_unitary(rng, e)])
        B0 = random_symbol(rng, e)
        A = mirror_solve(B0, theta)
        sol = blh_solve(make_problem(A, theta))
        if i % 2 == 0:
            assert opnorm(sol.B - B0) < 1e-12
        if isinstance(sol, BlhSolution):
            solved += 1
            assert opnorm(mirror_solve(sol.B, theta) - A) < 1e-12
    assert solved >= 10


def _stacked_opnorm_inner_residual(theta):
    """max ||Theta* Theta - I|| over the grid, as one stacked SVD (the eager form)."""
    Th = theta.eval(np.exp(2j * np.pi * np.arange(INNER_GRID) / INNER_GRID))
    return float(np.max(opnorm(adj(Th) @ Th - np.eye(theta.dom_dim)))), float(np.max(opnorm(Th)))


def _diagnostic_cases():
    rng = np.random.default_rng(13)
    W = random_unitary(rng, 3)
    zero = np.zeros((3, 3))
    yield "zI", random_symbol(rng, 2), z_times_identity(2)
    yield "W", random_symbol(rng, 3), SymbolPoly([W])
    yield "W_z2", random_symbol(rng, 3), SymbolPoly([zero, zero, W])
    yield "inner", (0.3 + 0.4j) * np.eye(2), random_inner_poly(rng, 2, 3)  # B = A
    yield "lossy", random_symbol(rng, 2), SymbolPoly([0.5 * np.eye(2), 0.3 * np.eye(2)])  # B = A


DIAGNOSTIC_CASES = list(_diagnostic_cases())


class _Calls:
    """Counts eigvalsh, the SVDs of a grid-sized stack and blh.numerical_radius
    while patched in."""

    def __init__(self, monkeypatch):
        self.eigvalsh = self.grid_svd = self.numerical_radius = 0
        eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd

        def counted_eigvalsh(M, *args, **kwargs):
            self.eigvalsh += 1
            return eigvalsh(M, *args, **kwargs)

        def counted_svd(M, *args, **kwargs):
            self.grid_svd += np.ndim(M) == 3 and len(M) == INNER_GRID
            return svd(M, *args, **kwargs)

        def counted_numerical_radius(M):
            self.numerical_radius += 1
            return numerical_radius(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(blh, "numerical_radius", counted_numerical_radius)

    @property
    def counts(self):
        return self.eigvalsh, self.grid_svd, self.numerical_radius


@pytest.mark.parametrize("name, A, theta", DIAGNOSTIC_CASES, ids=[c[0] for c in DIAGNOSTIC_CASES])
def test_inner_residual_and_wb_wait_for_their_first_read(monkeypatch, name, A, theta):
    calls = _Calls(monkeypatch)
    prob = make_problem(A, theta)
    sol = blh_solve(prob)
    assert calls.counts == (0, 0, 0)
    residual = prob.inner_residual
    assert calls.counts == (1, 0, 0)
    assert prob.inner_residual == residual and prob.is_inner == (name != "lossy")
    assert calls.counts == (1, 0, 0)
    assert isinstance(sol, BlhSolution)
    wB = sol.wB
    assert calls.numerical_radius == 1
    assert sol.wB == wB == numerical_radius(sol.B).value
    assert calls.numerical_radius == 1


@pytest.mark.parametrize("name, A, theta", DIAGNOSTIC_CASES, ids=[c[0] for c in DIAGNOSTIC_CASES])
def test_inner_residual_matches_the_stacked_opnorm_reference(name, A, theta):
    reference, sup_norm = _stacked_opnorm_inner_residual(theta)
    residual = make_problem(A, theta).inner_residual
    assert abs(residual - reference) <= 8 * np.finfo(float).eps * max(1.0, sup_norm**2)


def _dense_invariance_check(A, theta, N):
    """invariance_check with T_(A + A*z) built as a dense block-Toeplitz matrix."""
    d, e = theta.degree, theta.dom_dim
    T_theta = build_mult_op(theta, N)
    Q_small = range_basis(T_theta[:, : (N - d) * e])
    Q_big = range_basis(T_theta[:, : (N - d + 1) * e])
    img = build_mult_op(symbol_a_plus_astar_z(A), N) @ Q_small
    residual = float(opnorm(img - Q_big @ (adj(Q_big) @ img)))
    return residual <= RESIDUAL_TOL * max(1.0, opnorm(A)), residual


def _assert_matches_dense(A, theta, N):
    ok, residual = invariance_check(A, theta, N)
    ref_ok, ref_residual = _dense_invariance_check(A, theta, N)
    assert ok == ref_ok
    assert abs(residual - ref_residual) <= 1e-13 * max(1.0, opnorm(A))
    return ok


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    e=st.integers(1, 3),
    degree=st.integers(0, 3),
    N_kind=st.sampled_from(["deg + 1", 8, 12]),
    inner=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_invariance_check_matches_the_dense_symbol_operator(e, degree, N_kind, inner, seed):
    rng = np.random.default_rng(seed)
    if inner:
        theta = random_inner_poly(rng, e, degree)
    else:
        theta = SymbolPoly(
            [rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
             for _ in range(degree + 1)]
        )
    N = theta.degree + 1 if N_kind == "deg + 1" else N_kind
    _assert_matches_dense(random_symbol(rng, e), theta, N)


@pytest.mark.parametrize("N", [2, 8, 12])
def test_invariance_check_matches_the_dense_symbol_operator_on_the_counterexample(N):
    theta = SymbolPoly([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])  # diag(z, 1)
    assert not _assert_matches_dense(np.array([[0.0, 2.0], [0.0, 0.0]]), theta, N)
