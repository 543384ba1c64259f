import numpy as np
import pytest

from symbidisc.classify import is_gamma_isometry
from symbidisc.dilation import nf_ay_build
from symbidisc.errors import DimensionMismatch, ProblemTooLarge, TruncationTooSmall
from symbidisc.hardy import (
    SymbolPoly,
    blockwise,
    build_mult_op,
    compress,
    gamma_isometry_model,
    shift_op,
    symbol_a_plus_astar_z,
)
from symbidisc.linalg import adj, opnorm
from symbidisc.pair import make_pair, restrict


def test_symbol_poly_eval():
    C0 = np.eye(2)
    C1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    phi = SymbolPoly([C0, C1])
    assert phi.degree == 1
    assert np.allclose(phi.eval(2.0), C0 + 2 * C1)


def test_symbol_poly_eval_on_a_stack_of_points():
    rng = np.random.default_rng(1)
    phi = SymbolPoly([rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
                      for _ in range(4)])
    zs = np.exp(2j * np.pi * rng.random(9)) * rng.random(9)
    values = phi.eval(zs)
    assert values.shape == (9, 2, 3)
    for z, value in zip(zs, values):
        assert np.allclose(value, phi.eval(complex(z)), rtol=0, atol=1e-14)


def test_symbol_poly_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatch):
        SymbolPoly([np.eye(2), np.eye(3)])


def test_build_mult_op_block_toeplitz_layout():
    A = np.array([[2.0]])
    phi = symbol_a_plus_astar_z(A)
    op = build_mult_op(phi, 3)
    expect = np.array(
        [
            [2, 0, 0, 0],
            [2, 2, 0, 0],
            [0, 2, 2, 0],
            [0, 0, 2, 2],
        ],
        dtype=complex,
    )
    assert np.allclose(op, expect)


@pytest.mark.parametrize("b_r, b_c, N", [(1, 1, 5), (2, 3, 4), (3, 2, 6), (0, 2, 3)])
def test_build_mult_op_matches_blockwise_writes_and_fills_a_view(b_r, b_c, N):
    # one write per coefficient into the block view; with out, the blocks go
    # into a strided view of a larger zero array and nothing else changes
    rng = np.random.default_rng(b_r + 5 * b_c)
    phi = SymbolPoly([rng.standard_normal((b_r, b_c)) + 1j * rng.standard_normal((b_r, b_c))
                      for _ in range(3)])
    ref = np.zeros(((N + 1) * b_r, (N + 1) * b_c), dtype=complex)
    for k, C in enumerate(phi.coeffs):
        for j in range(N + 1 - k):
            ref[(j + k) * b_r : (j + k + 1) * b_r, j * b_c : (j + 1) * b_c] = C
    assert np.array_equal(build_mult_op(phi, N), ref)
    big = np.zeros((ref.shape[0] + 2, ref.shape[1] + 3), dtype=complex)
    assert build_mult_op(phi, N, out=big[2:, 3:]).base is big
    assert np.array_equal(big[2:, 3:], ref) and not big[:2].any() and not big[:, :3].any()


def test_build_mult_op_truncation_guard():
    phi = SymbolPoly([np.eye(1)] * 4)  # degree 3
    with pytest.raises(TruncationTooSmall):
        build_mult_op(phi, 2)


def test_build_mult_op_budget_guard():
    # (10^7 + 1)^2 complex entries, refused before the matrix is allocated
    with pytest.raises(ProblemTooLarge):
        build_mult_op(SymbolPoly([np.eye(1)]), 10**7)


def test_shift_is_isometric_below_top_degree():
    M = shift_op(2, 5)
    G = adj(M) @ M - np.eye(M.shape[0])
    mask = np.arange(M.shape[0]) // 2 <= 4
    assert opnorm(restrict(G, mask)) < 1e-14
    # nilpotent of order N + 1
    assert opnorm(np.linalg.matrix_power(M, 6)) == 0.0


def test_products_of_analytic_truncations_are_exact():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    N = 6
    TA = build_mult_op(symbol_a_plus_astar_z(A), N)
    TB = build_mult_op(symbol_a_plus_astar_z(B), N)
    # product of truncations equals the truncation of the product symbol
    prod = SymbolPoly(
        [A @ B, A @ adj(B) + adj(A) @ B, adj(A) @ adj(B)]
    )
    assert np.allclose(TA @ TB, build_mult_op(prod, N))


def test_gamma_isometry_model_is_gamma_isometry():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A /= 2 * opnorm(A)
    pair = gamma_isometry_model(A, 8)
    assert pair.commutator_norm < 1e-13
    ok, report = is_gamma_isometry(pair)
    assert ok, report.failed()


def test_compress_dimension_guard():
    with pytest.raises(DimensionMismatch):
        compress(np.eye(4), np.ones((3, 1)))


def test_compress_projects():
    M = np.diag([1.0, 2.0, 3.0])
    Q = np.array([[1.0], [0.0], [0.0]])
    assert np.allclose(compress(M, Q), [[1.0]])


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_compress_mult_matches_the_dense_compression(N, b):
    # the compression of a multiplication operator: blockwise(C, Q) is (I tensor C) Q,
    # the dense constant symbol times Q, and Q* blockwise(C, Q) is its compression
    rng = np.random.default_rng(10 * N + b)
    C = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    Q = np.linalg.qr(rng.standard_normal(((N + 1) * b, 4)) + 0j)[0]  # orthonormal columns
    dense = build_mult_op(SymbolPoly([C]), N)
    assert np.allclose(blockwise(C, Q), dense @ Q, rtol=0, atol=1e-13)
    assert np.allclose(adj(Q) @ blockwise(C, Q), compress(dense, Q), rtol=0, atol=1e-13)


def test_blockwise_needs_whole_blocks_and_keeps_empty_shapes():
    with pytest.raises(ValueError):  # not whole blocks of 2
        blockwise(np.eye(2), np.ones((5, 1)))
    with pytest.raises(ValueError):  # a width of 0 has no rows to take
        blockwise(np.zeros((0, 0)), np.ones((2, 3)))
    assert blockwise(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)  # b = 0
    assert blockwise(np.eye(2), np.zeros((6, 0))).shape == (6, 0)  # zero columns
    assert blockwise(np.ones((3, 2)), np.ones((4, 1))).shape == (6, 1)  # b_r = 3 rows per block


@pytest.mark.parametrize("b", [1, 3])
def test_compress_mult_skips_zero_coefficients_exactly(b):
    # the shift symbol [0, I] has a zero constant term, and the model's P is a row slice
    # of Pi times another, with no zero term: it equals the dense compression of M_z
    pair = make_pair(np.diag([1.2, 0.5, 0.1][:b]), np.diag([0.5, 0.3, -0.2][:b]))
    model = nf_ay_build(pair, 40)
    assert model.model_space.defect.rank_dPstar == b
    dense = compress(shift_op(b, 40), model.model_space.basis)
    assert np.allclose(model.P_model, dense, rtol=0, atol=1e-14)
