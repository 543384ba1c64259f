"""Classifying commuting pairs and solving the fundamental equation.

The hierarchy GammaUnitary > GammaIsometry > GammaContraction > NotGamma is
decided by algebraic identities plus the fundamental-operator equation
S - S*P = D_P A D_P with numerical radius w(A) <= 1.
"""

import numpy as np

from symbidisc import (
    fundamental_op,
    gamma_unitary_synth,
    is_gamma_contraction,
    make_pair,
    numerical_radius,
    random_commuting_unitaries,
    random_gamma_contraction,
    von_neumann_margin,
)

rng = np.random.default_rng(1)

print("A synthetic Gamma-unitary: S = U1 + U2, P = U1 U2")
U1, U2 = random_commuting_unitaries(rng, 3)
pair = gamma_unitary_synth(U1, U2)
print("  kind:", is_gamma_contraction(pair).kind)

print("\nScalar pair (1.2, 0.5)")
pair = make_pair([[1.2]], [[0.5]])
rep = is_gamma_contraction(pair)
F, residual = fundamental_op(pair.S, rep.defect)
print(f"  kind: {rep.kind}, fundamental operator {F[0,0].real:.4f} "
      f"(residual {residual:.1e}), w(A) = {rep.wA:.4f}")

print("\nA generated Gamma-contraction (co-invariant compression of a model pair)")
pair = random_gamma_contraction(rng)
rep = is_gamma_contraction(pair)
# the report keeps the bounds that decided w(A) <= 1; the angle grid alone
# often does, so the value is read from the certified numerical radius
print(f"  dim {pair.dim}, kind {rep.kind}, residual {rep.fundamental_residual:.1e}, "
      f"w(A) = {numerical_radius(rep.fundamental_op).value:.4f}")
margin, _ = von_neumann_margin(pair, trials=30, seed=0)
print(f"  von Neumann margin over sampled polynomials: {margin:.2e}")

print("\nDesigned failures")
for S, P in [(np.diag([1.2, 0.0]), np.zeros((2, 2))), ([[2.2]], [[1.0]])]:
    print("  kind:", is_gamma_contraction(make_pair(S, P)).kind)
