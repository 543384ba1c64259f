"""Characteristic function and the truncated functional model.

For a scalar contraction the characteristic function is a Moebius map; for
a completely non-unitary matrix it is inner, the boundary defect vanishes,
and the compression of the shift to the model space reproduces the matrix.
"""

import numpy as np

from symbidisc import (
    adj,
    build_model_space,
    compress,
    defect_data,
    delta_eval,
    opnorm,
    random_strict_contraction,
    shift_op,
    theta_eval,
    theta_taylor,
)

c = 0.5
taylor = theta_taylor(defect_data([[c]]), 6)
print(f"Scalar P = {c}: Taylor coefficients of Theta (Moebius map)")
print(" ", [round(float(taylor.coeffs[k][0, 0].real), 6) for k in range(7)])
print("  expected: -c, (1-c^2) c^(k-1) =",
      [-c] + [round((1 - c * c) * c ** (k - 1), 6) for k in range(1, 7)])

rng = np.random.default_rng(2)
P = random_strict_contraction(rng, 3, 0.8, rho_max=0.5)
dd = defect_data(P)
ts = np.linspace(0, 6.28, 64)
norms = opnorm(theta_eval(dd, np.exp(1j * ts)))  # one norm per point of the stack
deltas = opnorm(delta_eval(dd, ts))
print(f"\nRandom 3x3 contraction: max ||Theta|| on circle = {norms.max():.12f}")
print(f"  max boundary defect ||Delta|| = {deltas.max():.2e}  (inner => 0)")

N = 32
ms = build_model_space(dd, N)
print(f"\nModel space at truncation N = {N}: dim = {ms.dim} (source dim 3), "
      f"tail = {ms.trunc_error:.1e}")

Mz, Pi = shift_op(dd.rank_dPstar, N), ms.basis
P_model = compress(Mz, Pi)
print("  || Pi* Mz Pi - P ||      =", f"{opnorm(P_model - P):.2e}")
print("  || Mz* Pi - Pi P* ||     =", f"{opnorm(adj(Mz) @ Pi - Pi @ adj(P)):.2e}")
print("  spectrum of compressed shift vs P:",
      np.round(np.sort_complex(np.linalg.eigvals(P_model)), 6),
      np.round(np.sort_complex(np.linalg.eigvals(P)), 6))
