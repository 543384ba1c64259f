"""Scalar geometry of the symmetrized bidisc.

A point (s, p) lies in the closed symmetrized bidisc exactly when both
roots of t^2 - s t + p lie in the closed unit disk; equivalently, when
s = beta + p * conj(beta) for some beta with |beta| <= 1.  This script
walks a few points through both tests and shows they agree.
"""

import numpy as np

from symbidisc import GammaPoint, beta_solve, boundary_grid, in_gamma, symmetrize

print("Sanity points")
for s, p in [(2, 1), (1.2, 0.5), (0, -0.9), (2.2, 1), (3, 1)]:
    pt = GammaPoint(s, p)
    sol = beta_solve(pt)
    beta_in = sol.exact and abs(sol.beta) <= 1 + 1e-9
    print(
        f"  (s, p) = ({s}, {p}): root test {'in ' if in_gamma(pt) else 'out'}, "
        f"beta = {sol.beta:.4f}, beta test {'in' if beta_in else 'out'}"
    )

print("\nRandom agreement check")
rng = np.random.default_rng(0)
bad = 0
for _ in range(2000):
    z1, z2 = 1.5 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
    pt = symmetrize(z1, z2)
    if in_gamma(pt) != (abs(z1) <= 1 and abs(z2) <= 1):
        bad += 1
print(f"  2000 symmetrized samples, {bad} disagreements with the bidisc predicate")

_, p = boundary_grid(6)
print(f"\nDistinguished boundary: {len(p)} grid points, all with |p| = 1:")
print("  max | |p| - 1 | =", np.max(np.abs(np.abs(p) - 1)))
