"""Scalar geometry of the symmetrized bidisc.

The closed symmetrized bidisc is the image of the closed bidisc under
(z1, z2) -> (z1 + z2, z1 * z2).  Membership is decided by a root test on
t^2 - s*t + p; the beta-characterization s = beta + p*conj(beta) with
|beta| <= 1 is kept as an independent cross-check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput

BOUNDARY_TOL = 1e-9  # a root of modulus up to 1 + BOUNDARY_TOL counts as in the closed disk
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GammaPoint:
    """A point (s, p) of C^2; a NaN or infinite coordinate raises NonFiniteInput."""

    s: complex
    p: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.s) and cmath.isfinite(self.p)):
            raise NonFiniteInput(f"point ({self.s}, {self.p}) has a non-finite coordinate")


@dataclass(frozen=True)
class BetaSolution:
    beta: complex
    exact: bool
    residual: float


def symmetrize(z1: complex, z2: complex) -> GammaPoint:
    return GammaPoint(z1 + z2, z1 * z2)


def _quadratic_roots(s: complex, p: complex):
    """Roots of t^2 - s t + p with a cancellation-stable branch choice."""
    disc = s * s - 4 * p
    # A discriminant within its own rounding error is a double root: its
    # square root would split the roots by about sqrt(eps).
    if abs(disc) <= 8 * _EPS * (abs(s) ** 2 + 4 * abs(p)):
        disc = 0.0
    d = cmath.sqrt(disc)
    # pick the sign that avoids subtractive cancellation in s +/- d
    if abs(s + d) >= abs(s - d):
        big = (s + d) / 2
    else:
        big = (s - d) / 2
    if abs(big) == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    return big, p / big


def in_gamma(pt: GammaPoint) -> bool:
    """True iff both roots of t^2 - s t + p lie in the closed unit disk."""
    r1, r2 = _quadratic_roots(pt.s, pt.p)
    return abs(r1) <= 1 + BOUNDARY_TOL and abs(r2) <= 1 + BOUNDARY_TOL


def beta_solve(pt: GammaPoint) -> BetaSolution:
    """Solve s = beta + p * conj(beta) for beta.

    Writing beta = x + iy the equation is a real 2x2 linear system with
    determinant 1 - |p|^2.  On the degenerate boundary |p| = 1 the
    minimal-norm least-squares solution is returned and `exact` reports
    whether the system was consistent.
    """
    s, p = complex(pt.s), complex(pt.p)
    M = np.array(
        [
            [1.0 + p.real, p.imag],
            [p.imag, 1.0 - p.real],
        ]
    )
    rhs = np.array([s.real, s.imag])
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=1e-12)
    beta = complex(sol[0], sol[1])
    residual = abs(beta + p * beta.conjugate() - s)
    exact = residual <= 1e-9 * max(1.0, abs(s))
    return BetaSolution(beta, exact, residual)


def boundary_grid(n: int):
    """(s, p) arrays of the distinguished boundary over the uniform n x n torus grid.

    Point j * n + k is the symmetrization of (e^{2 pi i j/n}, e^{2 pi i k/n});
    every point has |p| = 1.
    """
    z = np.exp(2j * np.pi * np.arange(n) / n)
    z1, z2 = np.meshgrid(z, z, indexing="ij")
    return (z1 + z2).ravel(), (z1 * z2).ravel()
