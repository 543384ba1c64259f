"""Numerical radius with two-sided bounds.

w(A) is the maximum over theta of f(theta), the top eigenvalue of
Re(e^{i theta} A) = (e^{i theta} A + e^{-i theta} A*) / 2.

A coarse grid of angles, evaluated as one stacked eigensolve, gives the
starting lower bound.  The upper bound comes from the level-set method of
Mengi & Overton ("Algorithms for the computation of the pseudospectral
radius and the numerical radius of a matrix", IMA J. Numer. Anal. 2005).
For r just above the lower bound, the angles where r is an eigenvalue of
Re(e^{i theta} A) are the unimodular roots z = e^{i theta} of
det(z^2 A - 2 r z I + A*) = 0.  f - r keeps one sign between neighbouring
roots, so if f <= r at every midpoint then w(A) <= r is certified;
otherwise the largest midpoint value is a better lower bound and the step
repeats.  The certificate vector is the top eigenvector at the best angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, adj, as_matrix, opnorm

START_ANGLES = 16  # a multiple of 4, so the grid holds 0, pi/2, pi and 3 pi/2
UNIMODULAR_TOL = 1e-6
MAX_LEVEL_SETS = 50
WR_SLACK = 1e-8


@dataclass(frozen=True)
class NumRadResult:
    """Bounds value <= w(A) <= upper.

    value is the top eigenvalue of Re(e^{i argmax_angle} A), attained by
    the unit vector certificate_vector: |v* A v| >= value.
    """

    value: float
    argmax_angle: float
    certificate_vector: np.ndarray
    upper: float


def _real_parts(A: np.ndarray, thetas) -> np.ndarray:
    """Re(e^{i theta} A) for every angle, stacked along the first axis."""
    z = np.exp(1j * np.atleast_1d(thetas))[:, None, None]
    return 0.5 * (z * A + np.conj(z) * adj(A))


def _top_eigs(A: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """f at every angle, from one stacked eigvalsh."""
    return np.linalg.eigvalsh(_real_parts(A, thetas))[:, -1]


def _level_set_angles(A: np.ndarray, r: float, pole: float) -> np.ndarray:
    """Angles in [0, 2 pi) where r is an eigenvalue of Re(e^{i theta} A).

    Needs r > f(pole).  With B = e^{i (pole - pi)} A, so that f_B(pi) =
    f(pole), the Cayley map z = (1 + s) / (1 - s) turns the unit circle
    into the imaginary axis and z^2 B - 2 r z I + B* into the quadratic
    s^2 (Re B + r I) + s (B - B*) + (Re B - r I), whose leading
    coefficient is positive definite because r > f_B(pi).  A Cholesky
    factor of it reduces the quadratic to a 2n x 2n companion matrix.
    """
    n = A.shape[0]
    B = np.exp(1j * (pole - np.pi)) * A
    ReB = 0.5 * (B + adj(B))
    eye = np.eye(n)
    Linv = np.linalg.inv(np.linalg.cholesky(ReB + r * eye))
    K1 = Linv @ (B - adj(B)) @ adj(Linv)
    K0 = Linv @ (ReB - r * eye) @ adj(Linv)
    s = np.linalg.eigvals(np.block([[np.zeros((n, n)), eye], [-K0, -K1]]))
    # |z| and arg z without dividing: s = 1 (z = infinity) occurs when A is singular
    num, den = 1 + s, 1 - s
    unimodular = np.abs(np.abs(num) - np.abs(den)) <= UNIMODULAR_TOL * np.abs(den)
    z = num[unimodular] * np.conj(den[unimodular])
    return (np.angle(z) + pole - np.pi) % (2 * np.pi)


def numerical_radius(A, tol: Tolerance = DEFAULT_TOL) -> NumRadResult:
    """Two-sided bounds on w(A).

    upper - value <= convergence_tol * max(1, value), unless the level-set
    step has not certified r after MAX_LEVEL_SETS steps; upper is then ||A||.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("numerical radius needs a square matrix")
    if n == 0:
        return NumRadResult(0.0, 0.0, np.zeros(0, dtype=complex), 0.0)
    if n == 1:
        a = A[0, 0]
        w = float(abs(a))
        return NumRadResult(w, float(-np.angle(a) % (2 * np.pi)), np.ones(1, dtype=complex), w)

    thetas = 2 * np.pi * np.arange(START_ANGLES) / START_ANGLES
    f = _top_eigs(A, thetas)
    # the Cayley pole at the smallest f keeps the Cholesky factor far from singular
    pole = thetas[np.argmin(f)]
    theta, lower = thetas[np.argmax(f)], float(np.max(f))
    for _ in range(MAX_LEVEL_SETS):
        r = lower + tol.convergence_tol * max(1.0, lower)
        cuts = np.sort(np.append(_level_set_angles(A, r, pole), pole))
        mids = 0.5 * (cuts + np.append(cuts[1:], cuts[0] + 2 * np.pi)) % (2 * np.pi)
        fm = _top_eigs(A, mids)
        k = int(np.argmax(fm))
        if fm[k] <= r:
            upper = r
            break
        theta, lower = mids[k], float(fm[k])
    else:
        upper = max(lower, opnorm(A))  # w(A) <= ||A|| always holds

    _, V = np.linalg.eigh(_real_parts(A, theta)[0])
    return NumRadResult(lower, float(theta), V[:, -1], float(upper))
