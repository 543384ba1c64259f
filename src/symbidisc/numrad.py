"""Numerical radius computation.

w(A) = max over theta of the top eigenvalue of Re(e^{i theta} A), computed
on a uniform angle grid followed by golden-section refinement of the best
bracket.  The certificate vector is the top eigenvector at the argmax angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, adj, as_matrix

GRID_ANGLES = 720
ANGLE_WIDTH = 1e-12
WR_SLACK = 1e-8

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class NumRadResult:
    value: float
    argmax_angle: float
    certificate_vector: np.ndarray


def _lam_max(A: np.ndarray, theta: float) -> float:
    H = 0.5 * (np.exp(1j * theta) * A + np.exp(-1j * theta) * adj(A))
    return float(np.linalg.eigvalsh(H)[-1])


def numerical_radius(A, tol: Tolerance = DEFAULT_TOL) -> NumRadResult:
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("numerical radius needs a square matrix")
    if n == 0:
        return NumRadResult(0.0, 0.0, np.zeros(0, dtype=complex))

    thetas = 2 * np.pi * np.arange(GRID_ANGLES) / GRID_ANGLES
    vals = np.array([_lam_max(A, t) for t in thetas])
    k = int(np.argmax(vals))
    step = 2 * np.pi / GRID_ANGLES
    a, b = thetas[k] - step, thetas[k] + step

    # golden-section maximization on the winning bracket
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = _lam_max(A, x1), _lam_max(A, x2)
    while b - a > ANGLE_WIDTH:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _lam_max(A, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _lam_max(A, x1)
    theta = 0.5 * (a + b) % (2 * np.pi)

    H = 0.5 * (np.exp(1j * theta) * A + np.exp(-1j * theta) * adj(A))
    w, V = np.linalg.eigh(H)
    value = float(w[-1])
    cert = V[:, -1]
    return NumRadResult(value, float(theta), cert)
