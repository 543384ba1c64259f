"""Numerical radius with two-sided bounds, and the decision w(A) <= level.

w(A) is the maximum over theta of f(theta), the top eigenvalue of
Re(e^{i theta} A) = (e^{i theta} A + e^{-i theta} A*) / 2.

`decide_wr` answers w(A) <= level by the first of these steps that decides,
named in `decided_by`: "closed form" for n <= 1; "grid", a coarse grid of
angles, evaluated as one stacked eigensolve, which brackets w(A) within a
factor sec(pi / START_ANGLES) (`grid_bounds`); "norm", w(A) <= ||A||, equal
for normal A (Gustafson & Rao, Numerical Range, 1997); then "ascent" and
"level set", which stop at the first lower bound above level.  Every failure
needs a lower bound (a computed eigenvalue) past level + 8 n eps ||A||_F, upper's allowance.
`numerical_radius` runs them at level = infinity, so it never stops early.

The grid also picks a starting angle, and a safeguarded Newton ascent of f
raises the lower bound to the local maximum near it.  The upper bound comes
from the level-set method of Mengi & Overton ("Algorithms for the
computation of the pseudospectral radius and the numerical radius of a
matrix", IMA J. Numer. Anal. 2005).  For r just above the lower bound, the angles where r is an
eigenvalue of Re(e^{i theta} A) are the unimodular roots z = e^{i theta} of
det(z^2 A - 2 r z I + A*) = 0.  f - r keeps one sign between neighbouring
roots, so if f <= r at every midpoint then w(A) <= r is certified;
otherwise the ascent from the best midpoint gives a better lower bound and
the step repeats.  A lower bound at the global maximum leaves no midpoint
above r, so one step usually certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ProblemTooLarge
from .linalg import adj, as_matrix, opnorm

START_ANGLES = 16  # a multiple of 4, so the grid holds 0, pi/2, pi and 3 pi/2
UNIMODULAR_TOL = 1e-6
MAX_LEVEL_SETS = 50
MAX_ASCENT_STEPS = 50  # Newton converges in a few; the cap ends a NaN ascent
WR_SLACK = 1e-8  # w(A) <= 1 passes when the certified upper bound is at most 1 + WR_SLACK
CONVERGENCE_TOL = 1e-12  # the certified gap upper - value, relative to max(1, value)
HUGE = 2.0**256  # larger entries are scaled down, so that no square of one overflows


@dataclass(frozen=True)
class NumRadResult:
    """Bounds value <= w(A) <= upper.

    value is the top eigenvalue of Re(e^{i argmax_angle} A), so a unit
    vector v attains |v* A v| >= value.
    """

    value: float
    argmax_angle: float
    upper: float
    steps: int = 0  # level-set iterations; the closed forms for n <= 1 take none
    decided_by: str = "grid"  # "closed form", "grid", "norm", "ascent" or "level set"


def _rounding(A: np.ndarray) -> float:
    """8 n eps ||A||_F, the allowance for rounding in an eigvalsh or SVD of n x n A."""
    return 8 * len(A) * np.finfo(float).eps * float(np.linalg.norm(A))


def _top_eigs(A: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """f at every angle, from one eigvalsh of the stacked Re(e^{i theta} A)."""
    z = np.exp(1j * thetas)[:, None, None]
    return np.linalg.eigvalsh(0.5 * (z * A + np.conj(z) * adj(A)))[:, -1]


def grid_bounds(A: np.ndarray) -> tuple[NumRadResult, float, float]:
    """Bounds on w(A), n >= 2, from f on the START_ANGLES grid alone.

    value is the grid maximum.  Some grid angle lies within pi / m of the
    direction of a point of W(A) on the circle |z| = w(A), so w(A) <=
    sec(pi / m) max_k f(theta_k) (the support-line polygon of C. R. Johnson,
    SIAM J. Numer. Anal. 15, 1978); upper adds 8 n eps ||A||_F to the grid
    maximum for the eigvalsh rounding, as ||A||_F >= ||A||.  Also returns
    the angle of the grid minimum, the level set's Cayley pole, and that
    rounding allowance.
    """
    thetas = 2 * np.pi * np.arange(START_ANGLES) / START_ANGLES
    f = _top_eigs(A, thetas)
    k = int(np.argmax(f))
    rounding = _rounding(A)
    upper = (f[k] + rounding) / np.cos(np.pi / START_ANGLES)
    grid = NumRadResult(float(f[k]), float(thetas[k]), float(upper))
    return grid, float(thetas[np.argmin(f)]), rounding


def _ascend(A: np.ndarray, theta: float) -> tuple[float, float]:
    """Safeguarded Newton ascent of f from theta; returns (theta, f(theta)).

    With Re(e^{i theta} A) = V diag(lam) V* (top pair last) and g =
    V* Re(i e^{i theta} A) v_top, f' = Re g_top and f'' = -lam_top +
    2 sum_j |g_j|^2 / (lam_top - lam_j).  A step is capped at half the grid
    spacing and kept only when f does not drop, so the result is never
    below f at the start (and the level set keeps r > f(pole)); the ascent
    stops at a repeated top eigenvalue, at f'' >= 0 or when the predicted
    gain is below a tenth of CONVERGENCE_TOL.
    """
    Ah, best = adj(A), None
    for _ in range(MAX_ASCENT_STEPS):
        z = np.exp(1j * theta)
        lam, V = np.linalg.eigh(0.5 * (z * A + np.conj(z) * Ah))
        if best is not None and lam[-1] < best[1]:
            return best
        best = (theta, float(lam[-1]))
        g = adj(V) @ (0.5j * (z * A - np.conj(z) * Ah)) @ V[:, -1]
        gaps = lam[-1] - lam[:-1]
        if np.any(gaps <= 0):
            return best
        d1 = g[-1].real
        d2 = 2 * np.sum(np.abs(g[:-1]) ** 2 / gaps) - lam[-1]
        if d2 >= 0 or d1 * d1 / (-2 * d2) <= 0.1 * CONVERGENCE_TOL * max(1.0, lam[-1]):
            return best
        step = float(np.clip(-d1 / d2, -np.pi / START_ANGLES, np.pi / START_ANGLES))
        theta = (best[0] + step) % (2 * np.pi)
    return best


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
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    C[:n, n:] = eye
    C[n:, :n] = -K0
    C[n:, n:] = -K1
    s = np.linalg.eigvals(C)
    # |z| and arg z without dividing: s = 1 (z = infinity) occurs when A is singular
    num, den = 1 + s, 1 - s
    unimodular = np.abs(np.abs(num) - np.abs(den)) <= UNIMODULAR_TOL * np.abs(den)
    z = num[unimodular] * np.conj(den[unimodular])
    return (np.angle(z) + pole - np.pi) % (2 * np.pi)


def decide_wr(A, level: float) -> NumRadResult:
    """Bounds value <= w(A) <= upper, from the steps of the module docstring.

    upper <= level passes, value > level + 8 n eps ||A||_F fails, and otherwise the bounds
    straddle level within CONVERGENCE_TOL * max(1, value) or that allowance.  An entry above
    HUGE scales A and level by an exact power of two; ProblemTooLarge if w(A)'s bound overflows."""
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("numerical radius needs a square matrix")
    if n == 0:
        return NumRadResult(0.0, 0.0, 0.0, 0, "closed form")
    big = max(abs(A.real).max(), abs(A.imag).max())
    scale = 2.0 ** int(2 - np.frexp(big)[1]) if big > HUGE else 1.0  # max entry in [2, 4)
    A, level = A * scale, level * scale
    if n == 1:
        a, w = A[0, 0], float(abs(A[0, 0]))
        res = NumRadResult(w, float(-np.angle(a) % (2 * np.pi)), w, 0, "closed form")
    else:
        grid, pole, rounding = grid_bounds(A)
        if grid.upper <= level < np.inf or grid.value > level + rounding:
            res = grid
        elif level < np.inf and (norm := opnorm(A) + rounding) <= level:
            res = replace(grid, upper=norm, decided_by="norm")
        else:
            res = _level_set(A, grid, pole, level + rounding)
    if not np.isfinite(res.upper / scale):
        raise ProblemTooLarge("the bound on w(A) exceeds the float range")
    return res if scale == 1.0 else replace(res, value=res.value / scale, upper=res.upper / scale)


def numerical_radius(A) -> NumRadResult:
    """Bounds on w(A) within CONVERGENCE_TOL * max(1, value): `decide_wr` at level infinity;
    upper is ||A|| (decided_by "norm") when MAX_LEVEL_SETS level-set steps do not certify."""
    return decide_wr(A, np.inf)


def _level_set(A: np.ndarray, grid: NumRadResult, pole: float, level: float) -> NumRadResult:
    """Two-sided bounds on w(A), n >= 2, from grid_bounds(A) = (grid, pole, _).

    The ascent starts at the grid maximum; the Cayley pole at the smallest
    f keeps the Cholesky factor far from singular.  A lower bound above the
    failure threshold level, an ascent's or f at a midpoint, returns at once with grid.upper.
    """
    (theta, lower), steps = _ascend(A, grid.argmax_angle), 0
    while lower <= level and steps < MAX_LEVEL_SETS:
        steps += 1
        r = lower + CONVERGENCE_TOL * max(1.0, lower)
        cuts = np.sort(np.append(_level_set_angles(A, r, pole), pole))
        mids = 0.5 * (cuts + np.append(cuts[1:], cuts[0] + 2 * np.pi)) % (2 * np.pi)
        fm = _top_eigs(A, mids)
        k = int(np.argmax(fm))
        if fm[k] > level:
            return NumRadResult(float(fm[k]), float(mids[k]), grid.upper, steps, "level set")
        if fm[k] <= r:
            return NumRadResult(lower, float(theta), float(r), steps, "level set")
        theta, lower = _ascend(A, mids[k])
    if lower > level:
        return NumRadResult(lower, float(theta), grid.upper, steps, "ascent")
    return NumRadResult(lower, float(theta), max(lower, opnorm(A)), steps, "norm")  # w(A) <= ||A||
