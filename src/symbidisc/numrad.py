"""Numerical radius with two-sided bounds, and the decision w(A) <= level.

w(A) is the maximum over theta of f(theta), the top eigenvalue of
Re(e^{i theta} A) = (e^{i theta} A + e^{-i theta} A*) / 2.

`decide_wr` answers w(A) <= level by the first of these steps that decides,
named in `decided_by`:
1. "closed form" for n <= 1;
2. "kittaneh", which only passes: w(A)^2 <= ||A*A + AA*|| / 2 (F. Kittaneh,
   Studia Math. 168, 2005), read in the Frobenius norm from two products,
   plus the rounding allowance of `_kittaneh`;
3. "grid", a coarse grid of angles, evaluated as one stacked eigensolve,
   which brackets w(A) within a factor sec(pi / START_ANGLES) (`grid_bounds`);
4. "norm", which only passes: w(A) <= ||A||, equal for normal A (Gustafson &
   Rao, Numerical Range, 1997);
5. "eigenvector", which only fails: |v*Av| / v*v <= w(A) for the
   eigenvector v of the eigenvalue of largest modulus, equal for normal A;
6. "ascent" and 7. "level set", which stop at the first lower bound above level.
Every failure needs a lower bound (a computed eigenvalue or Rayleigh
quotient) past level + 8 n eps ||A||_F, the allowance the grid's upper bound
carries.  `numerical_radius` runs them at level = infinity, so it takes
neither "kittaneh" nor "norm" nor "eigenvector" and never stops early.

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
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class NumRadResult:
    """Bounds value <= w(A) <= upper.

    A unit vector v attains Re(e^{i argmax_angle} v* A v) = value, so value
    <= w(A) up to rounding: an eigenvector of the top eigenvalue value of
    Re(e^{i argmax_angle} A), a unit vector e_i with value = |A_ii| when
    "kittaneh" decides, or the normalised eigenvector with value = |v*Av| / v*v
    when "eigenvector" decides.
    """

    value: float
    argmax_angle: float
    upper: float
    steps: int = 0  # level-set iterations; the closed forms for n <= 1 take none
    decided_by: str = "grid"  # one of the seven steps of the module docstring


def _rounding(A: np.ndarray) -> float:
    """8 n eps ||A||_F, the allowance for rounding in an eigvalsh or SVD of n x n A."""
    return 8 * len(A) * EPS * float(np.linalg.norm(A))


def _top_eigs(A: np.ndarray, thetas: np.ndarray, z=None) -> np.ndarray:
    """f at every angle, from one eigvalsh of the stacked Re(e^{i theta} A).

    z, if given, is the stack of e^{i theta}.  Re(e^{i theta} A) is (M + M*) / 2
    with M = e^{i theta} A: conj(z a) = conj(z) conj(a) holds in IEEE arithmetic."""
    M = (np.exp(1j * thetas)[:, None, None] if z is None else z) * A
    return np.linalg.eigvalsh(0.5 * (M + adj(M)))[:, -1]


_GRID_THETAS = 2 * np.pi * np.arange(START_ANGLES) / START_ANGLES
_GRID_Z = np.exp(1j * _GRID_THETAS)[:, None, None]
_GRID_COS = np.cos(np.pi / START_ANGLES)  # the grid's upper bound divides by it


def _kittaneh(A: np.ndarray) -> float:
    """Kittaneh's bound w(A) <= sqrt(||G|| / 2), G = A*A + AA*, read in the Frobenius norm.

    Returns sqrt(||G^||_F / 2 + (n + 2)^2 eps tr G^) for the computed G^.  With
    u = eps / 2, each entry of a computed product is a complex inner product
    of length n within sqrt(2) gamma_(n+1) <= (n + 1) eps of (|A|*|A|)_ij or
    (|A||A|*)_ij (Higham, Accuracy and Stability, 2002, sec. 3.6), whose
    Frobenius norm is at most ||A||_F^2; their sum adds u ||G^||_F <= eps
    ||A||_F^2; and the computed ||G^||_F, the root of a sum of 2 n^2 squares,
    is within (n^2 + 1) eps ||A||_F^2 of the exact one.  So ||G||_F / 2 is at
    most the computed ||G^||_F / 2 plus (n^2 + 2n + 4) eps ||A||_F^2 / 2 <=
    (n + 2)^2 eps ||A||_F^2 / 2.  As tr G^ = 2 ||A||_F^2 within a relative
    gamma_(3n), the allowance is about 4 times that; the rest covers the
    rounding of the last sum and of the square roots.  The bound needs the
    squares of the entries far from overflow and underflow: `decide_wr`
    takes the step only when the largest entry's square is in [1 / HUGE, HUGE] or A = 0.
    """
    Ah = adj(A)
    G = Ah @ A + A @ Ah
    n = len(A)
    return float(np.sqrt(0.5 * np.sqrt(np.vdot(G, G).real) + (n + 2) ** 2 * EPS * G.trace().real))


def _eigenvector_quotient(A: np.ndarray) -> complex:
    """v*Av / v*v for the eigenvector v of the eigenvalue of A of largest modulus.

    Its modulus is a lower bound on w(A), equal to w(A) for normal A.  The
    rounding of A v, v*(Av) and v*v stays within 8 n eps ||A||_F, the
    allowance of `_rounding`, which the failure threshold adds."""
    lam, V = np.linalg.eig(A)
    v = V[:, np.argmax(np.abs(lam))]
    return complex(np.vdot(v, A @ v) / np.vdot(v, v).real)


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
    f = _top_eigs(A, _GRID_THETAS, _GRID_Z)
    k = int(np.argmax(f))
    rounding = _rounding(A)
    upper = (f[k] + rounding) / _GRID_COS
    grid = NumRadResult(float(f[k]), float(_GRID_THETAS[k]), float(upper))
    return grid, float(_GRID_THETAS[np.argmin(f)]), rounding


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
    straddle level within CONVERGENCE_TOL * max(1, value) or that allowance.  A finite level
    first tries "kittaneh", which reports upper = Kittaneh's bound and value = max_i |A_ii|
    at argmax_angle = -arg A_ii, and before the ascent "eigenvector", which reports value =
    |v*Av| / v*v at argmax_angle = -arg(v*Av) and the grid's upper.  An entry above HUGE
    scales A and level by an exact power of two; ProblemTooLarge if w(A)'s bound overflows.
    ValueError for an input that is not a square matrix or a NaN level."""
    A = as_matrix(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("numerical radius needs a square matrix")
    if np.isnan(level):
        raise ValueError("the level of w(A) <= level is NaN")
    if n == 0:
        return NumRadResult(0.0, 0.0, 0.0, 0, "closed form")
    big = max(abs(A.real).max(), abs(A.imag).max())
    scale = 2.0 ** int(2 - np.frexp(big)[1]) if big > HUGE else 1.0  # max entry in [2, 4)
    A, level, top = A * scale, level * scale, big * scale
    finite = level < np.inf
    if n == 1:
        a, w = A[0, 0], float(abs(A[0, 0]))
        res = NumRadResult(w, float(-np.angle(a) % (2 * np.pi)), w, 0, "closed form")
    elif finite and (top == 0 or 1 / HUGE <= top * top <= HUGE) and (kitt := _kittaneh(A)) <= level:
        d = np.diagonal(A)
        i = int(np.argmax(mod := np.abs(d)))
        res = NumRadResult(float(mod[i]), float(-np.angle(d[i]) % (2 * np.pi)), kitt, 0, "kittaneh")
    else:
        grid, pole, rounding = grid_bounds(A)
        if finite and grid.upper <= level or grid.value > level + rounding:
            res = grid
        elif finite and (norm := opnorm(A) + rounding) <= level:
            res = replace(grid, upper=norm, decided_by="norm")
        elif finite and abs(q := _eigenvector_quotient(A)) > level + rounding:
            res = NumRadResult(abs(q), float(-np.angle(q) % (2 * np.pi)), grid.upper, 0, "eigenvector")
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
