"""Exact upper bound on the quantum value P_Q(alpha): a dual certificate.

With z = (u_0, u_1, u_2, y_0, y_1) and y_2 = -y_0 - y_1 the game is a
quadratic program whose objective and constraints depend on z only through
its Gram matrix G = z z^T (``_quadratic_program``).  Its Lagrangian (Shor)
dual bounds P_Q by every multiplier vector lambda >= 0 whose dual matrix
sum_i lambda_i C_i - A is positive semidefinite.  ``certify`` fits the KKT
multipliers at a strategy by least squares, adds ``CERT_EPS`` and tests a
power-of-two multiple of the dual matrix, an integer matrix, by Bareiss
elimination in Python integers, so the bound is rational and checked; no
SDP solver runs.  At an optimal strategy the bound exceeds its value by
about 1e-9.  The program is cached per pattern of held outcomes.

``quantum_opt.quantum_value`` imports this module on first use, so
``import trinegame`` loads neither it nor ``fractions``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import game
from .game import _SHIFT1, _SHIFT2
from .quantum_opt import AlphaTriple

ACTIVE_TOL = 1e-6    # constraint slack below which a multiplier is fitted
CERT_EPS = 1e-9      # added to every multiplier before the exact test
INACTIVE_RADIUS = 1e-12  # outcomes with alpha_b up to this are held at y_b = 0


class _QuadraticProgram(NamedTuple):
    """See ``_quadratic_program``."""

    lift: np.ndarray
    thrice_rows: np.ndarray
    twice_objective: np.ndarray
    rows: np.ndarray
    objective: np.ndarray


@functools.cache
def _quadratic_program(held: tuple[bool, bool, bool]) -> _QuadraticProgram:
    """The game as a quadratic program in z = (u_0, u_1, u_2, w), exactly.

    ``w`` holds the free coordinates of the measurement vectors, y = T w:
    (y_0, y_1) when no outcome is held, so y_2 = -y_0 - y_1.  A held
    outcome (alpha_b <= INACTIVE_RADIUS) stays at y_b = 0 and one
    coordinate remains.  Fields:

    * ``lift`` (integer) maps z to (u_0, u_1, u_2, y_0, y_1, y_2);
    * ``objective`` A with <A, z z^T> = sum_b y_b.(u_b - u_{b+1});
    * constraint i is (rows_i . z)^2 <= bounds_i (``_bounds``): |u_x|^2 <= 1,
      |m_x|^2 <= 1 with m_x = (2/3) sum u - u_{x+2}, |y_b|^2 <= alpha_b^2.

    ``thrice_rows`` = 3 rows and ``twice_objective`` = 2 A hold Python
    integers; ``rows`` and ``objective`` are their float values.
    """
    keep = np.flatnonzero(~np.array(held))
    if keep.size == 3:
        basis = np.array([[1, 0], [0, 1], [-1, -1]])
    else:
        basis = np.zeros((3, 1), dtype=int)
        basis[keep, 0] = (1, -1)
    zero = np.zeros((3, 3), dtype=int)
    lift = np.block([[np.eye(3, dtype=int), zero[:, : basis.shape[1]]], [zero, basis]])
    diff = np.eye(3, dtype=int) - np.eye(3, dtype=int)[list(_SHIFT1)]  # u_b - u_{b+1}
    twice_obj = lift.T @ np.block([[zero, diff.T], [diff, zero]]) @ lift
    eye = np.eye(6, dtype=int)
    thrice_m = 2 * eye[:3].sum(axis=0) - 3 * eye[list(_SHIFT2)]
    thrice_rows = np.concatenate([3 * eye[:3], thrice_m, 3 * eye[3 + keep]]) @ lift
    exact = (thrice_rows.astype(object), twice_obj.astype(object))  # Python integers
    return _QuadraticProgram(lift, *exact, thrice_rows / 3, twice_obj / 2)


def _bounds(al: np.ndarray) -> tuple[list[Fraction], Fraction]:
    """Exact constraint ``bounds`` and ``constant``: P <= constant + max <A, z z^T> / 12.

    Without held outcomes P = sum(alpha)/6 + <A, z z^T>/12 exactly.
    Holding y_b at zero is a bound, not a restriction: moving y_b onto the
    other two outcomes (y_c + y_b/2 each) keeps sum y = 0, grows their radii
    by alpha_b/2, which the bounds include, and lowers <A, z z^T> by at most
    (3/2)|y_b||u_b - u_{b+1}| <= 3 alpha_b, which ``constant`` adds.
    """
    exact = [Fraction(float(a)) for a in al]
    held = al <= INACTIVE_RADIUS
    held_weight = sum((exact[b] for b in np.flatnonzero(held)), Fraction(0))
    bounds = [Fraction(1)] * 6 + [(exact[b] + held_weight / 2) ** 2 for b in np.flatnonzero(~held)]
    return bounds, sum(exact) / 6 + held_weight / 4


def _gram_coordinates(strategy: game.GameStrategy, lift: np.ndarray) -> np.ndarray:
    """z of a strategy, one row per block: least squares of lift z = (u; y)."""
    u = np.stack([strategy.prep(x, 0).bloch for x in range(3)])
    y = np.stack([2.0 * e.vec for e in strategy.povm.effects])
    return np.linalg.lstsq(lift.astype(float), np.concatenate([u, y]), rcond=None)[0]


def _multipliers(qp: _QuadraticProgram, bounds: list[Fraction], z: np.ndarray) -> np.ndarray:
    """KKT multipliers at z: least squares of (sum_i mu_i C_i - A) z = 0,
    C_i = rows_i rows_i^T, over the constraints active at z; clipped at 0.

    The columns are normalized first: the multiplier of |y_b| <= alpha_b
    grows like 1/alpha_b while its column shrinks like alpha_b.
    """
    lengths = np.linalg.norm(qp.rows @ z, axis=1)
    active = np.flatnonzero(lengths >= np.sqrt(np.array(bounds, dtype=float)) - ACTIVE_TOL)
    columns = np.einsum("ij,ik->ijk", qp.rows[active], qp.rows[active] @ z).reshape(len(active), -1).T
    scale = np.linalg.norm(columns, axis=0)
    scale[scale == 0.0] = 1.0
    rhs = (qp.objective @ z).ravel()
    solution = np.linalg.lstsq(columns / scale, rhs, rcond=None)[0] / scale
    mu = np.zeros(len(qp.rows))
    mu[active] = np.maximum(solution, 0.0)
    return mu


def _positive_definite(matrix: np.ndarray) -> bool:
    """Bareiss elimination of a symmetric matrix of Python integers: True when
    every pivot, which is a leading principal minor, is positive (Sylvester)."""
    m = matrix.tolist()
    previous = 1
    for k in range(len(m)):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // previous  # exact
        previous = m[k][k]
    return True


def _certified_upper(qp: _QuadraticProgram, bounds: list, constant: Fraction, mu) -> Fraction | None:
    """Exact bound constant + sum_i (mu_i + eps) bounds_i / 12, or None.

    Weak duality: for lambda >= 0 with sum_i lambda_i C_i - A positive
    semidefinite, <A, G> <= sum_i lambda_i <C_i, G> <= sum_i lambda_i
    bounds_i on every feasible Gram matrix G, so the bound holds for every
    strategy.  Each lambda_i = mu_i + eps is n_i / D with D a power of two
    (above 2^63 for tiny mu_i), so 18 D (sum_i lambda_i C_i - A), equal to
    2 sum_i n_i R_i R_i^T - 9 D (2 A) with R_i = 3 rows_i, is an integer matrix.
    """
    lam = [Fraction(float(m)) + Fraction(CERT_EPS) for m in mu]
    scale = max(x.denominator for x in lam)
    n = np.array([x.numerator * (scale // x.denominator) for x in lam], dtype=object)
    if not _positive_definite(2 * (qp.thrice_rows.T * n) @ qp.thrice_rows - 9 * scale * qp.twice_objective):
        return None
    return constant + sum(x * b for x, b in zip(lam, bounds)) / 12


def certify(alpha, strategy: game.GameStrategy) -> Fraction | None:
    """Exact upper bound on P_Q(alpha) from the KKT multipliers of
    ``strategy``, or None when they do not give a dual certificate."""
    al = AlphaTriple(tuple(alpha)).as_array()
    qp = _quadratic_program(tuple((al <= INACTIVE_RADIUS).tolist()))
    bounds, constant = _bounds(al)
    mu = _multipliers(qp, bounds, _gram_coordinates(strategy, qp.lift))
    return _certified_upper(qp, bounds, constant, mu)
