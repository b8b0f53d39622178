"""Independent reference oracles used only by the test suite.

The library never touches complex matrices; these helpers rebuild every
operator as an explicit complex 2x2 matrix so eigenvalues, traces and Born
probabilities can be cross-checked against numpy's eigensolver.  The LP
oracle enumerates basic points of small box LPs directly.  The quantum
value has a closed form on the whole weight triangle, and the measurement
subproblem's dual is minimized by ``scipy.optimize.minimize``.  The noise
threshold's bisection over joint-measurability checks is the reference for
the single parametric LP that replaced it.
"""

from itertools import combinations, product

import numpy as np

SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
IDENTITY = np.eye(2, dtype=complex)


def operator_matrix(scalar: float, vec) -> np.ndarray:
    mat = scalar * IDENTITY
    for coeff, sigma in zip(np.asarray(vec, dtype=float), SIGMA):
        mat = mat + coeff * sigma
    return mat


def state_matrix(state) -> np.ndarray:
    return operator_matrix(0.5, 0.5 * np.asarray(state.bloch))


def effect_matrix(effect) -> np.ndarray:
    return operator_matrix(effect.weight, effect.vec)


def eigenvalues(scalar: float, vec) -> np.ndarray:
    return np.linalg.eigvalsh(operator_matrix(scalar, vec))


def born(state, effect) -> float:
    return float(np.real(np.trace(state_matrix(state) @ effect_matrix(effect))))


def is_povm(effects, tol: float = 1e-9) -> bool:
    """Every effect matrix has eigenvalues in [0, 1] and the matrices sum
    to the identity, each up to tol (spectral norm for the sum)."""
    mats = [effect_matrix(e) for e in effects]
    eigs = np.array([np.linalg.eigvalsh(m) for m in mats])
    return eigs.min() >= -tol and eigs.max() <= 1.0 + tol and np.linalg.norm(sum(mats) - IDENTITY, 2) <= tol


def commutators_vanish(povm, tol: float = 1e-9) -> bool:
    """Every pair of effect matrices commutes: the spectral norm of [E, F]
    is 2 |v_E x v_F|, compared with 2 tol."""
    mats = [effect_matrix(e) for e in povm.effects]
    return all(
        np.linalg.norm(a @ b - b @ a, 2) <= 2.0 * tol for a, b in combinations(mats, 2)
    )


def lp_best_vertex_value(c, a, b, lower, upper, tol: float = 1e-9) -> float:
    """Maximum of c.x over {a x = b, l <= x <= u} by basic-point enumeration.

    Every vertex has n - m variables at a bound with the rest solving the
    equality system; all supports and bound patterns are tried.
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = c.size
    m = a.shape[0] if a.size else 0
    best = -np.inf
    for basic in combinations(range(n), m):
        free = [i for i in range(n) if i not in basic]
        a_basic = a[:, list(basic)] if m else np.zeros((0, 0))
        if m and abs(np.linalg.det(a_basic)) < 1e-12:
            continue
        for pattern in product((0, 1), repeat=len(free)):
            x = np.empty(n)
            for pos, i in enumerate(free):
                x[i] = lower[i] if pattern[pos] == 0 else upper[i]
            if m:
                rhs = b - a[:, free] @ x[free] if free else b
                x[list(basic)] = np.linalg.solve(a_basic, rhs)
            if np.all(x >= lower - tol) and np.all(x <= upper + tol):
                best = max(best, float(c @ x))
    return best


def quantum_value_closed_form(alpha) -> float:
    """P_Q(alpha) = 1/3 + F/12, with F the weighted Fermat-Torricelli value
    of the trine's measurement targets, an equilateral triangle of side 3.

    Sorted so that a_max >= a_mid >= a_min: when a_max^2 >= a_mid^2 +
    a_min^2 + a_mid a_min the median sits on a target and
    P_Q = 5/6 - a_max/4; otherwise F^2 = (9/2) sum a^2 + 18 sqrt(3) H, with
    H the Heron area of the triangle with side lengths alpha, which is
    sqrt((1 - a_0)(1 - a_1)(1 - a_2)) because sum alpha = 2.
    """
    a_min, a_mid, a_max = sorted(float(a) for a in alpha)
    if a_max**2 >= a_mid**2 + a_min**2 + a_mid * a_min:
        return 5.0 / 6.0 - a_max / 4.0
    heron = np.sqrt((1.0 - a_min) * (1.0 - a_mid) * (1.0 - a_max))
    return 1.0 / 3.0 + np.sqrt(4.5 * (a_min**2 + a_mid**2 + a_max**2) + 18.0 * np.sqrt(3.0) * heron) / 12.0


def weighted_median_value(c, r) -> float:
    """min over lam of sum_b r_b |c_b - lam|: L-BFGS-B from the r-weighted
    centroid, compared with the value at each target, where the objective
    has a kink."""
    from scipy.optimize import minimize

    c = np.asarray(c, dtype=float)
    r = np.asarray(r, dtype=float)

    def dual(lam):
        diff = c - lam
        norms = np.linalg.norm(diff, axis=1)
        return float(r @ norms), -(r / np.maximum(norms, 1e-300)) @ diff

    start = (r @ c) / max(r.sum(), 1e-300)
    found = minimize(dual, start, jac=True, method="L-BFGS-B")
    return min([float(found.fun)] + [dual(target)[0] for target in c])


def noise_threshold_by_bisection(m_first, m_second, polygon_k: int = 64, tol: float = 1e-4):
    """Bisection bracket on the 2^-d grid: one full joint-measurability
    check at eta = 1, then one per halving until the bracket is at most tol."""
    from trinegame.measurement_classicality import add_noise, joint_measurability_check

    lo, hi = 0.0, 1.0
    if joint_measurability_check(m_first, m_second, polygon_k).verdict == "compatible":
        return 1.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        verdict = joint_measurability_check(
            add_noise(m_first, mid), add_noise(m_second, mid), polygon_k
        ).verdict
        if verdict == "compatible":
            lo = mid
        else:
            hi = mid
    return lo, hi
