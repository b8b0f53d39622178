"""Independent reference oracles used only by the test suite.

The library never touches complex matrices; these helpers rebuild every
operator as an explicit complex 2x2 matrix so eigenvalues, traces and Born
probabilities can be cross-checked against numpy's eigensolver.  The LP
oracle enumerates basic points of small box LPs directly, and the simplex
step with index-list pricing and ``np.outer`` elimination is the reference
for the engine's leaner step, which must match it bit for bit.  The quantum
value has a closed form on the whole weight triangle, and the measurement
subproblem's dual is minimized by ``scipy.optimize.minimize``.  The exact
dual certificate of the quantum value is rebuilt in ``Fraction`` arithmetic
and tested by LDL^T.  The noise threshold's bisection over
inscribed-cone feasibility checks is the reference for the single parametric LP
that replaced it.  The one-row-at-a-time POVM sampler and the one-subset-
at-a-time enclosing ball are the references for their batched library
versions, which must match them bit for bit; so are the one-POVM-per-call
collinear sampler for the stacked one in ``cli``, and the per-state
simulation loop for the stacked member table of ``verify_simulation``, and
the operator-by-operator hiding residuals for the Bloch stack of
``check_parity_concealment``.  The pair operators of the guessing dual,
summed one operator at a time, and the eigenvalue loop over them are the
references for the stacked Bloch parts and the margin of
``guessing_report``.  The samplers and enumerations at the end generate
test inputs from the library's own types.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from trinegame.classical_bound import ClassicalStrategy, encoding_residuals
from trinegame.game import project_free_blochs, shrink_to_feasible
from trinegame.quantum_bound import CERT_EPS
from trinegame.measurement_classicality import EnclosingBall
from trinegame.qubit_core import DensityState, Effect, Povm, born_probability

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
    """Every pair of effect matrices commutes, relative to their size: the
    spectral norm of [E, F] is 2 |v_E x v_F| and that of the traceless part
    E - Tr(E) I / 2 is |v_E|, so the test is |v_E x v_F| <= tol max(|v_E|, |v_F|)."""
    mats = [effect_matrix(e) for e in povm.effects]
    sizes = [np.linalg.norm(m - 0.5 * np.trace(m) * IDENTITY, 2) for m in mats]
    return all(
        np.linalg.norm(a @ b - b @ a, 2) <= 2.0 * tol * max(sa, sb)
        for (a, sa), (b, sb) in combinations(zip(mats, sizes), 2)
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


def pivot_by_outer(d, row: int, col: int):
    """Reference for ``lp_engine._Dictionary._pivot``: the elimination
    subtracts ``np.outer(factors, tab[row])``."""
    tab, rhs = d.tab, d.rhs
    piv = tab[row, col]
    tab[row] /= piv
    rhs[row] /= piv
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    rhs -= factors * rhs[row]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    leaving = d.basis[row]
    d.is_basic[leaving] = False
    d.is_basic[col] = True
    d.at_upper[col] = False
    d.basis[row] = col
    d.pivots += 1


def simplex_run_by_index_lists(d, cost) -> str:
    """Reference for ``lp_engine._Dictionary.run``: the same pricing, ratio
    test and tie-break, with the favourable columns gathered as an index
    list and the upper-bound ratios computed on every iteration."""
    from trinegame.lp_engine import _MAX_ITERS, DEGENERATE_RUN, PIVOT_TOL, LpNumericalError

    tab, span = d.tab, d.span
    enterable = span > PIVOT_TOL
    degenerate = 0
    for _ in range(_MAX_ITERS):
        reduced = cost - cost[d.basis] @ tab
        favorable = enterable & ~d.is_basic & np.where(
            d.at_upper, reduced < -PIVOT_TOL, reduced > PIVOT_TOL
        )
        idx = np.flatnonzero(favorable)
        if idx.size == 0:
            return "optimal"
        if degenerate < DEGENERATE_RUN:
            j = int(idx[np.argmax(np.abs(reduced[idx]))])
        else:
            j = int(idx[0])
        sigma = -1.0 if d.at_upper[j] else 1.0
        col = sigma * tab[:, j]
        beta = d.basic_values()
        basic_span = span[d.basis]
        to_lower = col > PIVOT_TOL
        to_upper = (col < -PIVOT_TOL) & np.isfinite(basic_span)
        ratios = np.full(col.size, np.inf)
        ratios[to_lower] = np.maximum(beta[to_lower], 0.0) / col[to_lower]
        ratios[to_upper] = np.maximum(basic_span[to_upper] - beta[to_upper], 0.0) / -col[to_upper]
        row_min = ratios.min(initial=np.inf)
        step = min(span[j], row_min)
        if not np.isfinite(step):
            return "unbounded"
        degenerate = degenerate + 1 if step <= 1e-12 else 0
        if row_min <= span[j] + 1e-12:
            ties = np.flatnonzero(ratios <= row_min + 1e-12)
            leave_row = int(ties[np.argmin(d.basis[ties])])
            leaving = d.basis[leave_row]
            d._pivot(leave_row, j)
            d.at_upper[leaving] = to_upper[leave_row]
        else:
            d.at_upper[j] = not d.at_upper[j]
    raise LpNumericalError("simplex iteration limit exceeded")


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


def positive_definite_ldl(matrix) -> bool:
    """Exact LDL^T of a symmetric matrix: True when every pivot is positive."""
    m = [list(row) for row in matrix]
    n = len(m)
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= factor * m[k][j]
    return True


def certified_upper(qp, bounds, constant, mu) -> Fraction | None:
    """``quantum_bound._certified_upper`` in ``Fraction`` arithmetic: the
    dual matrix sum_i lambda_i C_i - A with lambda = mu + eps, C_i = rows_i
    rows_i^T, built from exact rationals and tested by LDL^T."""
    rows = qp.thrice_rows * Fraction(1, 3)
    lam = np.array([Fraction(float(m)) for m in mu], dtype=object) + Fraction(CERT_EPS)
    if not positive_definite_ldl((rows.T * lam) @ rows - qp.twice_objective * Fraction(1, 2)):
        return None
    return constant + lam @ np.array(bounds, dtype=object) / 12


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


def pair_operators_by_sums(ensemble) -> list[tuple[float, np.ndarray]]:
    """The nine operators W_ij = (e_i + e'_j)/6 of the post-measurement dual
    as (scalar, Bloch) pairs in the order 3 i + j: the state operators
    (1/2, bloch/2) added one pair at a time, then scaled by 1/6."""
    out = []
    for s0 in ensemble.part0:
        for s1 in ensemble.part1:
            scalar, vec = 0.5 + 0.5, 0.5 * s0.bloch + 0.5 * s1.bloch
            out.append(((1.0 / 6.0) * scalar, (1.0 / 6.0) * vec))
    return out


def parity_residuals_by_operators(preps) -> tuple[float, float]:
    """(mixture, partition) residuals of the hiding constraints, one state
    operator (1/2, bloch/2) at a time: the largest |coordinate| of the
    difference of the x-mixtures of a = 0 and a = 1, and of every two
    group sums (c, 0) + (c + 1 mod 3, 1), scalar parts included."""
    ops = {(x, a): (0.5, 0.5 * preps[2 * x + a].bloch) for x in range(3) for a in range(2)}

    def add(p, q):
        return p[0] + q[0], p[1] + q[1]

    def max_abs_diff(p, q):
        return max(abs(p[0] - q[0]), float(np.max(np.abs(p[1] - q[1]))))

    mix = [add(add(ops[(0, a)], ops[(1, a)]), ops[(2, a)]) for a in range(2)]
    mix = [((1.0 / 3.0) * scalar, (1.0 / 3.0) * vec) for scalar, vec in mix]
    sums = [add(ops[(c, 0)], ops[((c + 1) % 3, 1)]) for c in range(3)]
    partition = max(max_abs_diff(sums[i], sums[j]) for i, j in combinations(range(3), 2))
    return max_abs_diff(*mix), partition


def dual_margin_by_eigenvalues(certificate, operators) -> float:
    """Smallest eigenvalue of Y - W over the (scalar, Bloch) operators W,
    one difference at a time: (y_0 - w_0) - |y_vec - w_vec|, with Y the
    (4,) certificate (y_0, y_vec)."""
    worst = np.inf
    for scalar, vec in operators:
        worst = min(worst, (certificate[0] - scalar) - float(np.linalg.norm(certificate[1:] - vec)))
    return float(worst)


def noise_threshold_by_bisection(m_first, m_second, polygon_k: int = 64, tol: float = 1e-4):
    """Bisection bracket on the 2^-d grid: one inscribed-cone feasibility
    check at eta = 1, then one per halving until the bracket is at most tol.

    A step reads only whether the inscribed cone of
    ``joint_measurability_check`` is feasible, which is exactly when its
    verdict is "compatible"; the circumscribed-cone LP that the check adds
    on an infeasible step decides nothing here, so it is not solved.
    """
    from trinegame.measurement_classicality import _cone_feasible, _plane_coords, _polygon_generators, add_noise

    def compatible(eta):
        coords = _plane_coords(add_noise(m_first, eta), add_noise(m_second, eta))
        return _cone_feasible(coords, _polygon_generators(coords, polygon_k, circumscribed=False))

    lo, hi = 0.0, 1.0
    if compatible(1.0):
        return 1.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if compatible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def simulation_residuals_by_loop(n: int, seed: int) -> tuple[float, float]:
    """(element residual, statistical residual) of the n-outcome simulation,
    one member effect and one state at a time: the mixed coordinates add
    each relabeled effect's coordinates / n in member order, and each of 100
    ``random_state`` draws compares every parent outcome's Born probability
    with the label-filtered sum over all member effects, / n."""
    from trinegame.povm_simulation import equatorial_povm, simulator_set
    from trinegame.qubit_core import random_state

    parent, sim = equatorial_povm(n), simulator_set(n)
    coords = np.zeros((n, 4))
    for member in sim.members:
        for label, effect in zip(member.labels, member.povm.effects):
            coords[label] += np.concatenate(([effect.weight], effect.vec)) / n
    target = np.stack([np.concatenate(([e.weight], e.vec)) for e in parent.povm.effects])
    element = float(np.max(np.abs(coords - target)))

    rng = np.random.default_rng(seed)
    statistical = 0.0
    for _ in range(100):
        state = random_state(rng)
        for k in range(n):
            p_parent = born_probability(state, parent.povm.effects[k])
            p_mix = sum(
                born_probability(state, eff)
                for member in sim.members
                for label, eff in zip(member.labels, member.povm.effects)
                if label == k
            ) / n
            statistical = max(statistical, abs(p_parent - p_mix))
    return element, statistical


def clip_bloch_parts(w, v, u) -> np.ndarray:
    """Zero-sum Bloch parts of one random POVM from its draws, one row at a
    time: Dirichlet weights w (n,), normal directions v (n, 3) and uniform
    radial fractions u (n,)."""
    n_outcomes = len(w)
    radii = np.minimum(w, 1.0 - w)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    v *= (radii * u)[:, None]
    for _ in range(200):
        v -= v.sum(axis=0) / n_outcomes
        norms = np.linalg.norm(v, axis=1)
        over = norms > radii
        if not over.any() and np.linalg.norm(v.sum(axis=0)) < 1e-14:
            break
        scale = np.where(norms > 1e-15, np.minimum(1.0, radii / np.maximum(norms, 1e-15)), 1.0)
        v *= scale[:, None]
    v -= v.sum(axis=0) / n_outcomes
    norms = np.linalg.norm(v, axis=1)
    shrink = np.max(norms / np.maximum(radii, 1e-300)) if n_outcomes else 0.0
    if shrink > 1.0:
        v /= shrink
    return v


def random_povm_by_rows(rng: np.random.Generator, n_outcomes: int = 3) -> Povm:
    """Reference for ``qubit_core.random_povm``: the same three draws, then
    ``clip_bloch_parts``."""
    w = rng.dirichlet(np.ones(n_outcomes))
    v = rng.normal(size=(n_outcomes, 3))
    u = rng.uniform(size=n_outcomes)
    v = clip_bloch_parts(w, v, u)
    return Povm(tuple(Effect(w[i], v[i]) for i in range(n_outcomes)))


def random_collinear_povm(rng: np.random.Generator) -> Povm:
    """Reference for ``cli.random_collinear_povms``, one POVM per call:
    a three-outcome POVM with all effect Bloch vectors on one axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    w = rng.dirichlet(np.ones(3))
    radius = np.minimum(w, 1 - w)
    coeffs = rng.uniform(-1.0, 1.0, size=3) * radius
    coeffs[2] = -(coeffs[0] + coeffs[1])
    scale = abs(coeffs[2]) / radius[2] if radius[2] > 1e-12 else 0.0
    if scale > 1.0:
        coeffs /= scale
    return Povm(tuple(Effect(w[i], coeffs[i] * axis) for i in range(3)))


def _circumcenter(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Center equidistant from k affinely independent points (k = 3, 4) and
    its barycentric weights t: center = t @ points with sum t = 1."""
    base = points[0]
    rel = points[1:] - base
    gram = rel @ rel.T
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    det = np.linalg.det(gram)
    if abs(det) < 1e-18:
        return None
    coeffs = np.linalg.solve(gram, rhs)
    return base + coeffs @ rel, np.concatenate(([1.0 - coeffs.sum()], coeffs))


def min_enclosing_ball_by_subsets(points: np.ndarray) -> EnclosingBall:
    """Reference for ``measurement_classicality.min_enclosing_ball``: every
    pair, triple and quadruple in turn, one determinant and solve each."""
    pts = np.asarray(points, dtype=float)
    k = len(pts)
    if k == 0:
        raise ValueError("no points")
    if k == 1:
        return EnclosingBall(pts[0].copy(), 0.0, (0,), np.ones(1))
    best = EnclosingBall(None, np.inf, (), np.zeros(0))
    for size in (2, 3, 4):
        for idx in combinations(range(k), size):
            sub = pts[list(idx)]
            if size == 2:
                center, weights = 0.5 * (sub[0] + sub[1]), np.full(2, 0.5)
            else:
                found = _circumcenter(sub)
                if found is None:
                    continue
                center, weights = found
            r = float(np.max(np.linalg.norm(pts - center, axis=1)))
            if r < best.radius - 1e-15 and weights.min() >= -1e-12:
                best = EnclosingBall(center, r, idx, weights)
    return best


def deterministic_encodings() -> list[np.ndarray]:
    """All {0,1}-valued encodings satisfying both constraints (exactly the
    all-0 and all-1 encodings; randomized encodings are necessary)."""
    found = []
    for bits in range(64):
        p = np.array([[(bits >> (2 * x + a)) & 1 for a in range(2)] for x in range(3)], dtype=float)
        rate, pair = encoding_residuals(p)
        if rate <= 1e-12 and pair <= 1e-12:
            found.append(p)
    return found


def random_feasible_strategy(rng: np.random.Generator) -> ClassicalStrategy:
    """Uniform-ish sample from the constraint polytope (rejection on p)."""
    while True:
        kappa = rng.uniform()
        lo, hi = max(0.0, 2.0 * kappa - 1.0), min(1.0, 2.0 * kappa)
        p00, p10 = rng.uniform(lo, hi, size=2)
        p20 = 3.0 * kappa - p00 - p10
        if p20 < lo or p20 > hi:
            continue
        p = np.array(
            [
                [p00, 2.0 * kappa - p20],
                [p10, 2.0 * kappa - p00],
                [p20, 2.0 * kappa - p10],
            ]
        )
        s = rng.dirichlet(np.ones(3))
        r = rng.dirichlet(np.ones(3))
        return ClassicalStrategy(p, s, r)


def random_feasible_first_blochs(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample a=0 Bloch triples satisfying the hiding-constraint feasibility."""
    u = rng.uniform(-1.0, 1.0, size=(size, 3, 3))
    u = project_free_blochs(u, iters=60)
    return shrink_to_feasible(u)


def outcome_probabilities(state: DensityState, povm: Povm) -> np.ndarray:
    return np.array([born_probability(state, e) for e in povm.effects])
