"""Non-classicality certificates for qubit measurements.

Four independent certificates live here:

* anti-distinguishability: for a zero-sum triple of pure states, the POVM
  {(2/3)(I - pi_b)} rules out state b with certainty on outcome b;
* a guessing-gap incompatibility witness: discriminating a partitioned
  six-state ensemble succeeds strictly better when the partition label
  arrives before the measurement than after it, and the post-measurement
  optimum has an exact dual certificate (a minimum enclosing ball in Bloch
  coordinates), so a positive gap is rigorous; the explicit witness POVM
  behind the lower bound is built on the ball's contact points and meets
  the dual optimum exactly;
* direct joint-measurability feasibility for coplanar POVM pairs, with the
  positivity cone replaced by inscribed (feasible => compatible) and
  circumscribed (infeasible => incompatible) polygon cones, both plain LPs;
  white noise scales only the Bloch parts, so the largest noise level the
  inscribed cone certifies compatible is one more LP, with the noise level
  as a variable;
* coherence detection: a POVM is free for a basis iff every effect Bloch
  vector is collinear with the basis axis; free in some basis iff all
  effect vectors are pairwise collinear, with the best witness state lying
  along the largest off-axis component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .lp_engine import FEASIBILITY_TOL, LpFamily, LpNumericalError
from .qubit_core import (
    DensityState,
    Effect,
    PauliOperator,
    Povm,
    born_probability,
    xz_direction,
)

TWO_FIFTHS_PI = 2.0 * np.pi / 5.0


class CoplanarityError(ValueError):
    """Joint-measurability check restricted to coplanar POVM pairs."""


# ---------------------------------------------------------------------------
# anti-distinguishability


def antidistinguishing_povm(states, tol: float = 1e-9) -> Povm:
    """POVM {(2/3)(I - pi_b)} that never fires outcome b on state b.

    Requires three pure states whose Bloch vectors sum to zero; then the
    complement effects are valid and complete.
    """
    states = tuple(states)
    if len(states) != 3:
        raise ValueError("expected three states")
    blochs = np.stack([s.bloch for s in states])
    if np.linalg.norm(blochs.sum(axis=0)) > tol:
        raise ValueError("Bloch vectors must sum to zero for this construction")
    for s in states:
        if abs(s.purity_radius - 1.0) > tol:
            raise ValueError("states must be pure")
    effects = tuple(Effect(1.0 / 3.0, -blochs[b] / 3.0) for b in range(3))
    return Povm(effects)


# ---------------------------------------------------------------------------
# partitioned ensembles and guessing probabilities


@dataclass(frozen=True, eq=False)
class PartitionedEnsemble:
    """Two three-state partitions drawn with uniform prior 1/6 overall."""

    part0: tuple
    part1: tuple

    def __post_init__(self):
        object.__setattr__(self, "part0", tuple(self.part0))
        object.__setattr__(self, "part1", tuple(self.part1))
        if len(self.part0) != 3 or len(self.part1) != 3:
            raise ValueError("each partition holds three states")

    def pair_operators(self) -> list[PauliOperator]:
        """The nine operators (e_i + e'_j)/6 entering the post-measurement dual."""
        out = []
        for s0 in self.part0:
            for s1 in self.part1:
                op = s0.as_operator() + s1.as_operator()
                out.append(op.scaled(1.0 / 6.0))
        return out


def _state_at(angle: float) -> DensityState:
    return DensityState(xz_direction(angle))


def carmeli_ensemble() -> PartitionedEnsemble:
    """The partitioned ensemble certifying incompatibility of the first two
    five-outcome simulators: states at xz angles {0, 144, 216} degrees and
    {72, 216, 288} degrees."""
    part0 = tuple(_state_at(a) for a in (0.0, 2 * TWO_FIFTHS_PI, 3 * TWO_FIFTHS_PI))
    part1 = tuple(_state_at(a) for a in (TWO_FIFTHS_PI, 3 * TWO_FIFTHS_PI, 4 * TWO_FIFTHS_PI))
    return PartitionedEnsemble(part0, part1)


def ensemble_for_simulator_pair(o_first: int, o_second: int) -> PartitionedEnsemble:
    """Rotated copy of the certifying ensemble aligned with members o_first
    and o_second of the five-outcome simulator set."""
    offsets = (0.0, 2 * TWO_FIFTHS_PI, 3 * TWO_FIFTHS_PI)
    part0 = tuple(_state_at(o_first * TWO_FIFTHS_PI + d) for d in offsets)
    part1 = tuple(_state_at(o_second * TWO_FIFTHS_PI + d) for d in offsets)
    return PartitionedEnsemble(part0, part1)


def prior_guess(ensemble: PartitionedEnsemble, m_first: Povm, m_second: Povm) -> float:
    """Discrimination success when the partition label arrives first:
    outcome k of m_first guesses part0[k], outcome k of m_second part1[k]."""
    if len(m_first) != 3 or len(m_second) != 3:
        raise ValueError("expected three-outcome measurements")
    pairs = zip(ensemble.part0 + ensemble.part1, m_first.effects + m_second.effects)
    return sum(born_probability(state, eff) for state, eff in pairs) / 6.0


# ---------------------------------------------------------------------------
# minimum enclosing ball (exact dual of the post-measurement problem)


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


class EnclosingBall(NamedTuple):
    """Ball of the given center and radius; its center is the convex
    combination ``weights`` (>= 0, summing to 1) of the points ``support``,
    which lie on its boundary."""

    center: np.ndarray
    radius: float
    support: tuple
    weights: np.ndarray


def min_enclosing_ball(points: np.ndarray) -> EnclosingBall:
    """Exact smallest enclosing ball by support-set enumeration.

    The optimal center is a convex combination of at most four points on
    the ball's boundary; all pairs, triples and quadruples are tried (point
    counts here are <= 9), and a candidate counts only when its center lies
    in the convex hull of its points.
    """
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


# ---------------------------------------------------------------------------
# post-measurement guessing bounds


@dataclass(frozen=True, eq=False)
class GuessingReport:
    p_prior: float
    p_post_upper: float
    p_post_lower: float
    dual_certificate: PauliOperator
    witness_margin: float        # p_prior - p_post_upper; positive proves the pair incompatible
    strategy_povm: Povm
    strategy_assignment: tuple

    def dual_feasibility_margin(self, ensemble: PartitionedEnsemble) -> float:
        """Smallest eigenvalue of Y - W_ij over the nine pair operators."""
        y = self.dual_certificate
        worst = np.inf
        for w in ensemble.pair_operators():
            gap = y - w
            worst = min(worst, gap.eigenvalues()[0])
        return float(worst)


def post_guess_bounds(ensemble: PartitionedEnsemble) -> tuple[float, float, PauliOperator, Povm, tuple]:
    """(p_post_lower, p_post_upper, dual certificate, witness POVM, assignment).

    Upper bound: min Tr[Y] over Y >= W_ij for all nine pair operators.
    Every W_ij has identity coefficient 1/6, so the optimal Y is 1/6 + R
    plus the center of the minimum enclosing ball of the W Bloch parts, an
    exact dual optimum of value 2 (1/6 + R).
    Lower bound: the value of an explicit witness built on the ball's
    support.  Support point z is the Bloch part p_z of the pair operator
    W_ij, at unit direction n_z from the center and with barycentric weight
    t_z, so that t >= 0, sum t = 1 and sum t_z n_z = 0; the effect
    t_z (I + n_z.sigma) guesses the pair (i, j).  Its value is
    sum_z Tr[E_z W_z] = 2 sum_z t_z (1/6 + n_z.p_z) = 2 (1/6 + R), so the
    two bounds meet (complementary slackness).
    """
    pts = np.array([op.vec for op in ensemble.pair_operators()])
    ball = min_enclosing_ball(pts)
    upper = 2.0 * (1.0 / 6.0 + ball.radius)
    certificate = PauliOperator(1.0 / 6.0 + ball.radius, ball.center)
    # all nine points coincide when R = 0; the units are then zero and the effects t_z I
    units = (pts[list(ball.support)] - ball.center) / max(ball.radius, 1e-300)
    povm = Povm(tuple(Effect(t, t * n) for t, n in zip(ball.weights, units)))
    assignment = tuple(divmod(z, 3) for z in ball.support)  # pair z = 3 i + j
    lower = sum(
        born_probability(ensemble.part0[i], eff) + born_probability(ensemble.part1[j], eff)
        for eff, (i, j) in zip(povm.effects, assignment)
    ) / 6.0
    return lower, upper, certificate, povm, assignment


def guessing_report(ensemble: PartitionedEnsemble, m_first: Povm, m_second: Povm) -> GuessingReport:
    lower, upper, certificate, povm, assignment = post_guess_bounds(ensemble)
    prior = prior_guess(ensemble, m_first, m_second)
    return GuessingReport(
        p_prior=prior,
        p_post_upper=upper,
        p_post_lower=lower,
        dual_certificate=certificate,
        witness_margin=prior - upper,
        strategy_povm=povm,
        strategy_assignment=assignment,
    )


# ---------------------------------------------------------------------------
# joint measurability via polygonal cone relaxations


@dataclass(frozen=True, eq=False)
class JointMeasurabilityResult:
    verdict: str                 # "compatible" | "incompatible" | "undecided"
    inner_feasible: bool         # inscribed cone (sound for compatibility)
    outer_feasible: bool         # circumscribed cone (sound for incompatibility)
    polygon_k: int


# MARGINALS[r, 3i + j] = 1 when joint effect G_ij enters marginal r: rows
# 0-2 sum over j (effect i of the first POVM), rows 3-5 sum over i (effect
# j of the second)
MARGINALS = np.vstack([np.kron(np.eye(3), np.ones(3)), np.kron(np.ones(3), np.eye(3))])


def _plane_coords(m_first: Povm, m_second: Povm, tol: float = 1e-9) -> np.ndarray:
    """(2, 3, 3) array: (weight, e1 part, e2 part) of each effect of the two
    three-outcome POVMs, in an orthonormal basis (e1, e2) of the plane that
    holds all their Bloch vectors."""
    effects = m_first.effects + m_second.effects
    vecs = np.array([e.vec for e in effects])
    nonzero = vecs[np.linalg.norm(vecs, axis=1) > 1e-13]
    if len(nonzero) == 0:
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    else:
        _, svals, vt = np.linalg.svd(nonzero, full_matrices=True)
        if svals.size >= 3 and svals[2] > tol * svals[0]:
            raise CoplanarityError("effect Bloch vectors are not coplanar")
        basis = vt[:2]
    weights = np.array([e.weight for e in effects])
    return np.column_stack([weights, vecs @ basis.T]).reshape(2, 3, 3)


def _joint_lp(generators: np.ndarray) -> np.ndarray:
    """Constraint matrix of the feasibility LP of a 3x3 joint POVM with
    effects in the cone spanned by (1, g) for the given in-plane generator
    directions g; the variables are nonnegative.

    Variable (3i + j) * n_gen + m is the weight of (1, g_m) in G_ij; row
    3r + c is component c of marginal r, matched to ``coords.reshape(-1)``.
    """
    cone = np.vstack([np.ones(len(generators)), generators.T])
    return np.kron(MARGINALS, cone)


def _cone_feasible(coords: np.ndarray, generators: np.ndarray) -> bool:
    """Whether the plane coordinates split into a joint POVM in the cone."""
    a = _joint_lp(generators)
    zero = np.zeros(a.shape[1])
    return LpFamily(a, coords.reshape(-1), zero, np.full(zero.size, np.inf)).maximize(zero).status == "optimal"


def _polygon_generators(coords: np.ndarray, k: int, radius: float, include_inputs: bool) -> np.ndarray:
    """Vertices of the regular k-gon of the given radius, plus the unit
    in-plane directions of the nonzero input effects when include_inputs.
    Fewer than three vertices cannot surround the disc, so k < 3 raises."""
    if k < 3:
        raise ValueError(f"polygon_k must be at least 3, got {k}")
    angles = 2.0 * np.pi * np.arange(k) / k
    gens = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    if include_inputs:
        planar = coords[:, :, 1:].reshape(6, 2)
        norms = np.linalg.norm(planar, axis=1)
        keep = norms > 1e-12
        gens = np.vstack([gens, planar[keep] / norms[keep, None]])
    return gens


def joint_measurability_check(m_first: Povm, m_second: Povm, polygon_k: int = 64) -> JointMeasurabilityResult:
    """Three-valued joint-measurability test for coplanar POVM pairs.

    The positivity cone |v| <= w of each joint effect is replaced by an
    inscribed polygon cone (feasible implies truly compatible) and by a
    circumscribed one (infeasible implies truly incompatible).  Input effect
    directions are added to the inscribed generators so exact rank-one
    joints such as G_ij = delta_ij E_i stay representable.  polygon_k must
    be at least 3.
    """
    if len(m_first) != 3 or len(m_second) != 3:
        raise ValueError("expected three-outcome measurements")
    coords = _plane_coords(m_first, m_second)
    inner = _cone_feasible(coords, _polygon_generators(coords, polygon_k, 1.0, True))
    if inner:
        return JointMeasurabilityResult("compatible", True, True, polygon_k)
    outer_radius = 1.0 / np.cos(np.pi / polygon_k)
    outer = _cone_feasible(coords, _polygon_generators(coords, polygon_k, outer_radius, False))
    verdict = "incompatible" if not outer else "undecided"
    return JointMeasurabilityResult(verdict, False, outer, polygon_k)


def add_noise(povm: Povm, eta: float) -> Povm:
    """E -> eta E + (1 - eta) Tr[E] I / 2: scales Bloch parts, keeps weights."""
    effects = tuple(Effect(e.weight, eta * e.vec) for e in povm.effects)
    return Povm(effects)


def noise_compatibility_threshold(
    m_first: Povm, m_second: Povm, polygon_k: int = 64, tol: float = 1e-4
) -> tuple[float, float]:
    """Dyadic bracket (lo, hi) on the largest noise eta for which the
    inscribed-cone LP of ``joint_measurability_check`` is feasible.

    Noise scales only the Bloch parts of the plane coordinates, so one LP
    decides every eta: the inscribed-cone constraints with the Bloch parts
    moved to the left-hand side as eta times a column, the weights alone on
    the right, and eta in [0, 1] maximized.  The feasible eta form an
    interval holding 0 (G_ij = w_i w'_j I, and I is the mean of the polygon
    generators), so every eta up to the optimum eta* is certified compatible.
    With 2^-d the largest power of two <= tol, lo = floor(eta* 2^d) / 2^d and
    hi = lo + 2^-d, the bracket a bisection on the 2^-d grid returns; (1.0,
    1.0) when eta* reaches 1.  hi is only the first grid point whose
    inscribed-cone LP is infeasible: the pair may still be compatible there,
    so hi is not a certified incompatible noise level.  polygon_k must be at
    least 3.
    """
    # 2**-52 is the spacing of the doubles just below 1: a finer grid has no points there
    if not (np.isfinite(tol) and tol >= 2.0**-52):
        raise ValueError(f"tol must be finite and >= 2**-52, got {tol}")
    if len(m_first) != 3 or len(m_second) != 3:
        raise ValueError("expected three-outcome measurements")
    coords = _plane_coords(m_first, m_second)
    weights = coords.copy()
    weights[:, :, 1:] = 0.0
    cone = _joint_lp(_polygon_generators(coords, polygon_k, 1.0, True))
    a = np.hstack([cone, -(coords - weights).reshape(-1, 1)])
    eta_only = np.zeros(a.shape[1])
    eta_only[-1] = 1.0  # eta is the last variable, in [0, 1]; the cone weights are unbounded
    family = LpFamily(a, weights.reshape(-1), np.zeros(eta_only.size), np.where(eta_only > 0, 1.0, np.inf))
    result = family.maximize(eta_only)
    if result.status != "optimal":
        raise LpNumericalError(f"noise LP ended {result.status}, but eta = 0 is feasible")
    eta = float(result.x[-1])
    if eta >= 1.0 - FEASIBILITY_TOL:
        return 1.0, 1.0
    d = max(0, 1 - math.frexp(tol)[1])
    lo = math.ldexp(math.floor(math.ldexp(eta, d)), -d)
    return lo, lo + math.ldexp(1.0, -d)


# ---------------------------------------------------------------------------
# coherence detection


def dephase(state: DensityState, basis_direction) -> DensityState:
    """Project the Bloch vector onto the basis axis (full dephasing map)."""
    n = np.asarray(basis_direction, dtype=float)
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        raise ValueError("basis direction must be nonzero")
    n = n / norm
    return DensityState((state.bloch @ n) * n)


@dataclass(frozen=True, eq=False)
class FreePovmReport:
    free: bool
    off_axis: tuple                      # per-effect off-axis Bloch magnitude
    max_off_axis: float
    witness_state: DensityState | None   # pure state with Tr[(rho - dephased rho) E] = max_off_axis
    witness_effect: int | None
    tol: float


def is_free_povm(povm: Povm, basis_direction, tol: float = 1e-9) -> FreePovmReport:
    """Free iff every effect Bloch vector is (anti)parallel to the basis axis,
    i.e. the POVM cannot tell any state from its dephasing.

    When not free, the pure state along the largest perpendicular component
    detects coherence with value equal to that component's magnitude.
    """
    n = np.asarray(basis_direction, dtype=float)
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        raise ValueError("basis direction must be nonzero")
    n = n / norm
    perps = [e.vec - (e.vec @ n) * n for e in povm.effects]
    off = [float(np.linalg.norm(p)) for p in perps]
    worst = max(off, default=0.0)
    witness_state = None
    witness_effect = None
    if off and worst > tol:
        witness_effect = int(np.argmax(off))
        witness_state = DensityState(perps[witness_effect] / worst)
    return FreePovmReport(worst <= tol, tuple(off), worst, witness_state, witness_effect, tol)


def all_effects_collinear(povm: Povm, tol: float = 1e-9) -> bool:
    """Pairwise cross products of effect Bloch vectors vanish."""
    vecs = [e.vec for e in povm.effects]
    return all(
        float(np.linalg.norm(np.cross(u, v))) <= tol for u, v in combinations(vecs, 2)
    )


@dataclass(frozen=True, eq=False)
class CoherenceDetectionReport:
    free_in_some_basis: bool
    basis_direction: np.ndarray | None
    witness_value: float                 # max off-axis Bloch magnitude
    witness_state: DensityState | None   # pure state maximizing Tr[(rho - dephased rho) E]
    witness_effect: int | None


def is_free_in_any_basis(povm: Povm, tol: float = 1e-9) -> CoherenceDetectionReport:
    """Free in some basis iff all effect Bloch vectors are pairwise collinear.

    When not free, the best-fit axis plus the largest off-axis component
    give the optimal coherence witness: the pure state along that component
    maximizes Tr[(rho - Lambda rho) E] with value equal to the off-axis
    Bloch magnitude.
    """
    vecs = np.array([e.vec for e in povm.effects])
    if np.all(np.linalg.norm(vecs, axis=1) <= tol):
        return CoherenceDetectionReport(True, np.array([0.0, 0.0, 1.0]), 0.0, None, None)
    axis = np.linalg.svd(vecs)[2][0]
    perp = vecs - (vecs @ axis)[:, None] * axis[None, :]
    mags = np.linalg.norm(perp, axis=1)
    if mags.max() <= tol:
        return CoherenceDetectionReport(True, axis, 0.0, None, None)
    worst = int(np.argmax(mags))
    direction = perp[worst] / mags[worst]
    return CoherenceDetectionReport(
        False, None, float(mags[worst]), DensityState(direction), worst
    )
