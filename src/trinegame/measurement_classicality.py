"""Non-classicality certificates for qubit measurements.

Four independent certificates live here:

* anti-distinguishability: for a zero-sum triple of pure states, the POVM
  {(2/3)(I - pi_b)} rules out state b with certainty on outcome b;
* a guessing-gap incompatibility witness: discriminating a partitioned
  six-state ensemble succeeds strictly better when the partition label
  arrives before the measurement than after it, and the post-measurement
  optimum has an exact dual certificate (a minimum enclosing ball in Bloch
  coordinates), so a positive gap is rigorous; the nine pair operators are
  one (9, 3) Bloch stack, as all share the identity coefficient 1/6, and
  the certificate is one (4,) array of its scalar and Bloch parts; the
  explicit witness POVM behind the lower bound is built on the ball's
  contact points and meets the dual optimum exactly;
* direct joint-measurability feasibility for coplanar POVM pairs, with the
  positivity cone replaced by inscribed (feasible => compatible) and
  circumscribed (infeasible => incompatible) polygon cones, both plain LPs,
  and the circumscribed LP alone certifies incompatibility; white noise
  scales only the Bloch parts, so the largest noise level the inscribed
  cone certifies compatible is one more LP, with the noise level as a
  variable;
* coherence detection: a POVM is free for a basis iff every effect Bloch
  vector is collinear with the basis axis; free in some basis iff all
  effect vectors are pairwise collinear, with the best witness state lying
  along the largest off-axis component.  Both formulations run on a Bloch
  stack (R, k, 3) of R POVMs at once: ``pairwise_collinear`` accepts a pair
  u, v when |u x v| <= tol max(|u|, |v|), a distance from an axis and so
  linear in scale, like the off-axis magnitudes v - (v.n) n of
  ``best_axis_fit``.  Both one-POVM checks return a ``CoherenceReport``
  built by one routine from a one-row fit with that formula:
  ``is_free_povm`` for the given axis, ``is_free_in_any_basis`` for the
  fitted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .lp_engine import FEASIBILITY_TOL, LpFamily, LpNumericalError
from .qubit_core import (
    DEFAULT_TOL,
    DensityState,
    Effect,
    Povm,
    bloch_norms,
    born_probability,
    xz_direction,
)

TWO_FIFTHS_PI = 2.0 * np.pi / 5.0


class CoplanarityError(ValueError):
    """Joint-measurability check restricted to coplanar POVM pairs."""


# ---------------------------------------------------------------------------
# anti-distinguishability


def antidistinguishing_povm(states) -> Povm:
    """POVM {(2/3)(I - pi_b)} that never fires outcome b on state b.

    Requires three pure states whose Bloch vectors sum to zero, both to
    ``DEFAULT_TOL``; then the complement effects are valid and complete.
    """
    states = tuple(states)
    if len(states) != 3:
        raise ValueError("expected three states")
    blochs = np.stack([s.bloch for s in states])
    if np.linalg.norm(blochs.sum(axis=0)) > DEFAULT_TOL:
        raise ValueError("Bloch vectors must sum to zero for this construction")
    if not all(s.is_pure() for s in states):
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

    def pair_blochs(self) -> np.ndarray:
        """Bloch parts (9, 3) of the nine operators W_ij = (e_i + e'_j)/6 of
        the post-measurement dual, row 3 i + j; every W_ij has identity
        coefficient 1/6."""
        b0 = np.stack([s.bloch for s in self.part0])
        b1 = np.stack([s.bloch for s in self.part1])
        return (0.5 * b0[:, None] + 0.5 * b1[None]).reshape(9, 3) * (1.0 / 6.0)


def _state_at(angle: float) -> DensityState:
    return DensityState(xz_direction(angle))


def ensemble_for_simulator_pair(o_first: int, o_second: int) -> PartitionedEnsemble:
    """Rotated copy of the certifying ensemble aligned with members o_first
    and o_second of the five-outcome simulator set."""
    offsets = (0.0, 2 * TWO_FIFTHS_PI, 3 * TWO_FIFTHS_PI)
    part0 = tuple(_state_at(o_first * TWO_FIFTHS_PI + d) for d in offsets)
    part1 = tuple(_state_at(o_second * TWO_FIFTHS_PI + d) for d in offsets)
    return PartitionedEnsemble(part0, part1)


def carmeli_ensemble() -> PartitionedEnsemble:
    """The partitioned ensemble certifying incompatibility of the first two
    five-outcome simulators: states at xz angles {0, 144, 216} degrees and
    {72, 216, 288} degrees, the pair (0, 1) of
    ``ensemble_for_simulator_pair``."""
    return ensemble_for_simulator_pair(0, 1)


def prior_guess(ensemble: PartitionedEnsemble, m_first: Povm, m_second: Povm) -> float:
    """Discrimination success when the partition label arrives first:
    outcome k of m_first guesses part0[k], outcome k of m_second part1[k]."""
    if len(m_first) != 3 or len(m_second) != 3:
        raise ValueError("expected three-outcome measurements")
    pairs = zip(ensemble.part0 + ensemble.part1, m_first.effects + m_second.effects)
    return sum(born_probability(state, eff) for state, eff in pairs) / 6.0


# ---------------------------------------------------------------------------
# minimum enclosing ball (exact dual of the post-measurement problem)


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
    counts here are <= 9), each size as one stack of arrays.  A triple or
    quadruple's center is its circumcenter base + coeffs @ rel, from the
    Gram system of its points relative to the first one (skipped when the
    determinant is below 1e-18).  A candidate counts only when its center
    lies in the convex hull of its points; in enumeration order, it
    replaces the best one so far when its radius is smaller by 1e-15.
    """
    pts = np.asarray(points, dtype=float)
    k = len(pts)
    if k == 0:
        raise ValueError("no points")
    if k == 1:
        return EnclosingBall(pts[0].copy(), 0.0, (0,), np.ones(1))
    best = EnclosingBall(None, np.inf, (), np.zeros(0))
    for size in (2, 3, 4):
        subsets = np.array(list(combinations(range(k), size)), dtype=np.intp).reshape(-1, size)
        sub = pts[subsets]
        if size == 2:
            centers = 0.5 * (sub[:, 0] + sub[:, 1])
            weights = np.full((len(sub), 2), 0.5)
        else:
            base = sub[:, 0]
            rel = sub[:, 1:] - base[:, None, :]
            gram = rel @ rel.transpose(0, 2, 1)
            rhs = 0.5 * np.einsum("nij,nij->ni", rel, rel)
            solvable = ~(np.abs(np.linalg.det(gram)) < 1e-18)
            subsets, base, rel = subsets[solvable], base[solvable], rel[solvable]
            coeffs = np.linalg.solve(gram[solvable], rhs[solvable][..., None])[..., 0]
            centers = base + np.matmul(coeffs[:, None, :], rel)[:, 0]
            weights = np.concatenate([1.0 - coeffs.sum(axis=1, keepdims=True), coeffs], axis=1)
        radii = np.linalg.norm(pts - centers[:, None, :], axis=2).max(axis=1)
        hulled = np.flatnonzero(weights.min(axis=1) >= -1e-12)
        for i, r in zip(hulled.tolist(), radii[hulled].tolist()):
            if r < best.radius - 1e-15:
                best = EnclosingBall(centers[i], r, tuple(subsets[i].tolist()), weights[i])
    return best


# ---------------------------------------------------------------------------
# post-measurement guessing bounds


@dataclass(frozen=True, eq=False)
class GuessingReport:
    """Guessing bounds of one ensemble and one POVM pair.  The dual
    certificate Y = y_0 I + (y_1, y_2, y_3).sigma is the (4,) array
    (y_0, y_1, y_2, y_3); its margin, the smallest eigenvalue of Y - W_ij
    over the nine pair operators of the report's own ensemble, is
    nonnegative up to rounding when Y is dual feasible."""

    p_prior: float
    p_post_upper: float
    p_post_lower: float
    dual_certificate: np.ndarray
    dual_feasibility_margin: float
    witness_margin: float        # p_prior - p_post_upper; positive proves the pair incompatible
    strategy_povm: Povm
    strategy_assignment: tuple


def post_guess_bounds(ensemble: PartitionedEnsemble) -> tuple[float, float, np.ndarray, Povm, tuple]:
    """(p_post_lower, p_post_upper, dual certificate, witness POVM, assignment).

    Upper bound: min Tr[Y] over Y >= W_ij for all nine pair operators.
    Every W_ij has identity coefficient 1/6, so the optimal Y is 1/6 + R
    plus the center of the minimum enclosing ball of the W Bloch parts, an
    exact dual optimum of value 2 (1/6 + R); the certificate is the (4,)
    array (1/6 + R, center) of its scalar and Bloch parts.
    Lower bound: the value of an explicit witness built on the ball's
    support.  Support point z is the Bloch part p_z of the pair operator
    W_ij, at unit direction n_z from the center and with barycentric weight
    t_z, so that t >= 0, sum t = 1 and sum t_z n_z = 0; the effect
    t_z (I + n_z.sigma) guesses the pair (i, j).  Its value is
    sum_z Tr[E_z W_z] = 2 sum_z t_z (1/6 + n_z.p_z) = 2 (1/6 + R), so the
    two bounds meet (complementary slackness).
    """
    pts = ensemble.pair_blochs()
    ball = min_enclosing_ball(pts)
    upper = 2.0 * (1.0 / 6.0 + ball.radius)
    certificate = np.concatenate(([1.0 / 6.0 + ball.radius], ball.center))
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
    # the smaller eigenvalue of Y - W_ij is (y_0 - 1/6) - |y_vec - w_ij|
    margin = float(np.min((certificate[0] - 1.0 / 6.0) - bloch_norms(certificate[1:] - ensemble.pair_blochs())))
    return GuessingReport(
        p_prior=prior,
        p_post_upper=upper,
        p_post_lower=lower,
        dual_certificate=certificate,
        dual_feasibility_margin=margin,
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


def _plane_coords(m_first: Povm, m_second: Povm) -> np.ndarray:
    """(2, 3, 3) array: (weight, e1 part, e2 part) of each effect of the two
    three-outcome POVMs, in an orthonormal basis (e1, e2) of the plane that
    holds all their Bloch vectors (the third singular value at most
    ``DEFAULT_TOL`` times the first).  ValueError for another outcome
    count, CoplanarityError without a common plane."""
    if len(m_first) != 3 or len(m_second) != 3:
        raise ValueError("expected three-outcome measurements")
    vecs = np.concatenate([m_first.vecs, m_second.vecs])
    nonzero = vecs[np.linalg.norm(vecs, axis=1) > 1e-13]
    if len(nonzero) == 0:
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    else:
        _, svals, vt = np.linalg.svd(nonzero, full_matrices=True)
        if svals.size >= 3 and svals[2] > DEFAULT_TOL * svals[0]:
            raise CoplanarityError("effect Bloch vectors are not coplanar")
        basis = vt[:2]
    weights = np.concatenate([m_first.weights, m_second.weights])
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


def _polygon_generators(coords: np.ndarray, k: int, circumscribed: bool) -> np.ndarray:
    """Generator directions of a polygon cone.  Inscribed: the vertices of
    the regular unit k-gon plus the unit in-plane directions of the nonzero
    input effects.  Circumscribed: the vertices of the regular k-gon of
    radius sec(pi/k), which holds the unit disc.  Fewer than three vertices
    cannot surround the disc, so k < 3 raises."""
    if k < 3:
        raise ValueError(f"polygon_k must be at least 3, got {k}")
    angles = 2.0 * np.pi * np.arange(k) / k
    gens = np.column_stack([np.cos(angles), np.sin(angles)])
    if circumscribed:
        return (1.0 / np.cos(np.pi / k)) * gens
    planar = coords[:, :, 1:].reshape(6, 2)
    norms = np.linalg.norm(planar, axis=1)
    keep = norms > 1e-12
    return np.vstack([gens, planar[keep] / norms[keep, None]])


def _circumscribed_feasible(coords: np.ndarray, polygon_k: int) -> bool:
    """Whether the joint LP over the circumscribed polygon cone is feasible.
    That cone holds the positivity cone, so infeasibility proves the pair
    incompatible."""
    return _cone_feasible(coords, _polygon_generators(coords, polygon_k, circumscribed=True))


def certified_incompatible(m_first: Povm, m_second: Povm, polygon_k: int = 64) -> bool:
    """True exactly when the circumscribed-cone LP of
    ``joint_measurability_check`` is infeasible, which proves the pair
    incompatible; one LP.

    This is the check's "incompatible" verdict: that verdict needs both
    cone LPs infeasible, and the inscribed cone (unit generators) lies
    inside the circumscribed one, so an infeasible circumscribed LP makes
    the inscribed one infeasible too.  The input checks are the check's:
    three outcomes, a common plane and polygon_k at least 3.
    """
    coords = _plane_coords(m_first, m_second)
    return not _circumscribed_feasible(coords, polygon_k)


def joint_measurability_check(m_first: Povm, m_second: Povm, polygon_k: int = 64) -> JointMeasurabilityResult:
    """Three-valued joint-measurability test for coplanar POVM pairs.

    The positivity cone |v| <= w of each joint effect is replaced by an
    inscribed polygon cone (feasible implies truly compatible) and by a
    circumscribed one (infeasible implies truly incompatible).  Input effect
    directions are added to the inscribed generators so exact rank-one
    joints such as G_ij = delta_ij E_i stay representable.  polygon_k must
    be at least 3.

    The inscribed LP runs first, and the circumscribed LP, the one of
    ``certified_incompatible``, only when it is infeasible.  The order
    matters on degenerate pairs: on planar rank-one self-pairs the
    circumscribed LP can fail numerically (LpNumericalError) where the
    inscribed one answers "compatible".  A caller that needs only the
    "incompatible" verdict calls ``certified_incompatible``, one LP.
    """
    coords = _plane_coords(m_first, m_second)
    inner = _cone_feasible(coords, _polygon_generators(coords, polygon_k, circumscribed=False))
    if inner:
        return JointMeasurabilityResult("compatible", True, True, polygon_k)
    outer = _circumscribed_feasible(coords, polygon_k)
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
    coords = _plane_coords(m_first, m_second)
    weights = coords.copy()
    weights[:, :, 1:] = 0.0
    cone = _joint_lp(_polygon_generators(coords, polygon_k, circumscribed=False))
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


def _unit_axis(direction) -> np.ndarray:
    """The direction scaled to unit length; ValueError unless finite and nonzero."""
    n = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(n)
    if not (np.isfinite(norm) and norm >= 1e-14):  # written so that NaN fails
        raise ValueError(f"basis direction must be finite and nonzero, got {direction!r}")
    return n / norm


def dephase(state: DensityState, basis_direction) -> DensityState:
    """Project the Bloch vector onto the basis axis (full dephasing map)."""
    n = _unit_axis(basis_direction)
    return DensityState((state.bloch @ n) * n)


def pairwise_collinear(vecs) -> np.ndarray:
    """Per row of a Bloch stack (R, k, 3): whether every pair u, v of its
    vectors has |u x v| <= tol max(|u|, |v|), tol = ``DEFAULT_TOL``.

    |u x v| / max(|u|, |v|) is the distance of the shorter vector from the
    longer one's axis, so the test is linear in the scale of the vectors,
    like the off-axis magnitudes of ``best_axis_fit``; zero vectors are
    collinear with everything.
    """
    vecs = np.asarray(vecs, dtype=float)
    first, second = np.triu_indices(vecs.shape[1], 1)
    u, v = vecs[:, first], vecs[:, second]
    cross = np.linalg.norm(np.cross(u, v), axis=2)
    longer = np.maximum(np.linalg.norm(u, axis=2), np.linalg.norm(v, axis=2))
    return np.all(cross <= DEFAULT_TOL * longer, axis=1)


class AxisFit(NamedTuple):
    """Off-axis parts of each row of a Bloch stack (R, k, 3) for one unit
    axis per row: the row is free for its axis when every off-axis
    magnitude is at most ``DEFAULT_TOL``."""

    free: np.ndarray         # (R,) bool
    axis: np.ndarray         # (R, 3) unit axis
    off_axis: np.ndarray     # (R, k, 3) parts v - (v.n) n perpendicular to the axis n
    magnitudes: np.ndarray   # (R, k) their lengths


def _axis_fit(vecs: np.ndarray, axis: np.ndarray) -> AxisFit:
    perp = vecs - (vecs @ axis[:, :, None]) * axis[:, None, :]
    mags = np.linalg.norm(perp, axis=2)
    return AxisFit(np.all(mags <= DEFAULT_TOL, axis=1), axis, perp, mags)


def best_axis_fit(vecs) -> AxisFit:
    """The axis of each row is the top right singular vector of its (k, 3)
    matrix of Bloch vectors, which minimizes the summed squared off-axis
    lengths; rows whose vectors all have length at most ``DEFAULT_TOL`` get
    the z axis, and are free for it."""
    vecs = np.asarray(vecs, dtype=float)
    axis = np.linalg.svd(vecs)[2][:, 0]
    axis[np.all(np.linalg.norm(vecs, axis=2) <= DEFAULT_TOL, axis=1)] = (0.0, 0.0, 1.0)
    return _axis_fit(vecs, axis)


@dataclass(frozen=True, eq=False)
class CoherenceReport:
    """Coherence verdict of one POVM for one unit axis.  When not free, the
    pure state along the largest off-axis part, of effect
    ``witness_effect``, has Tr[(rho - dephased rho) E] = ``max_off_axis``."""

    free: bool
    axis: np.ndarray
    max_off_axis: float                  # largest off-axis Bloch magnitude, free or not
    witness_state: DensityState | None   # None when free
    witness_effect: int | None


def _coherence_report(fit: AxisFit) -> CoherenceReport:
    """The report of a one-row fit: one POVM's Bloch stack (1, k, 3) and its axis."""
    mags = fit.magnitudes[0]
    worst = int(np.argmax(mags))
    if fit.free[0]:
        return CoherenceReport(True, fit.axis[0], float(mags[worst]), None, None)
    witness = DensityState(fit.off_axis[0, worst] / mags[worst])
    return CoherenceReport(False, fit.axis[0], float(mags[worst]), witness, worst)


def is_free_povm(povm: Povm, basis_direction) -> CoherenceReport:
    """Free iff every effect Bloch vector is (anti)parallel to the basis
    axis, i.e. the POVM cannot tell any state from its dephasing."""
    return _coherence_report(_axis_fit(povm.vecs[None], _unit_axis(basis_direction)[None]))


def is_free_in_any_basis(povm: Povm) -> CoherenceReport:
    """Free in some basis iff all effect Bloch vectors are collinear: the
    report for the ``best_axis_fit`` axis, whose witness state maximizes
    Tr[(rho - Lambda rho) E] over all states."""
    return _coherence_report(best_axis_fit(povm.vecs[None]))
