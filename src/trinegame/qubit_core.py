"""Qubit states, effects and POVMs in real Pauli coordinates.

A Hermitian qubit operator O = s*I + v.sigma is stored as the real pair
(s, v) with v a 3-vector, so traces, eigenvalues and Born probabilities
reduce to exact vector arithmetic:

    Tr O      = 2 s
    eig O     = s -+ |v|
    Tr[rho E] = w_E + v_E . b_rho      (rho with Bloch vector b_rho)

Complex 2x2 matrices never appear in this package; the test suite keeps
an independent complex-matrix oracle for cross-checking.

``DensityState``, ``Effect`` and ``Povm`` are frozen and check themselves
once, when they are built, at the single tolerance ``DEFAULT_TOL``: a
Bloch norm at most 1, effect eigenvalues in [0, 1], and effects summing to
the identity.  Every object that exists is therefore valid; nothing
re-checks it later.

``zero_sum_alignment`` solves the measurement subproblem of the game: the
best Bloch parts y_b of a three-outcome POVM, with sum_b y_b = 0 and
|y_b| <= r_b, for given linear targets.  It is closed-form: no iteration
and no tolerance loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


class InvalidStateError(ValueError):
    """Bloch vector leaves the unit ball beyond tolerance."""


class InvalidEffectError(ValueError):
    """Effect eigenvalues leave [0, 1] beyond tolerance."""


class InvalidPovmError(ValueError):
    """Effects do not sum to the identity within tolerance."""


def _vec3(v) -> np.ndarray:
    arr = np.array(v, dtype=float).reshape(3)
    arr.flags.writeable = False
    return arr


def xz_direction(theta: float) -> np.ndarray:
    """Unit Bloch vector (sin t, 0, cos t) at angle t from the z axis."""
    return np.array([np.sin(theta), 0.0, np.cos(theta)])


@dataclass(frozen=True, eq=False)
class PauliOperator:
    """Hermitian operator scalar*I + vec.sigma."""

    scalar: float
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scalar", float(self.scalar))
        object.__setattr__(self, "vec", _vec3(self.vec))

    @property
    def trace(self) -> float:
        return 2.0 * self.scalar

    @property
    def coords(self) -> np.ndarray:
        """Coordinates (scalar, vx, vy, vz) as a 4-vector."""
        return np.concatenate(([self.scalar], self.vec))

    def eigenvalues(self) -> tuple[float, float]:
        r = float(np.linalg.norm(self.vec))
        return (self.scalar - r, self.scalar + r)

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(self.scalar + other.scalar, self.vec + other.vec)

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(self.scalar - other.scalar, self.vec - other.vec)

    def scaled(self, factor: float) -> "PauliOperator":
        return PauliOperator(factor * self.scalar, factor * self.vec)

    def max_abs_coord(self) -> float:
        return max(abs(self.scalar), float(np.max(np.abs(self.vec))))


@dataclass(frozen=True, eq=False)
class DensityState:
    """Qubit density operator (I + bloch.sigma)/2."""

    bloch: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bloch", _vec3(self.bloch))
        r = float(np.linalg.norm(self.bloch))
        if not r <= 1.0 + DEFAULT_TOL:  # written so that NaN fails
            raise InvalidStateError(f"Bloch vector norm {r} exceeds 1 beyond tol={DEFAULT_TOL}")

    @property
    def purity_radius(self) -> float:
        """|bloch|; equals 1 for pure states."""
        return float(np.linalg.norm(self.bloch))

    def is_pure(self, tol: float = 1e-12) -> bool:
        return abs(self.purity_radius - 1.0) <= tol

    def as_operator(self) -> PauliOperator:
        return PauliOperator(0.5, 0.5 * self.bloch)

    def eigenvalues(self) -> tuple[float, float]:
        return self.as_operator().eigenvalues()


@dataclass(frozen=True, eq=False)
class Effect:
    """POVM element weight*I + vec.sigma with 0 <= E <= I."""

    weight: float
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "vec", _vec3(self.vec))
        lo, hi = self.eigenvalues()
        if not (lo >= -DEFAULT_TOL and hi <= 1.0 + DEFAULT_TOL):  # written so that NaN fails
            raise InvalidEffectError(f"effect eigenvalues ({lo}, {hi}) leave [0, 1] beyond tol={DEFAULT_TOL}")

    def eigenvalues(self) -> tuple[float, float]:
        r = float(np.linalg.norm(self.vec))
        return (self.weight - r, self.weight + r)

    def is_rank_one(self, tol: float = 1e-9) -> bool:
        """True when the smaller eigenvalue vanishes and the effect is nonzero."""
        lo, _ = self.eigenvalues()
        return abs(lo) <= tol and self.weight > tol

    def as_operator(self) -> PauliOperator:
        return PauliOperator(self.weight, self.vec)


def completeness_residual(effects) -> float:
    """Max of |sum w - 1| and |sum vec| for a candidate POVM; NaN if either is."""
    w = sum(e.weight for e in effects)
    v = np.sum([e.vec for e in effects], axis=0)
    return float(np.maximum(abs(w - 1.0), np.linalg.norm(v)))


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered list of effects summing to the identity."""

    effects: tuple

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        res = completeness_residual(self.effects)
        if not res <= DEFAULT_TOL:  # written so that NaN fails
            raise InvalidPovmError(f"completeness residual {res} exceeds tol={DEFAULT_TOL}")

    def __len__(self) -> int:
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)


def born_probability(state: DensityState, effect: Effect) -> float:
    """Tr[rho E] = w + vec_E . bloch."""
    return float(effect.weight + effect.vec @ state.bloch)


def projector_effect(direction, alpha: float = 1.0) -> Effect:
    """Effect alpha * |psi><psi| with |psi> along the given Bloch direction."""
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n < 1e-14:
        raise InvalidEffectError("projector direction must be nonzero")
    return Effect(0.5 * alpha, (0.5 * alpha / n) * d)


def povm_from_weighted_projectors(alphas, directions) -> Povm:
    """POVM of the effects alpha_b |psi_b><psi_b|, psi_b along directions[b]."""
    return Povm(tuple(projector_effect(d, a) for a, d in zip(alphas, directions)))


def _force_triangles(r: np.ndarray) -> np.ndarray:
    """Plane vectors t_b, as complex numbers, with |t_b| = r_b and
    t_0 + t_1 + t_2 = 0, in both reflections: shape (2, 3).

    The longest side t_a lies on the real axis and the other two meet at
    height h = 2 area / r_a above it.  The area comes from Kahan's stable
    form of Heron's formula and the real parts from factored differences of
    squares, so short sides keep full relative accuracy.  Radii that break
    the triangle inequality give sides longer than their radii.
    """
    a, b, c = sorted(range(3), key=lambda i: -r[i])  # r_a >= r_b >= r_c
    ra, rb, rc = float(r[a]), float(r[b]), float(r[c])
    area16 = (ra + (rb + rc)) * (rc - (ra - rb)) * (rc + (ra - rb)) * (ra + (rb - rc))
    twice_ra = 2.0 * max(ra, 1e-300)
    height = math.sqrt(max(area16, 0.0)) / twice_ra
    t = np.zeros(3, dtype=complex)
    t[a] = ra
    t[b] = complex(-((ra - rc) * (ra + rc) + rb**2) / twice_ra, height)
    t[c] = complex(-((ra - rb) * (ra + rb) + rc**2) / twice_ra, -height)
    return np.stack([t, t.conj()])


def zero_sum_alignment(c, r) -> np.ndarray:
    """Maximize sum_b y_b.c_b over sum_b y_b = 0 and |y_b| <= r_b, row by row.

    ``c`` stacks the three targets of R problems, shape (R, 3, 3); the
    radii ``r`` (3,) are shared by every row.  Returns y, shape (R, 3, 3).

    The dual is min_lam sum_b r_b |c_b - lam|, a weighted Fermat-Torricelli
    problem.  Its minimum sits either on a target c_a or off every target,
    where all three balls are tight and the y_b close a triangle with side
    lengths r.  Every candidate sums to zero by construction:

    * anchored at a: y_b = r_b (c_b - c_a) / |c_b - c_a| for b != a (zero
      when c_b = c_a) and y_a = -(sum of the others).  Its value is the dual
      at lam = c_a, so it is optimal whenever |y_a| <= r_a;
    * the force triangle of ``_force_triangles`` in the plane of the
      targets, in both reflections.  With the targets as complex numbers
      d_b in that plane, the triangle turned by phi has the value
      Re(exp(-i phi) A) with A = sum_b conj(t_b) d_b (``amplitude``),
      largest at phi = arg A = atan2(Im A, Re A), where it is |A|.

    The candidate with the largest value among those inside the balls (up
    to rounding) is returned.
    """
    c = np.asarray(c, dtype=float)
    r = np.asarray(r, dtype=float)
    bound = (r * (1.0 + 1e-12)) ** 2
    diffs = c[:, None, :, :] - c[:, :, None, :]  # diffs[:, a, b] = c_b - c_a
    dist = np.sqrt(np.einsum("rabk,rabk->rab", diffs, diffs))
    anchored = (r / np.maximum(dist, 1e-300))[..., None] * diffs
    closing = -np.einsum("rabk->rak", anchored)  # y_a of the candidate anchored at a
    diag = np.arange(3)
    anchored[:, diag, diag] = closing
    anchored_value = np.where(np.einsum("rak,rak->ra", closing, closing) <= bound, dist @ r, -np.inf)

    # orthonormal e1, e2 spanning the differences d of the targets: e1 along
    # the longer d, e2 the other d with its e1 part projected out twice, so
    # e2.e1 stays at rounding level even for collinear targets.  The plane
    # vector x + iy is x e1 + y e2 = Re((x + iy) conj(e1 + i e2)).
    d = c[:, 1:] - c[:, :1]
    lengths = np.sqrt((d**2).sum(axis=2))
    swap = (lengths[:, 1] > lengths[:, 0])[:, None]
    e1 = np.where(swap, d[:, 1], d[:, 0]) / np.maximum(lengths.max(axis=1), 1e-300)[:, None]
    e2 = np.where(swap, d[:, 0], d[:, 1])
    e2 = e2 - (e2 * e1).sum(axis=1, keepdims=True) * e1
    e2 -= (e2 * e1).sum(axis=1, keepdims=True) * e1
    e2 /= np.maximum(np.sqrt((e2**2).sum(axis=1)), 1e-300)[:, None]
    plane = e1 + 1j * e2
    t = _force_triangles(r)
    amplitude = np.einsum("rbk,rk->rb", c, plane) @ t.conj().T  # A per row and reflection
    turned = (amplitude / np.maximum(np.abs(amplitude), 1e-300))[..., None] * t
    triangles = (turned[..., None] * plane.conj()[:, None, None, :]).real
    inside = (np.einsum("rsbk,rsbk->rsb", triangles, triangles) <= bound).all(axis=2)
    triangle_value = np.where(inside, np.abs(amplitude), -np.inf)

    best = np.concatenate([anchored_value, triangle_value], axis=1).argmax(axis=1)
    return np.concatenate([anchored, triangles], axis=1)[np.arange(len(c)), best]


def random_state(rng: np.random.Generator, pure: bool = False) -> DensityState:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform() ** (1.0 / 3.0)
    return DensityState(v)


def random_povm(rng: np.random.Generator, n_outcomes: int = 3) -> Povm:
    """Random valid POVM: Dirichlet weights plus zero-sum clipped Bloch parts."""
    w = rng.dirichlet(np.ones(n_outcomes))
    radii = np.minimum(w, 1.0 - w)
    v = rng.normal(size=(n_outcomes, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= (radii * rng.uniform(size=n_outcomes))[:, None]
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
    return Povm(tuple(Effect(w[i], v[i]) for i in range(n_outcomes)))
