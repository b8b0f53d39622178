"""Qubit states, effects and POVMs in real Pauli coordinates.

A Hermitian qubit operator O = s*I + v.sigma is kept as plain arrays: a
scalar s and a Bloch 3-vector v, and a stack of operators as a scalar
array (...) next to a Bloch array (..., 3).  Traces, eigenvalues and Born
probabilities then reduce to exact vector arithmetic:

    Tr O      = 2 s
    eig O     = s -+ |v|
    Tr[rho E] = w_E + v_E . b_rho      (rho with Bloch vector b_rho)

Complex 2x2 matrices never appear in this package; the test suite keeps
an independent complex-matrix oracle for cross-checking.

``DensityState``, ``Effect`` and ``Povm`` are frozen and check themselves
once, when they are built, at the single tolerance ``DEFAULT_TOL``: a
Bloch norm at most 1, effect eigenvalues in [0, 1], and effects summing to
the identity.  Every object that exists is therefore valid; nothing
re-checks it later.  ``is_pure`` and ``is_rank_one`` decide at the same
tolerance.  The POVM rule is one pair of stacked checks: effect bounds,
which ``Effect`` runs on a one-row stack, and completeness, which ``Povm``
runs on one; ``validate_povms`` runs both on a whole stack.  A ``Povm``
keeps the weight stack (n,) and Bloch stack (n, 3) of its effects,
read-only, as ``weights`` and ``vecs``; callers read them instead of
rebuilding them from ``effects``.

``zero_sum_alignment`` solves the measurement subproblem of the game: the
best Bloch parts y_b of a three-outcome POVM, with sum_b y_b = 0 and
|y_b| <= r_b, for given linear targets.  It is closed-form: no iteration
and no tolerance loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def is_pure(self) -> bool:
        return abs(self.purity_radius - 1.0) <= DEFAULT_TOL

    def eigenvalues(self) -> tuple[float, float]:
        r = 0.5 * self.purity_radius
        return (0.5 - r, 0.5 + r)


def bloch_norms(v) -> np.ndarray:
    """Euclidean norms over the last axis of ``v``, rounded exactly as
    ``np.linalg.norm`` rounds one vector: each is the square root of one dot
    product, as in ``Effect.eigenvalues``."""
    v = np.asarray(v, dtype=float)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _effect_bounds_failure(w, v) -> tuple[int, InvalidEffectError] | None:
    """The first row of a stack, weights ``w`` (R, n) and Bloch parts ``v``
    (R, n, 3), with an effect whose eigenvalues w -+ |v| leave [0, 1] beyond
    ``DEFAULT_TOL``, and its error; None when every effect is valid."""
    r = bloch_norms(v)
    lo, hi = w - r, w + r
    valid = (lo >= -DEFAULT_TOL) & (hi <= 1.0 + DEFAULT_TOL)  # written so that NaN fails
    if valid.all():
        return None
    row, i = np.argwhere(~valid)[0]
    return row, InvalidEffectError(f"effect eigenvalues ({lo[row, i]}, {hi[row, i]}) leave [0, 1] beyond tol={DEFAULT_TOL}")


def _completeness_failure(w, v) -> tuple[int, InvalidPovmError] | None:
    """The first row of a stack whose completeness residual, the larger of
    |sum w - 1| and |sum v|, exceeds ``DEFAULT_TOL``, and its error; None
    when every row sums to the identity."""
    res = np.maximum(np.abs(w.sum(axis=1) - 1.0), bloch_norms(v.sum(axis=1)))
    complete = res <= DEFAULT_TOL  # written so that NaN fails
    if complete.all():
        return None
    row = np.flatnonzero(~complete)[0]
    return row, InvalidPovmError(f"completeness residual {res[row]} exceeds tol={DEFAULT_TOL}")


@dataclass(frozen=True, eq=False)
class Effect:
    """POVM element weight*I + vec.sigma with 0 <= E <= I."""

    weight: float
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "vec", _vec3(self.vec))
        failure = _effect_bounds_failure(np.array([[self.weight]]), self.vec.reshape(1, 1, 3))
        if failure:
            raise failure[1]

    def eigenvalues(self) -> tuple[float, float]:
        r = float(np.linalg.norm(self.vec))
        return (self.weight - r, self.weight + r)

    def is_rank_one(self) -> bool:
        """True when the smaller eigenvalue vanishes and the effect is nonzero."""
        lo, _ = self.eigenvalues()
        return abs(lo) <= DEFAULT_TOL and self.weight > DEFAULT_TOL


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered list of effects summing to the identity, with their weights
    (n,) and Bloch parts (n, 3) kept as read-only stacks."""

    effects: tuple
    weights: np.ndarray = field(init=False, repr=False)
    vecs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        w, v = np.array([e.weight for e in self.effects]), np.array([e.vec for e in self.effects]).reshape(-1, 3)
        failure = _completeness_failure(w[None], v[None])
        if failure:
            raise failure[1]
        w.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vecs", v)

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


def validate_povms(w, v) -> None:
    """Check a stack of POVMs given as weights ``w`` (R, n) and Bloch parts
    ``v`` (R, n, 3) in one pass, at ``DEFAULT_TOL``.

    Runs the checks of ``Effect`` and ``Povm``, so it accepts and rejects
    exactly what building
    ``Povm(tuple(Effect(w[r, i], v[r, i]) for i in range(n)))`` row by row
    does: the first row that fails raises ``InvalidEffectError`` when one of
    its effects leaves [0, 1], and ``InvalidPovmError`` when only its
    completeness residual exceeds the tolerance.  NaN fails both checks.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    failures = [f for f in (_effect_bounds_failure(w, v), _completeness_failure(w, v)) if f]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def random_povms(rng: np.random.Generator, count: int, n_outcomes: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random valid POVMs as a weight stack w (count, n_outcomes)
    and a Bloch stack v (count, n_outcomes, 3): Dirichlet weights plus
    zero-sum clipped Bloch parts.

    Each row alternately centres its Bloch parts (sum zero) and clips them
    to the effect radii min(w, 1 - w), for at most 200 steps; a row leaves
    the loop at the first step where it is centred and inside its radii,
    and later steps touch only the rows still in it.  A final centring and
    a uniform shrink make every row valid, which ``validate_povms`` checks
    once for the whole stack.
    """
    w = rng.dirichlet(np.ones(n_outcomes), size=count)
    radii = np.minimum(w, 1.0 - w)
    v = rng.normal(size=(count, n_outcomes, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    v *= (radii * rng.uniform(size=(count, n_outcomes)))[..., None]
    rows, live, live_radii = np.arange(count), v, radii
    for _ in range(200):
        if not len(rows):
            break
        live -= live.sum(axis=1, keepdims=True) / n_outcomes
        norms = np.linalg.norm(live, axis=2)
        done = ~(norms > live_radii).any(axis=1) & (np.linalg.norm(live.sum(axis=1), axis=1) < 1e-14)
        v[rows[done]] = live[done]
        keep = ~done
        scale = np.where(norms > 1e-15, np.minimum(1.0, live_radii / np.maximum(norms, 1e-15)), 1.0)
        rows, live, live_radii = rows[keep], live[keep] * scale[keep][..., None], live_radii[keep]
    v[rows] = live
    v -= v.sum(axis=1, keepdims=True) / n_outcomes
    shrink = np.max(np.linalg.norm(v, axis=2) / np.maximum(radii, 1e-300), axis=1)
    v /= np.where(shrink > 1.0, shrink, 1.0)[:, None, None]
    validate_povms(w, v)
    return w, v


def random_povm(rng: np.random.Generator, n_outcomes: int = 3) -> Povm:
    """Random valid POVM: ``random_povms`` with a count of one."""
    w, v = random_povms(rng, 1, n_outcomes)
    return Povm(tuple(Effect(w[0, i], v[0, i]) for i in range(n_outcomes)))
