"""Qubit states, effects and POVMs in real Pauli coordinates.

A Hermitian qubit operator O = s*I + v.sigma is stored as the real pair
(s, v) with v a 3-vector, so traces, eigenvalues and Born probabilities
reduce to exact vector arithmetic:

    Tr O      = 2 s
    eig O     = s -+ |v|
    Tr[rho E] = w_E + v_E . b_rho      (rho with Bloch vector b_rho)

Complex 2x2 matrices never appear in this package; the test suite keeps
an independent complex-matrix oracle for cross-checking.

``zero_sum_alignment`` solves the measurement subproblem shared by the
game optimizer and the guessing witness: the best effect Bloch parts
y_b with sum_b y_b = 0 and |y_b| <= r_b for given linear targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
INACTIVE_RADIUS = 1e-12  # zero_sum_alignment holds y_b = 0 for radii up to this


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
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "bloch", _vec3(self.bloch))
        r = float(np.linalg.norm(self.bloch))
        if r > 1.0 + self.tol:
            raise InvalidStateError(f"Bloch vector norm {r} exceeds 1 beyond tol={self.tol}")

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
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "vec", _vec3(self.vec))
        lo, hi = self.eigenvalues()
        if lo < -self.tol or hi > 1.0 + self.tol:
            raise InvalidEffectError(f"effect eigenvalues ({lo}, {hi}) leave [0, 1] beyond tol={self.tol}")

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
    """Max of |sum w - 1| and |sum vec| for a candidate POVM."""
    w = sum(e.weight for e in effects)
    v = np.sum([e.vec for e in effects], axis=0)
    return max(abs(w - 1.0), float(np.linalg.norm(v)))


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered list of effects summing to the identity.

    ``alphas`` holds the weights a_b when every effect is a_b times a
    projector (then a_b = 2 w_b); it is auto-populated in that case.
    """

    effects: tuple
    alphas: tuple | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        res = completeness_residual(self.effects)
        if res > self.tol:
            raise InvalidPovmError(f"completeness residual {res} exceeds tol={self.tol}")
        if self.alphas is None:
            rank_one_like = all(
                abs(e.weight - np.linalg.norm(e.vec)) <= 1e-12 for e in self.effects
            )
            if rank_one_like:
                object.__setattr__(self, "alphas", tuple(2.0 * e.weight for e in self.effects))
        else:
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
            if len(self.alphas) != len(self.effects):
                raise InvalidPovmError("alphas and effects length mismatch")

    def __len__(self) -> int:
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)


@dataclass(frozen=True, eq=False)
class PovmValidationReport:
    effect_psd: tuple
    completeness_residual: float
    passed: bool
    tol: float


def state_from_bloch(v, tol: float = DEFAULT_TOL) -> DensityState:
    """Build a state from its Bloch vector; rejects |v| > 1 + tol."""
    return DensityState(np.asarray(v, dtype=float), tol=tol)


def born_probability(state: DensityState, effect: Effect) -> float:
    """Tr[rho E] = w + vec_E . bloch."""
    return float(effect.weight + effect.vec @ state.bloch)


def outcome_probabilities(state: DensityState, povm: Povm) -> np.ndarray:
    return np.array([born_probability(state, e) for e in povm.effects])


def validate_povm(effects, tol: float = DEFAULT_TOL) -> PovmValidationReport:
    """Report-style check: per-effect positivity and completeness residual."""
    psd = []
    for e in effects:
        lo, hi = e.eigenvalues()
        psd.append(lo >= -tol and hi <= 1.0 + tol)
    res = completeness_residual(effects)
    passed = all(psd) and res <= tol
    return PovmValidationReport(tuple(psd), res, passed, tol)


def projector_effect(direction, alpha: float = 1.0, tol: float = DEFAULT_TOL) -> Effect:
    """Effect alpha * |psi><psi| with |psi> along the given Bloch direction."""
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n < 1e-14:
        raise InvalidEffectError("projector direction must be nonzero")
    return Effect(0.5 * alpha, (0.5 * alpha / n) * d, tol=tol)


def povm_from_weighted_projectors(alphas, directions, tol: float = DEFAULT_TOL) -> Povm:
    effects = [projector_effect(d, a, tol=tol) for a, d in zip(alphas, directions)]
    return Povm(tuple(effects), alphas=tuple(float(a) for a in alphas), tol=tol)


def zero_sum_alignment(c, r, lam=None, iters: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sum_b y_b.c_b over sum_b y_b = 0 and |y_b| <= r_b, row by row.

    ``c`` stacks the targets of R problems, shape (R, k, 3); the radii
    ``r`` (k,) are shared by every row; ``lam`` (R, 3) warm-starts the
    multiplier.  Returns (y, lam), shapes (R, k, 3) and (R, 3).

    The dual is min_lam sum_b r_b |c_b - lam|, the r-weighted geometric
    median of the targets, and y_b = r_b (c_b - lam) / |c_b - lam| away
    from lam.  Zero radii are inactive (y_b = 0).  Two active balls have
    the closed form y = +-min(r) along c_1 - c_2.  Otherwise lam = c_a is
    optimal iff the pull sum_b r_b (c_b - c_a) / |c_b - c_a| of the other
    points is no longer than the total radius of the points coinciding
    with c_a, which then share -pull in proportion to their radii; rows
    without such an anchor run Weiszfeld's iteration from lam (default:
    the r-weighted centroid).  A final r^2-weighted projection onto
    sum y = 0 and one uniform shrink into the balls make y feasible up to
    rounding: the shrink keeps the sum at zero.
    """
    c = np.asarray(c, dtype=float)
    r = np.asarray(r, dtype=float)
    idx = np.flatnonzero(r > INACTIVE_RADIUS)
    ca, ra = c[:, idx, :], r[idx]
    if lam is None:
        lam = (ra[None, :, None] * ca).sum(axis=1) / max(ra.sum(), 1e-300)
    lam = np.array(lam, dtype=float)
    y = np.zeros_like(c)
    if idx.size < 2:
        return y, lam
    if idx.size == 2:
        d = ca[:, 0, :] - ca[:, 1, :]
        nd = np.linalg.norm(d, axis=1, keepdims=True)
        unit = np.where(nd > 1e-14, d / np.maximum(nd, 1e-14), 0.0)
        ya = ra.min() * np.stack([unit, -unit], axis=1)
        lam[:] = ca[:, np.argmax(ra), :]  # the median sits on the larger ball's target
    else:
        # anchored test for every (row, a) at once: diffs[:, a, b] = c_b - c_a
        diffs = ca[:, None, :, :] - ca[:, :, None, :]
        norms = np.linalg.norm(diffs, axis=3)
        near = norms <= 1e-14
        units = np.where(near[..., None], 0.0, diffs / np.maximum(norms, 1e-14)[..., None])
        pull = (ra[:, None] * units).sum(axis=2)
        share = (ra * near).sum(axis=2)
        ok = np.linalg.norm(pull, axis=2) <= share + 1e-14
        free = ~ok.any(axis=1)
        rows = np.flatnonzero(~free)
        a = ok[rows].argmax(axis=1)
        hold = near[rows, a] * (ra / share[rows, a, None])
        ya = np.empty_like(ca)
        ya[rows] = ra[:, None] * units[rows, a] - hold[..., None] * pull[rows, a, None, :]
        lam[rows] = ca[rows, a]
        if free.any():
            cf, lf = ca[free], lam[free]
            for _ in range(iters):
                wgt = ra / np.maximum(np.linalg.norm(cf - lf[:, None, :], axis=2), 1e-14)
                new = (wgt[..., None] * cf).sum(axis=1) / wgt.sum(axis=1, keepdims=True)
                done = np.max(np.abs(new - lf)) < 1e-14
                lf = new
                if done:
                    break
            lam[free] = lf
            diff = cf - lf[:, None, :]
            ya[free] = ra[None, :, None] * diff / np.maximum(np.linalg.norm(diff, axis=2, keepdims=True), 1e-14)
    ya -= (ra**2)[None, :, None] * (ya.sum(axis=1, keepdims=True) / (ra**2).sum())
    over = (np.linalg.norm(ya, axis=2) / ra).max(axis=1)
    ya /= np.maximum(over, 1.0)[:, None, None]
    y[:, idx, :] = ya
    return y, lam


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
