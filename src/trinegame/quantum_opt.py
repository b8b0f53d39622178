"""Quantum value P_Q(alpha) of the game, bracketed by a strategy and an
exact dual certificate.

Lower bound: the trine-pinned strategy, evaluated by
``game.success_probability``.  It puts the a=0 preparations at Bloch angles
2 pi x / 3 in the xz plane (the derived a=1 states are antipodal) and
measures with the best POVM for them, which the closed-form
``qubit_core.zero_sum_alignment`` gives exactly.  At alpha = (2/3, 2/3, 2/3)
its measurement directions are v_b = (a_b - a_{b+1 mod 3}) / sqrt(3) and it
reaches (1/3)(1 + sqrt(3)/2).

Upper bound: an exact dual certificate from ``quantum_bound.certify``.
``quantum_value`` returns both; ``bounds`` checks that they lie within
``BRACKET_TOL`` of each other.

``optimize_quantum`` is a restart search over all strategies that
alternates two convex subproblems:

* measurement step: the effect of outcome b is (alpha_b I + y_b.sigma)/2,
  and completeness with positivity reads sum_b y_b = 0, |y_b| <= alpha_b.
  Maximizing sum_b y_b.c_b over that set is
  ``qubit_core.zero_sum_alignment`` with radii alpha;
* preparation step: projected gradient ascent on the three free a=0 Bloch
  vectors; the derived a=1 states stay positive because iterates are kept
  inside the feasible set (Dykstra projection onto the two rotated
  product-ball constraints).

Restarts run vectorized and use per-index scrambled seeds, so results are
deterministic for a fixed (seed, restarts) and best-of-restarts is
monotone in the restart count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import game
from .game import _SHIFT1, _SHIFT2
from .qubit_core import (
    DensityState,
    Effect,
    Povm,
    xz_direction,
    zero_sum_alignment,
)

if TYPE_CHECKING:
    from fractions import Fraction  # quantum_bound imports it on first use

QUANTUM_OPTIMUM = (1.0 + np.sqrt(3.0) / 2.0) / 3.0
MAX_ROUNDS = 1500
BRACKET_TOL = 1e-8   # widest upper - lower that ``bounds`` accepts


def splitmix64(value: int) -> int:
    """SplitMix64 scrambler; derives independent child seeds."""
    z = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(base: int, *indices: int) -> int:
    z = splitmix64(base & 0xFFFFFFFFFFFFFFFF)
    for idx in indices:
        z = splitmix64(z ^ ((idx + 1) & 0xFFFFFFFFFFFFFFFF))
    return z


@dataclass(frozen=True, eq=False)
class AlphaTriple:
    """Outcome weights (a_0, a_1, a_2), each in [0, 1], summing to 2."""

    alpha: tuple

    def __post_init__(self):
        vals = tuple(float(a) for a in self.alpha)
        if len(vals) != 3:
            raise ValueError("expected three outcome weights")
        if any(a < -1e-12 or a > 1.0 + 1e-12 for a in vals):
            raise ValueError(f"outcome weights {vals} leave [0, 1]")
        if abs(sum(vals) - 2.0) > 1e-9:
            raise ValueError(f"outcome weights {vals} do not sum to 2")
        object.__setattr__(self, "alpha", vals)

    @classmethod
    def symmetric(cls, alpha0: float) -> "AlphaTriple":
        rest = (2.0 - alpha0) / 2.0
        return cls((alpha0, rest, rest))

    def __iter__(self):
        return iter(self.alpha)

    def as_array(self) -> np.ndarray:
        return np.array(self.alpha)


class OptimizationResult(NamedTuple):
    """Best strategy of the restart search.

    ``converged`` means the stop rule's test held for the returned restart:
    its gain over the last check interval was below ``tol``.  It says the
    search stalled, not that the value is optimal; it can be True below a
    known feasible value.  Optimality is what an upper bound from
    ``quantum_bound.certify`` shows.
    """

    value: float
    strategy: game.GameStrategy
    restarts_used: int
    converged: bool
    best_gap: float          # spread of final values across restarts


def _as_alpha(alpha) -> AlphaTriple:
    return alpha if isinstance(alpha, AlphaTriple) else AlphaTriple(tuple(alpha))


def analytic_optimal_strategy() -> game.GameStrategy:
    """The closed-form optimal strategy; success = (1/3)(1 + sqrt(3)/2)."""
    return _trine_strategy(AlphaTriple((2.0 / 3.0,) * 3))


def _pair_sums(u: np.ndarray) -> np.ndarray:
    """c_b = u_b - u_{b+1} + (2/3) sum_y u_y for stacked (..., 3, 3) arrays."""
    return u - u[..., _SHIFT1, :] + (2.0 / 3.0) * u.sum(axis=-2, keepdims=True)


def _objective(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 / 3.0 + (y * _pair_sums(u)).sum(axis=(1, 2)) / 12.0


def optimize_quantum(
    alpha,
    restarts: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
) -> OptimizationResult:
    """Best strategy found by alternating maximization over random restarts;
    at most ``MAX_ROUNDS`` preparation steps run."""
    alpha_t = _as_alpha(alpha)
    al = alpha_t.as_array()
    if restarts < 1:
        raise ValueError("need at least one restart")

    starts = np.empty((restarts, 3, 3))
    for r_idx in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, r_idx))
        starts[r_idx] = rng.uniform(-1.0, 1.0, size=(3, 3))
    u = game.shrink_to_feasible(game.project_free_blochs(starts, iters=50))

    y = zero_sum_alignment(_pair_sums(u), al)
    values = _objective(u, y)
    gains = np.full(restarts, np.inf)
    check_every = 16
    best_stagnant = 0
    for it in range(MAX_ROUNDS):
        h = y - y[:, _SHIFT2, :] + (2.0 / 3.0) * y.sum(axis=1, keepdims=True)
        hn = np.linalg.norm(h.reshape(restarts, -1), axis=1)
        eta = max(0.5 * 0.985**it, 1e-5)
        step = np.where(hn > 1e-14, eta / np.maximum(hn, 1e-14), 0.0)
        u = game.project_free_blochs(u + step[:, None, None] * h, iters=10)
        y = zero_sum_alignment(_pair_sums(u), al)
        if (it + 1) % check_every == 0:
            new_values = _objective(u, y)
            gains = new_values - values
            best_gain = new_values.max() - values.max()
            values = new_values
            if np.max(gains) < tol:
                break
            best_stagnant = best_stagnant + 1 if best_gain < tol else 0
            if best_stagnant >= 4 and it > 600:
                break

    # exact feasibility, then exact evaluation of every restart
    u = game.shrink_to_feasible(game.project_free_blochs(u, iters=60))
    y = zero_sum_alignment(_pair_sums(u), al)
    finals = _objective(u, y)
    best = int(np.flatnonzero(finals >= finals.max() - 1e-12)[0])

    strategy = _strategy(u[best], y[best], al)
    value = game.success_probability(strategy)
    return OptimizationResult(
        value=value,
        strategy=strategy,
        restarts_used=restarts,
        converged=bool(gains[best] < tol),
        best_gap=float(finals.max() - finals.min()),
    )


def _strategy(u: np.ndarray, y: np.ndarray, al: np.ndarray) -> game.GameStrategy:
    """Six preparations from the a=0 Bloch vectors u and the POVM with
    effects (alpha_b I + y_b.sigma) / 2."""
    preps = game.complete_preparations(tuple(DensityState(u[x]) for x in range(3)))
    povm = Povm(tuple(Effect(al[b] / 2.0, y[b] / 2.0) for b in range(3)))
    return game.GameStrategy(preps, povm)


def _trine_strategy(alpha: AlphaTriple) -> game.GameStrategy:
    """Trine a=0 preparations with the best measurement for them.

    With the preparations pinned, the measurement subproblem is convex and
    ``zero_sum_alignment`` solves it exactly.
    """
    al = alpha.as_array()
    a_dirs = np.stack([xz_direction(2.0 * np.pi * x / 3.0) for x in range(3)])
    y = zero_sum_alignment(_pair_sums(a_dirs[None, :, :]), al)
    return _strategy(a_dirs, y[0], al)


def trine_preparation_value(alpha) -> float:
    """Game value of the trine-pinned strategy: a lower bound on P_Q."""
    return game.success_probability(_trine_strategy(_as_alpha(alpha)))


class QuantumValue(NamedTuple):
    """Bracket lower <= P_Q(alpha) <= upper.

    ``lower`` is ``success_probability(strategy)`` of the trine-pinned
    strategy; ``upper`` is an exact ``Fraction`` from a dual certificate,
    or None when none was found.
    """

    strategy: game.GameStrategy
    lower: float
    upper: Fraction | None


def quantum_value(alpha) -> QuantumValue:
    """The trine-pinned strategy and its certified upper bound."""
    from .quantum_bound import certify  # first use; keeps ``import trinegame`` light

    alpha_t = _as_alpha(alpha)
    strategy = _trine_strategy(alpha_t)
    return QuantumValue(strategy, game.success_probability(strategy), certify(alpha_t, strategy))

