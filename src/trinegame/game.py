"""Six-input communication game: strategy container, hiding constraints, payoff.

Alice receives (x, a) with x in {0,1,2}, a in {0,1} and prepares a qubit;
Bob measures a three-outcome POVM and wins when b = x + a (mod 3).  The
transmitted states must hide both a and x + 2a (mod 3): the two families
of sums of preparations have to coincide as operators, which implies the
probability-level conditions for every measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit_core import DensityState, InvalidStateError, Povm, born_probability

# index permutations (x+1)%3 and (x+2)%3
_SHIFT1 = (1, 2, 0)
_SHIFT2 = (2, 0, 1)


class InfeasiblePreparationError(ValueError):
    """Derived a=1 state falls outside the Bloch ball."""


def winner(x: int, a: int) -> int:
    return (x + a) % 3


@dataclass(frozen=True, eq=False)
class GameStrategy:
    """Six preparations indexed (x, a) -> preps[2*x + a] plus a 3-outcome POVM."""

    preps: tuple
    povm: Povm

    def __post_init__(self):
        object.__setattr__(self, "preps", tuple(self.preps))
        if len(self.preps) != 6:
            raise ValueError("expected 6 preparations ordered (x,a) = 00,01,10,11,20,21")
        if len(self.povm) != 3:
            raise ValueError("expected a 3-outcome POVM")

    def prep(self, x: int, a: int) -> DensityState:
        return self.preps[2 * x + a]


def success_probability(strategy: GameStrategy) -> float:
    """(1/6) sum_{x,a} Tr[rho_xa E_{x+a mod 3}]."""
    total = 0.0
    for x in range(3):
        for a in range(2):
            total += born_probability(strategy.prep(x, a), strategy.povm.effects[winner(x, a)])
    return total / 6.0


@dataclass(frozen=True, eq=False)
class ParityConcealmentReport:
    mixture_residual: float       # (1/3) sum_x rho_x0  vs  (1/3) sum_x rho_x1
    partition_residual: float     # equality of the three x+2a (mod 3) group sums
    passed: bool
    tol: float


def check_parity_concealment(preps, tol: float = 1e-9) -> ParityConcealmentReport:
    """Operator-level residuals of the two hiding constraints.

    Max-abs Pauli-coordinate differences; operator equality of these sums
    implies the outcome-probability constraints for every POVM.
    """
    preps = tuple(preps)
    ops = {(x, a): preps[2 * x + a].as_operator() for x in range(3) for a in range(2)}

    mix0 = sum((ops[(x, 0)] for x in range(1, 3)), ops[(0, 0)]).scaled(1.0 / 3.0)
    mix1 = sum((ops[(x, 1)] for x in range(1, 3)), ops[(0, 1)]).scaled(1.0 / 3.0)
    mixture_residual = (mix0 - mix1).max_abs_coord()

    # group c holds the pairs with x + 2a = c (mod 3): (c, 0) and (c+1 mod 3, 1)
    sums = [ops[(c, 0)] + ops[((c + 1) % 3, 1)] for c in range(3)]
    partition_residual = max(
        (sums[i] - sums[j]).max_abs_coord() for i in range(3) for j in range(i + 1, 3)
    )
    passed = mixture_residual <= tol and partition_residual <= tol
    return ParityConcealmentReport(mixture_residual, partition_residual, passed, tol)


def derived_second_blochs(u: np.ndarray) -> np.ndarray:
    """Bloch vectors of the a=1 states forced by the hiding constraints.

    m_x = (2/3) sum_y u_y - u_{(x+2)%3}; accepts stacked arrays (..., 3, 3).
    """
    u = np.asarray(u, dtype=float)
    total = u.sum(axis=-2, keepdims=True)
    return (2.0 / 3.0) * total - u[..., _SHIFT2, :]


def free_blochs_from_derived(m: np.ndarray) -> np.ndarray:
    """Inverse of derived_second_blochs (the map is orthogonal)."""
    m = np.asarray(m, dtype=float)
    total = m.sum(axis=-2, keepdims=True)
    return (2.0 / 3.0) * total - m[..., _SHIFT1, :]


def complete_preparations(first_states):
    """Extend three a=0 states to all six preparations.

    Solves both hiding constraints exactly; raises
    InfeasiblePreparationError when a derived a=1 Bloch vector leaves the
    unit ball.
    """
    first_states = tuple(first_states)
    if len(first_states) != 3:
        raise ValueError("expected the three a=0 states")
    m = derived_second_blochs(np.stack([s.bloch for s in first_states]))
    preps = []
    for x in range(3):
        try:
            second = DensityState(m[x])
        except InvalidStateError as exc:
            raise InfeasiblePreparationError(
                f"derived state (x={x}, a=1) has Bloch norm {np.linalg.norm(m[x]):.12f} > 1"
            ) from exc
        preps += [first_states[x], second]
    return tuple(preps)


def _clip_balls(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(1.0, norms)


def project_free_blochs(u: np.ndarray, iters: int = 40) -> np.ndarray:
    """Dykstra projection of stacked a=0 Bloch triples (..., 3, 3) onto the
    feasible set {|u_x| <= 1 and |m_x(u)| <= 1}."""
    x = np.asarray(u, dtype=float).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = _clip_balls(x + p)
        p = x + p - y
        z = free_blochs_from_derived(_clip_balls(derived_second_blochs(y + q)))
        q = y + q - z
        x = z
    return x


def shrink_to_feasible(u: np.ndarray) -> np.ndarray:
    """Scale each triple so all six Bloch norms are <= 1 exactly."""
    u = np.asarray(u, dtype=float)
    m = derived_second_blochs(u)
    nu = np.linalg.norm(u, axis=-1).max(axis=-1)
    nm = np.linalg.norm(m, axis=-1).max(axis=-1)
    scale = np.maximum(1.0, np.maximum(nu, nm))
    return u / scale[..., None, None]
