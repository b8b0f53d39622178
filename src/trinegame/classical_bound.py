"""Best c-bit strategy under the hiding constraints, with shared randomness.

Alice encodes input (x, a) into one classical bit (message "0" with
probability p_xa), Bob decodes message 0 via distribution s and message 1
via r over the three outputs.  The hiding constraints restrict the
encoding: the a=0 and a=1 message rates must agree (kappa_1) and the three
pair rates p_x0 + p_{x+1,1} must agree (kappa_2); the two rates coincide.

Shared randomness cannot help: success is linear in the per-branch
strategy and every branch must satisfy the same constraints, so the
optimum over mixtures equals the optimum over single strategies.  For a
fixed decoding pair the objective is linear in p, and deterministic
decodings suffice, so the exact optimum is the best of nine small LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_engine import LpFamily
from .qubit_core import DEFAULT_TOL

CLASSICAL_OPTIMUM = 7.0 / 12.0


class EncodingConstraintError(ValueError):
    """Encoding probabilities violate the hiding constraints."""


def _distribution(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != 3 or np.any(arr < -1e-12) or abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a distribution over three outputs")
    arr.flags.writeable = False
    return arr


def encoding_residuals(p: np.ndarray) -> tuple[float, float]:
    """(rate residual, pair residual) of the two encoding constraints."""
    rate = abs(p[:, 0].sum() - p[:, 1].sum()) / 3.0
    pairs = np.array([p[x, 0] + p[(x + 1) % 3, 1] for x in range(3)])
    return float(rate), float(np.max(pairs) - np.min(pairs))


@dataclass(frozen=True, eq=False)
class ClassicalStrategy:
    """Encoding p[x, a] = P(message 0 | x, a) plus decodings s (for 0), r (for 1)."""

    p: np.ndarray
    s: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3, 2)
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise EncodingConstraintError("encoding probabilities leave [0, 1]")
        rate, pair = encoding_residuals(p)
        if rate > DEFAULT_TOL or pair > DEFAULT_TOL:
            raise EncodingConstraintError(
                f"hiding constraints violated: rate residual {rate}, pair residual {pair}"
            )
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", _distribution(self.s, "s"))
        object.__setattr__(self, "r", _distribution(self.r, "r"))

    @property
    def kappa(self) -> float:
        """Common value of the two encoding rates."""
        return float(self.p[:, 0].sum() / 3.0)


def classical_value(strategy: ClassicalStrategy) -> float:
    """Average success probability of the c-bit strategy."""
    p, s, r = strategy.p, strategy.s, strategy.r
    pair0 = p[0, 0] + p[2, 1]   # inputs answered by output 0
    pair1 = p[0, 1] + p[1, 0]   # inputs answered by output 1
    pair2 = p[1, 1] + p[2, 0]   # inputs answered by output 2
    return float(
        pair0 * s[0] + pair1 * s[1] + pair2 * s[2]
        + (2.0 - pair0) * r[0] + (2.0 - pair1) * r[1] + (2.0 - pair2) * r[2]
    ) / 6.0


# encoding constraint rows over p ordered (00, 01, 10, 11, 20, 21)
_EQ = np.array(
    [
        [1, -1, 1, -1, 1, -1],   # equal a=0 / a=1 message rates
        [1, -1, 0, 1, -1, 0],    # pair (0,0)+(1,1) = pair (0,1)+(2,0)
        [1, 0, -1, 1, 0, -1],    # pair (0,0)+(1,1) = pair (1,0)+(2,1)
    ],
    dtype=float,
)
_EQ_RHS = np.zeros(3)


def _objective_for_decodings(i: int, j: int) -> tuple[np.ndarray, float]:
    """Linear objective in p (ordered (x,a) lexicographic) for point decodings
    s = e_i, r = e_j; returns (coefficients, constant), both already / 6."""
    pair_vars = ((0, 5), (1, 2), (3, 4))  # indices of (p00,p21), (p01,p10), (p11,p20)
    c = np.zeros(6)
    const = 0.0
    for out in range(3):
        a_idx, b_idx = pair_vars[out]
        if i == out:
            c[a_idx] += 1.0 / 6.0
            c[b_idx] += 1.0 / 6.0
        if j == out:
            c[a_idx] -= 1.0 / 6.0
            c[b_idx] -= 1.0 / 6.0
            const += 2.0 / 6.0
    return c, const


def optimize_classical() -> tuple[float, ClassicalStrategy]:
    """Exact optimum: enumerate the nine deterministic decoding pairs and
    maximize over the encoding polytope for each; the polytope is shared,
    so one phase 1 serves all nine objectives."""
    encodings = LpFamily(_EQ, _EQ_RHS, np.zeros(6), np.ones(6))
    best_value = -np.inf
    best = None
    for i in range(3):
        for j in range(3):
            c, const = _objective_for_decodings(i, j)
            sol = encodings.maximize(c)
            value = sol.value + const
            if value > best_value + 1e-12:
                best_value = value
                p_matrix = np.array([[sol.x[2 * x + a] for a in range(2)] for x in range(3)])
                best = ClassicalStrategy(p_matrix, np.eye(3)[i], np.eye(3)[j])
    return float(best_value), best
