"""Noncontextual bound on the game via a linear program over ontic masses.

A noncontextual model for the three-outcome measurement splits the ontic
space into three regions; in each region exactly two response functions
are nonzero, bounded by the outcome weights, and outcome responses sum to
one.  Aggregating every preparation distribution over the three regions
leaves 18 masses (A_xa, B_xa, C_xa), plus the region masses p_i, q_i of
the two equivalent mixed preparations.  The hiding constraints become the
fifteen printed equalities below; adding the six per-preparation
normalizations and the two distribution normalizations gives a 24-variable
LP with 23 equality rows and [0, 1] boxes.

The objective fixes, per region, which of its two live responses takes its
maximal value (the other is then pinned by response completeness).  The
default pattern maximizes outcome i in region i; ``nc_value_all_assignments``
re-solves under every per-region choice and is expected to return equal
values, which the tests assert.

For a fixed pattern the objective is affine in alpha over a polytope that
does not depend on alpha, so P_NC is convex in alpha and
``nc_global_max`` needs only the three vertices of the weight triangle.
"""

from __future__ import annotations

import numpy as np

from .lp_engine import LpFamily
from .quantum_opt import AlphaTriple

# variable layout: A00,A01,A10,A11,A20,A21, B..., C..., p0,p1,p2, q0,q1,q2
VARIABLE_NAMES = tuple(
    f"{block}{x}{a}" for block in "ABC" for x in range(3) for a in range(2)
) + ("p0", "p1", "p2", "q0", "q1", "q2")

_INDEX = {name: i for i, name in enumerate(VARIABLE_NAMES)}
N_VARS = 24

# region i supports outcomes _SUPPORTS[i]; the missing outcome responds 0 there
_SUPPORTS = ((0, 2), (1, 0), (2, 1))
_REGION_BLOCK = ("A", "B", "C")

DEFAULT_ASSIGNMENT = (0, 1, 2)  # region i maximizes outcome i
TRIANGLE_VERTICES = ((1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0))


class NcLpError(RuntimeError):
    """The transcribed constraint system misbehaved (bug guard)."""


def _row(entries: dict, rhs: float):
    coeffs = np.zeros(N_VARS)
    for key, val in entries.items():
        coeffs[_INDEX[key]] = val
    return coeffs, float(rhs)


def _constraint_rows():
    rows = [
        # region masses of the first equivalent mixture (three pair families)
        _row({"A00": 1, "A11": 1, "p0": -2}, 0),
        _row({"A21": 1, "B21": 1, "C10": -1, "p2": 2}, 1),
        _row({"A20": 1, "B01": -1, "C20": 1, "p1": 2}, 1),
        _row({"B10": 1, "B21": 1, "p1": -2}, 0),
        _row({"A00": 1, "B00": 1, "C11": -1, "p2": 2}, 1),
        _row({"A20": -1, "B01": 1, "C01": 1, "p0": 2}, 1),
        _row({"C20": 1, "C01": 1, "p2": -2}, 0),
        _row({"A11": 1, "B00": -1, "C11": 1, "p1": 2}, 1),
        _row({"A21": -1, "B10": 1, "C10": 1, "p0": 2}, 1),
        # region masses of the second equivalent mixture (a=0 and a=1 triples)
        _row({"A00": 1, "A20": 1, "B10": -1, "C10": -1, "q0": -3}, -1),
        _row({"A11": 1, "A21": 1, "B01": -1, "C01": -1, "q0": -3}, -1),
        _row({"B00": 1, "B10": 1, "C20": -1, "A20": -1, "q1": -3}, -1),
        _row({"B21": 1, "B01": 1, "A11": -1, "C11": -1, "q1": -3}, -1),
        _row({"C10": 1, "C20": 1, "B00": -1, "A00": -1, "q2": -3}, -1),
        _row({"C01": 1, "C21": 1, "B11": -1, "A11": -1, "q2": -3}, -1),
    ]
    # each preparation distributes over the three regions
    for x in range(3):
        for a in range(2):
            rows.append(_row({f"A{x}{a}": 1, f"B{x}{a}": 1, f"C{x}{a}": 1}, 1))
    rows.append(_row({"p0": 1, "p1": 1, "p2": 1}, 1))
    rows.append(_row({"q0": 1, "q1": 1, "q2": 1}, 1))
    return rows


EQ_MATRIX, EQ_RHS = (np.array(part) for part in zip(*_constraint_rows()))


def _winning_masses(region: int, outcome: int) -> tuple[str, str]:
    """Masses whose inputs are answered correctly by the given outcome,
    aggregated over the given region: (x, a) with x + a = outcome (mod 3)."""
    block = _REGION_BLOCK[region]
    return (f"{block}{outcome}0", f"{block}{(outcome + 2) % 3}1")


def objective_vector(alpha, assignment=DEFAULT_ASSIGNMENT) -> np.ndarray:
    alpha = tuple(AlphaTriple(tuple(alpha)).alpha)
    c = np.zeros(N_VARS)
    for region in range(3):
        maximized = assignment[region]
        if maximized not in _SUPPORTS[region]:
            raise ValueError(f"outcome {maximized} is not live in region {region}")
        other = next(b for b in _SUPPORTS[region] if b != maximized)
        for name in _winning_masses(region, maximized):
            c[_INDEX[name]] += alpha[maximized] / 6.0
        for name in _winning_masses(region, other):
            c[_INDEX[name]] += (1.0 - alpha[maximized]) / 6.0
    return c


_FAMILY: LpFamily | None = None


def _family() -> LpFamily:
    global _FAMILY
    if _FAMILY is None:
        _FAMILY = LpFamily(EQ_MATRIX, EQ_RHS, np.zeros(N_VARS), np.ones(N_VARS))
        if not _FAMILY.feasible:  # pragma: no cover - transcription guard
            raise NcLpError("constraint system reported infeasible")
    return _FAMILY


def nc_value(alpha) -> float:
    """LP optimum for the given outcome weights."""
    solution = _family().maximize(objective_vector(alpha))
    if solution.status != "optimal":  # pragma: no cover - bounded by the box
        raise NcLpError(f"unexpected LP status {solution.status}")
    return solution.value


def assignment_patterns() -> list[tuple[int, int, int]]:
    """Every per-region choice of which live response is maximal (8 patterns)."""
    patterns = []
    for m0 in _SUPPORTS[0]:
        for m1 in _SUPPORTS[1]:
            for m2 in _SUPPORTS[2]:
                patterns.append((m0, m1, m2))
    return patterns


def nc_value_all_assignments(alpha) -> dict:
    """Solve under every maximal-assignment pattern (robustness mode)."""
    return {
        pattern: _family().maximize(objective_vector(alpha, pattern)).value
        for pattern in assignment_patterns()
    }


def nc_global_max() -> tuple[float, tuple]:
    """Maximum of P_NC over the weight triangle {alpha in [0,1]^3, sum = 2}.

    The LP's feasible polytope does not depend on alpha and its objective
    is affine in alpha, so P_NC(alpha) is a maximum of affine functions of
    alpha and therefore convex.  A convex function on a triangle attains
    its maximum at a vertex, so three LP solves give the exact maximum.
    The first vertex within 1e-12 of the best value is reported, so LP
    rounding noise cannot move the reported vertex.
    """
    values = [nc_value(alpha) for alpha in TRIANGLE_VERTICES]
    best = next(i for i, value in enumerate(values) if value >= max(values) - 1e-12)
    return values[best], TRIANGLE_VERTICES[best]
