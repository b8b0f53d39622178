"""Dense two-phase simplex for small equality-constrained LPs with box bounds.

``LpFamily(A, b, l, u)`` is the one LP object: it holds the feasible region
{A x = b, l <= x <= u}, and ``maximize(c)`` returns the optimum of c.x over
it.  Lower bounds are shifted to zero; upper bounds are handled natively by
the bounded-variable rules (nonbasic variables may sit at either bound, with
bound flips in the ratio test).  Problem sizes here are at most tens of rows
and hundreds of columns; no sparse machinery is warranted.

Pricing is Dantzig's: the favourable column with the largest |reduced cost|
enters, the first one on a tie.  After DEGENERATE_RUN consecutive degenerate
steps (step length at most 1e-12) the entering column is chosen by Bland's
smallest-index rule instead, until the next step that moves the point.
Bland's rule cannot cycle through a degenerate stall and every step that
moves raises the objective, so no basis repeats and every solve terminates.
In the ratio test the smallest basic index leaves among rows whose ratio is
within 1e-12 of the minimum.  Solves are deterministic.  Each iteration
recomputes the reduced costs from the cost vector and the tableau, never
updates them incrementally, and eliminates with one rank-one update.  After
phase 1 an artificial still basic is pivoted out on an entry above
FEASIBILITY_TOL, or its row is dropped as redundant.

Inconsistent sizes, a non-finite lower bound or a lower bound above its
upper bound raise LpDimensionError.  Each "optimal" point is checked against
the original equalities: a residual |A x - b| above
FEASIBILITY_TOL * max(1, |b|_inf) raises LpNumericalError, as does the
iteration limit, so tableau drift never yields a silent answer.  Solutions
carry their phase-1 and phase-2 pivot counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
FEASIBILITY_TOL = 1e-9
_MAX_ITERS = 50_000
DEGENERATE_RUN = 50  # consecutive degenerate steps before Bland's rule takes over


class LpDimensionError(ValueError):
    """Inconsistent LP dimensions or invalid bounds."""


class LpNumericalError(RuntimeError):
    """The simplex hit its iteration limit, or its optimal point fails the
    equality constraints by more than the feasibility tolerance."""


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str                  # "optimal" | "infeasible" | "unbounded"
    value: float
    x: np.ndarray | None
    residual: float
    phase1_objective: float = 0.0
    phase1_pivots: int = 0       # basis exchanges in phase 1 (shared by an LpFamily)
    phase2_pivots: int = 0       # basis exchanges in this objective's phase 2


class _Dictionary:
    """Simplex state for the shifted problem: A y = b0, 0 <= y <= span."""

    def __init__(self, a: np.ndarray, b0: np.ndarray, span: np.ndarray):
        m, n = a.shape
        sign = np.where(b0 < 0.0, -1.0, 1.0)
        self.tab = np.hstack([a * sign[:, None], np.eye(m)])
        self.rhs = b0 * sign
        self.basis = np.arange(n, n + m)
        self.span = np.concatenate([span, np.full(m, np.inf)])
        self.at_upper = np.zeros(n + m, dtype=bool)
        self.is_basic = np.zeros(n + m, dtype=bool)
        self.is_basic[n:] = True
        self.n_struct = n
        self.pivots = 0

    def clone(self) -> "_Dictionary":
        other = object.__new__(_Dictionary)
        other.tab = self.tab.copy()
        other.rhs = self.rhs.copy()
        other.basis = self.basis.copy()
        other.span = self.span.copy()
        other.at_upper = self.at_upper.copy()
        other.is_basic = self.is_basic.copy()
        other.n_struct = self.n_struct
        other.pivots = 0
        return other

    def basic_values(self) -> np.ndarray:
        up = np.where(self.at_upper & ~self.is_basic)[0]
        beta = self.rhs.copy()
        if up.size:
            beta = beta - self.tab[:, up] @ self.span[up]
        return beta

    def point(self) -> np.ndarray:
        y = np.where(self.at_upper, self.span, 0.0)
        y[self.is_basic] = 0.0
        y[self.basis] = self.basic_values()
        return y

    def _pivot(self, row: int, col: int):
        tab, rhs = self.tab, self.rhs
        piv = tab[row, col]
        tab[row] /= piv
        rhs[row] /= piv
        factors = tab[:, col].copy()
        factors[row] = 0.0
        tab -= factors[:, None] * tab[row]
        rhs -= factors * rhs[row]
        tab[:, col] = 0.0
        tab[row, col] = 1.0
        leaving = self.basis[row]
        self.is_basic[leaving] = False
        self.is_basic[col] = True
        self.at_upper[col] = False
        self.basis[row] = col
        self.pivots += 1

    def run(self, cost: np.ndarray) -> str:
        """Maximize cost.y; returns "optimal" or "unbounded".

        Dantzig pricing, switching to Bland's rule after DEGENERATE_RUN
        consecutive degenerate steps until the next step that moves.  Both
        picks take the first favourable column that attains them.  A basic
        variable can leave at its upper bound only when its span is finite,
        so without finite spans the upper-bound ratios are skipped.
        """
        tab, span = self.tab, self.span
        enterable = span > PIVOT_TOL
        bounded = np.isfinite(span)
        any_bounded = bool(bounded.any())
        degenerate = 0
        for _ in range(_MAX_ITERS):
            reduced = cost - cost[self.basis] @ tab
            favorable = np.where(self.at_upper, reduced < -PIVOT_TOL, reduced > PIVOT_TOL)
            favorable &= enterable
            favorable[self.is_basic] = False
            if not favorable.any():
                return "optimal"
            if degenerate < DEGENERATE_RUN:
                j = int(np.where(favorable, np.abs(reduced), -1.0).argmax())
            else:
                j = int(favorable.argmax())
            sigma = -1.0 if self.at_upper[j] else 1.0
            col = sigma * tab[:, j]
            beta = self.basic_values()

            # ratio test: how far the entering variable can move before a
            # basic variable hits its lower (col > 0) or upper (col < 0) bound
            to_lower = col > PIVOT_TOL
            ratios = np.full(col.size, np.inf)
            ratios[to_lower] = np.maximum(beta[to_lower], 0.0) / col[to_lower]
            if any_bounded:
                basic_span = span[self.basis]
                to_upper = (col < -PIVOT_TOL) & bounded[self.basis]
                ratios[to_upper] = np.maximum(basic_span[to_upper] - beta[to_upper], 0.0) / -col[to_upper]
            row_min = ratios.min(initial=np.inf)
            step = min(span[j], row_min)
            if not np.isfinite(step):
                return "unbounded"
            degenerate = degenerate + 1 if step <= 1e-12 else 0
            if row_min <= span[j] + 1e-12:
                # smallest basic variable index among the minimal ratios leaves
                ties = (ratios <= row_min + 1e-12).nonzero()[0]
                leave_row = int(ties[np.argmin(self.basis[ties])])
                leaving = self.basis[leave_row]
                self._pivot(leave_row, j)
                self.at_upper[leaving] = any_bounded and to_upper[leave_row]
            else:
                # entering variable flips to its other bound
                self.at_upper[j] = not self.at_upper[j]
        raise LpNumericalError("simplex iteration limit exceeded")

    def drop_artificials(self):
        """Pivot artificial variables out of the basis; drop redundant rows.

        Each artificial leaves on the row's largest nonbasic structural
        entry: the first entry above PIVOT_TOL may be tiny, and dividing by
        it drifts the tableau.  A row whose largest entry is at most
        FEASIBILITY_TOL is dropped as redundant: on a redundant row that
        entry is elimination drift (1.1e-11 on one 18-row joint LP), and a
        pivot on it sets a basic variable to a wrong, possibly negative,
        value.
        """
        n = self.n_struct
        redundant = []
        for row in range(len(self.basis)):
            if self.basis[row] < n:
                continue
            entries = np.where(self.is_basic[:n], 0.0, np.abs(self.tab[row, :n]))
            piv_col = int(np.argmax(entries))
            if entries[piv_col] > FEASIBILITY_TOL:
                self._pivot(row, piv_col)
            else:
                redundant.append(row)
        if redundant:
            keep = [i for i in range(len(self.basis)) if i not in redundant]
            for row in redundant:
                self.is_basic[self.basis[row]] = False
            self.tab = self.tab[keep]
            self.rhs = self.rhs[keep]
            self.basis = self.basis[keep]
        self.tab = self.tab[:, :n]
        self.span = self.span[:n]
        self.at_upper = self.at_upper[:n]
        self.is_basic = self.is_basic[:n]


class LpFamily:
    """The feasible region {A x = b, l <= x <= u}, maximized over objectives.

    Construction checks the sizes and bounds, then runs phase 1 once; each
    ``maximize`` call starts phase 2 from the stored feasible dictionary, so
    a sweep over objectives shares one phase 1.
    """

    def __init__(self, eq_matrix, eq_rhs, lower, upper):
        a = np.atleast_2d(np.asarray(eq_matrix, dtype=float))
        self.lower = np.asarray(lower, dtype=float).reshape(-1)
        self.upper = np.asarray(upper, dtype=float).reshape(-1)
        n = self.lower.size
        if a.size == 0:
            a = a.reshape((0, n))
        self.a = a
        self.b = np.asarray(eq_rhs, dtype=float).reshape(-1)
        if a.shape[1] != n or self.b.size != a.shape[0] or self.upper.size != n:
            raise LpDimensionError(
                f"inconsistent sizes: A={a.shape}, b={self.b.size}, l={n}, u={self.upper.size}"
            )
        if not np.all(np.isfinite(self.lower)):
            raise LpDimensionError("lower bounds must be finite")
        if np.any(self.lower > self.upper + 1e-15):
            raise LpDimensionError("lower bound exceeds upper bound")
        # phase 1: maximize minus the sum of the artificial variables
        core = _Dictionary(a, self.b - a @ self.lower, self.upper - self.lower)
        cost = np.concatenate([np.zeros(n), -np.ones(a.shape[0])])
        if core.run(cost) != "optimal":  # pragma: no cover - bounded by 0
            raise LpNumericalError("phase 1 unbounded")
        self.phase1_objective = float(core.point()[n:].sum())
        self.feasible = self.phase1_objective <= FEASIBILITY_TOL
        if self.feasible:
            core.drop_artificials()
            self._core = core
        self.phase1_pivots = core.pivots

    def maximize(self, objective) -> LpSolution:
        c = np.asarray(objective, dtype=float).reshape(-1)
        if c.size != self.lower.size:
            raise LpDimensionError("objective size mismatch")
        if not self.feasible:
            return LpSolution(
                "infeasible", float("nan"), None, float("inf"), self.phase1_objective, self.phase1_pivots
            )
        d = self._core.clone()
        status = d.run(c)
        if status == "unbounded":
            return LpSolution("unbounded", float("inf"), None, float("inf"), 0.0, self.phase1_pivots, d.pivots)
        x = np.clip(d.point() + self.lower, self.lower, self.upper)
        residual = float(np.max(np.abs(self.a @ x - self.b))) if self.a.shape[0] else 0.0
        limit = FEASIBILITY_TOL * max(1.0, float(np.max(np.abs(self.b), initial=0.0)))
        if not residual <= limit:
            raise LpNumericalError(
                f"simplex point misses the equality constraints by {residual:.3g} (limit {limit:.3g})"
            )
        return LpSolution("optimal", float(c @ x), x, residual, 0.0, self.phase1_pivots, d.pivots)
