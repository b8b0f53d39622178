"""Noncontextual-bound LP: structure, anchors, curve, robustness."""

import numpy as np
import pytest

from trinegame import nc_bound
from trinegame.lp_engine import LpFamily
from trinegame.nc_bound import (
    DEFAULT_ASSIGNMENT,
    EQ_MATRIX,
    EQ_RHS,
    N_VARS,
    TRIANGLE_VERTICES,
    VARIABLE_NAMES,
    assignment_patterns,
    nc_global_max,
    nc_value,
    nc_value_all_assignments,
    objective_vector,
)
from trinegame.quantum_opt import AlphaTriple, QUANTUM_OPTIMUM, optimize_quantum

SYMMETRIC = (2 / 3, 2 / 3, 2 / 3)


class TestStructure:
    def test_counts(self):
        assert EQ_MATRIX.shape == (23, 24)
        assert EQ_RHS.shape == (23,)
        assert objective_vector(SYMMETRIC).shape == (N_VARS,) == (24,)
        assert len(VARIABLE_NAMES) == N_VARS

    def test_uniform_point_is_feasible(self):
        residuals = np.abs(EQ_MATRIX @ np.full(N_VARS, 1 / 3) - EQ_RHS)
        assert np.flatnonzero(residuals > 1e-12).tolist() == []

    def test_uniform_point_objective_value(self):
        # (1/6) [ (2/3)(2/3)*3 + (1/3)(2/3)*3 ] = 1/3 at the symmetric weights
        c = objective_vector(SYMMETRIC)
        assert float(c @ np.full(N_VARS, 1 / 3)) == pytest.approx(1 / 3, abs=1e-15)


class TestAnchors:
    def test_symmetric_point_is_half(self):
        assert nc_value(SYMMETRIC) == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_extremes(self):
        assert nc_value((1, 0.5, 0.5)) == pytest.approx(7 / 12, abs=1e-9)
        assert nc_value((0, 1, 1)) == pytest.approx(7 / 12, abs=1e-9)

    def test_direct_solve_matches_family_path(self):
        for alpha in (SYMMETRIC, (0.8, 0.6, 0.6)):
            cold = LpFamily(EQ_MATRIX, EQ_RHS, np.zeros(N_VARS), np.ones(N_VARS))
            assert cold.maximize(objective_vector(alpha)).value == pytest.approx(nc_value(alpha), abs=1e-10)

    def test_curve_difference_of_anchors(self, curve_rows):
        vals = {}
        for alpha0 in (1.0, 2 / 3):
            ((_, _, p_nc),) = curve_rows("--alpha0", repr(alpha0))
            vals[alpha0] = nc_value(AlphaTriple.symmetric(alpha0))
            assert p_nc == f"{vals[alpha0]:.6f}"
        assert vals[1.0] - vals[2 / 3] == pytest.approx(1 / 12, abs=1e-8)

    def test_vertex_maximum_bounds_a_grid_over_the_triangle(self):
        best, arg = nc_global_max()
        assert best == pytest.approx(7 / 12, abs=1e-12)
        assert sorted(arg) == [0.0, 1.0, 1.0]
        grid = np.linspace(0.0, 1.0, 11)
        for a0 in grid:
            for a1 in grid:
                if 1.0 <= a0 + a1 <= 2.0:
                    assert nc_value((a0, a1, 2.0 - a0 - a1)) <= best + 1e-12

    def test_vertex_ties_within_rounding_report_the_first_vertex(self, monkeypatch):
        values = dict(zip(TRIANGLE_VERTICES, (7 / 12, 7 / 12 + 2e-16, 7 / 12 - 1e-16)))
        monkeypatch.setattr(nc_bound, "nc_value", lambda alpha: values[tuple(alpha)])
        assert nc_global_max() == (7 / 12, TRIANGLE_VERTICES[0])
        values[TRIANGLE_VERTICES[2]] = 7 / 12 + 1e-9
        assert nc_global_max() == (7 / 12 + 1e-9, TRIANGLE_VERTICES[2])


class TestCeilingAndGap:
    def test_never_exceeds_seven_twelfths(self):
        for a0 in np.linspace(0, 1, 21):
            assert nc_value(AlphaTriple.symmetric(a0)) <= 7 / 12 + 1e-9

    def test_quantum_dominates_except_at_extremes(self):
        for a0 in (0.0, 1 / 3, 0.5, 2 / 3, 0.9, 1.0):
            alpha = AlphaTriple.symmetric(a0)
            p_nc = nc_value(alpha)
            p_q = optimize_quantum(alpha, restarts=10, seed=4).value
            assert p_nc <= p_q + 1e-4

    def test_maximum_gap_at_symmetric_point(self):
        gap = QUANTUM_OPTIMUM - nc_value(SYMMETRIC)
        assert gap == pytest.approx(0.1220084679, abs=1e-9)


class TestAssignmentRobustness:
    def test_eight_patterns_enumerated(self):
        patterns = assignment_patterns()
        assert len(patterns) == 8
        assert DEFAULT_ASSIGNMENT in patterns

    def test_all_patterns_agree_at_symmetric_weights(self):
        vals = nc_value_all_assignments(SYMMETRIC)
        assert max(vals.values()) - min(vals.values()) <= 1e-9

    def test_default_attains_pattern_maximum_everywhere(self):
        # patterns disagree at asymmetric weights, but the default choice is
        # never beaten by another pattern
        rng = np.random.default_rng(8)
        grid = [(a0, (2 - a0) / 2, (2 - a0) / 2) for a0 in np.linspace(0, 1, 11)]
        for _ in range(20):
            a0, a1 = rng.uniform(0, 1, 2)
            a2 = 2 - a0 - a1
            if 0 <= a2 <= 1:
                grid.append((a0, a1, a2))
        for alpha in grid:
            vals = nc_value_all_assignments(alpha)
            assert vals[DEFAULT_ASSIGNMENT] >= max(vals.values()) - 1e-9
