"""Simplex solver against the brute-force vertex-enumeration oracle and,
where scipy is installed, against HiGHS."""

import numpy as np
import pytest

from trinegame import classical_bound, lp_engine, nc_bound
from trinegame import measurement_classicality as mc
from trinegame.lp_engine import LinearProgram, LpFamily, LpNumericalError, format_lp, solve
from trinegame.povm_simulation import simulator_set

import oracles


def random_feasible_lp(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(0, min(n - 1, 4) + 1))
    lower = rng.uniform(-2, 0, n)
    upper = lower + rng.uniform(0.2, 3, n)
    a = rng.normal(size=(m, n))
    interior = rng.uniform(lower, upper)
    b = a @ interior if m else np.zeros(0)
    c = rng.normal(size=n)
    return LinearProgram(c, a, b, lower, upper)


class TestBasics:
    def test_single_box_variable(self):
        sol = solve(LinearProgram([1.0], np.zeros((0, 1)), [], [0.0], [1.0]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_equality_saturated(self):
        sol = solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0], [0, 0], [1, 1]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_has_phase1_certificate(self):
        sol = solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [3.0], [0, 0], [1, 1]))
        assert sol.status == "infeasible"
        assert sol.phase1_objective > 1e-9

    def test_unbounded_detected(self):
        sol = solve(LinearProgram([1.0], np.zeros((0, 1)), [], [0.0], [np.inf]))
        assert sol.status == "unbounded"

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, 2.0], [[1.0]], [1.0], [0, 0], [1, 1])


class TestAgainstVertexOracle:
    def test_100_random_lps(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            lp = random_feasible_lp(rng)
            sol = solve(lp)
            assert sol.status == "optimal"
            ref = oracles.lp_best_vertex_value(lp.objective, lp.eq_matrix, lp.eq_rhs, lp.lower, lp.upper)
            assert sol.value == pytest.approx(ref, abs=1e-9)

    def test_reported_value_matches_point(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            lp = random_feasible_lp(rng)
            sol = solve(lp)
            assert sol.value == pytest.approx(float(lp.objective @ sol.x), abs=1e-12)
            assert sol.residual <= 1e-9
            assert np.all(sol.x >= lp.lower - 1e-9)
            assert np.all(sol.x <= lp.upper + 1e-9)


class TestFamilyReuse:
    def test_family_matches_fresh_solves(self):
        rng = np.random.default_rng(5)
        lp = random_feasible_lp(rng)
        family = LpFamily(lp.eq_matrix, lp.eq_rhs, lp.lower, lp.upper)
        for _ in range(10):
            c = rng.normal(size=lp.n_vars)
            fresh = solve(LinearProgram(c, lp.eq_matrix, lp.eq_rhs, lp.lower, lp.upper))
            warm = family.maximize(c)
            assert warm.value == pytest.approx(fresh.value, abs=1e-9)


class TestNumericalGuards:
    def test_iteration_limit_is_typed(self, monkeypatch):
        monkeypatch.setattr(lp_engine, "_MAX_ITERS", 1)
        with pytest.raises(LpNumericalError, match="iteration limit"):
            solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0], [0, 0], [1, 1]))

    def test_point_off_the_constraints_is_never_optimal(self, monkeypatch):
        point = lp_engine._Dictionary.point
        monkeypatch.setattr(lp_engine._Dictionary, "point", lambda self: point(self) - 1e-6)
        with pytest.raises(LpNumericalError, match="equality constraints"):
            solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0], [0, 0], [1, 1]))


class TestPivotCounts:
    def test_family_shares_phase1_count(self):
        rng = np.random.default_rng(5)
        lp = random_feasible_lp(rng)
        while lp.n_eqs == 0:
            lp = random_feasible_lp(rng)
        family = LpFamily(lp.eq_matrix, lp.eq_rhs, lp.lower, lp.upper)
        sols = [family.maximize(rng.normal(size=lp.n_vars)) for _ in range(5)]
        assert family.phase1_pivots >= 1
        assert {s.phase1_pivots for s in sols} == {family.phase1_pivots}
        assert solve(lp).phase1_pivots == family.phase1_pivots

    def test_box_only_problem_needs_no_pivots(self):
        sol = solve(LinearProgram([1.0, -1.0], np.zeros((0, 2)), [], [0, 0], [1, 1]))
        assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 0)
        assert sol.value == pytest.approx(1.0, abs=1e-12)


def highs(lp: LinearProgram):
    """(status, value) from scipy's HiGHS: status 0 optimal, 2 infeasible, 3 unbounded."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    upper = [None if np.isinf(u) else u for u in lp.upper]
    res = linprog(
        -lp.objective,
        A_eq=lp.eq_matrix if lp.n_eqs else None,
        b_eq=lp.eq_rhs if lp.n_eqs else None,
        bounds=list(zip(lp.lower, upper)),
        method="highs",
    )
    return res.status, (-res.fun if res.status == 0 else None)


def joint_measurability_lps():
    """Inner and outer JM LPs of all ten five-outcome simulator pairs at k = 64,
    at noise levels on both sides of both thresholds."""
    members = [m.povm for m in simulator_set(5).members]
    k = 64
    for eta in (0.78, 0.7804, 0.8125, 0.813):
        for o in range(5):
            for o2 in range(o + 1, 5):
                first, second = mc.add_noise(members[o], eta), mc.add_noise(members[o2], eta)
                coords = mc._plane_coords(first, second)
                for radius, include_inputs in ((1.0, True), (1.0 / np.cos(np.pi / k), False)):
                    gens = mc._polygon_generators(coords, k, radius, include_inputs)
                    yield (eta, o, o2, include_inputs), mc._joint_lp(coords, gens)


class TestAgainstHighs:
    def test_random_lps(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            lp = random_feasible_lp(rng)
            status, value = highs(lp)
            assert status == 0
            sol = solve(lp)
            assert sol.status == "optimal"
            assert sol.residual <= 1e-9
            assert sol.value == pytest.approx(value, abs=1e-7)

    def test_noncontextual_and_classical_lps(self):
        lps = [
            nc_bound.build_nc_lp(alpha, pattern)
            for alpha in (*nc_bound.TRIANGLE_VERTICES, (2 / 3, 2 / 3, 2 / 3), (0.8, 0.6, 0.6))
            for pattern in nc_bound.assignment_patterns()
        ]
        lps += [
            LinearProgram(
                classical_bound._objective_for_decodings(i, j)[0],
                classical_bound._EQ, classical_bound._EQ_RHS, np.zeros(6), np.ones(6),
            )
            for i in range(3)
            for j in range(3)
        ]
        for lp in lps:
            status, value = highs(lp)
            assert status == 0
            sol = solve(lp)
            assert sol.status == "optimal"
            assert sol.residual <= 1e-9
            assert sol.value == pytest.approx(value, abs=1e-9)

    def test_joint_measurability_feasibility(self):
        verdicts = set()
        for label, lp in joint_measurability_lps():
            status, _ = highs(lp)
            assert status in (0, 2), label
            sol = solve(lp)
            assert (sol.status == "optimal") == (status == 0), label
            if sol.status == "optimal":
                assert sol.residual <= 1e-9, label
            verdicts.add(sol.status)
        assert verdicts == {"optimal", "infeasible"}


class TestDump:
    def test_format_mentions_rows_and_bounds(self):
        lp = LinearProgram([1.0, -2.0], [[1.0, 1.0]], [1.0], [0, 0], [1, 1],
                           names=("u", "v"), row_names=("total",))
        text = format_lp(lp)
        assert "maximize" in text
        assert "total: u + v = 1" in text
        assert "0 <= u <= 1" in text
