"""Simplex solver against the brute-force vertex-enumeration oracle and,
where scipy is installed, against HiGHS."""

import numpy as np
import pytest

from trinegame import classical_bound, lp_engine, nc_bound
from trinegame import measurement_classicality as mc
from trinegame.lp_engine import LpDimensionError, LpFamily, LpNumericalError
from trinegame.povm_simulation import simulator_set
from trinegame.quantum_opt import AlphaTriple

import oracles


def random_feasible_lp(rng):
    """(objective, LpFamily) of a random box LP with a known interior point."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(0, min(n - 1, 4) + 1))
    lower = rng.uniform(-2, 0, n)
    upper = lower + rng.uniform(0.2, 3, n)
    a = rng.normal(size=(m, n))
    interior = rng.uniform(lower, upper)
    b = a @ interior if m else np.zeros(0)
    c = rng.normal(size=n)
    return c, LpFamily(a, b, lower, upper)


class TestBasics:
    def test_single_box_variable(self):
        sol = LpFamily(np.zeros((0, 1)), [], [0.0], [1.0]).maximize([1.0])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_equality_saturated(self):
        sol = LpFamily([[1.0, 1.0]], [1.0], [0, 0], [1, 1]).maximize([1.0, 1.0])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_has_phase1_certificate(self):
        sol = LpFamily([[1.0, 1.0]], [3.0], [0, 0], [1, 1]).maximize([1.0, 1.0])
        assert sol.status == "infeasible"
        assert sol.phase1_objective > 1e-9

    def test_unbounded_detected(self):
        sol = LpFamily(np.zeros((0, 1)), [], [0.0], [np.inf]).maximize([1.0])
        assert sol.status == "unbounded"

    def test_dimension_mismatch_raises(self):
        with pytest.raises(LpDimensionError, match="inconsistent sizes"):
            LpFamily([[1.0]], [1.0], [0, 0], [1, 1])
        with pytest.raises(LpDimensionError, match="objective size"):
            LpFamily([[1.0, 1.0]], [1.0], [0, 0], [1, 1]).maximize([1.0])

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            ([0.0, -np.inf], [1.0, 1.0], "finite"),
            ([0.0, np.nan], [1.0, 1.0], "finite"),
            ([0.0, 2.0], [1.0, 1.0], "exceeds"),
            ([0.0, 0.0], [1.0], "inconsistent sizes"),
        ],
    )
    def test_invalid_bounds_raise(self, lower, upper, message):
        with pytest.raises(LpDimensionError, match=message):
            LpFamily([[1.0, 1.0]], [1.0], lower, upper)


class TestAgainstVertexOracle:
    def test_100_random_lps(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            c, lp = random_feasible_lp(rng)
            sol = lp.maximize(c)
            assert sol.status == "optimal"
            ref = oracles.lp_best_vertex_value(c, lp.a, lp.b, lp.lower, lp.upper)
            assert sol.value == pytest.approx(ref, abs=1e-9)

    def test_reported_value_matches_point(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            c, lp = random_feasible_lp(rng)
            sol = lp.maximize(c)
            assert sol.value == pytest.approx(float(c @ sol.x), abs=1e-12)
            assert sol.residual <= 1e-9
            assert np.all(sol.x >= lp.lower - 1e-9)
            assert np.all(sol.x <= lp.upper + 1e-9)


class TestFamilyReuse:
    def test_family_matches_fresh_solves(self):
        rng = np.random.default_rng(5)
        _, family = random_feasible_lp(rng)
        for _ in range(10):
            c = rng.normal(size=family.lower.size)
            fresh = LpFamily(family.a, family.b, family.lower, family.upper).maximize(c)
            warm = family.maximize(c)
            assert warm.value == pytest.approx(fresh.value, abs=1e-9)


class TestNumericalGuards:
    def test_iteration_limit_is_typed(self, monkeypatch):
        monkeypatch.setattr(lp_engine, "_MAX_ITERS", 1)
        with pytest.raises(LpNumericalError, match="iteration limit"):
            LpFamily([[1.0, 1.0]], [1.0], [0, 0], [1, 1]).maximize([1.0, 1.0])

    def test_point_off_the_constraints_is_never_optimal(self, monkeypatch):
        point = lp_engine._Dictionary.point
        monkeypatch.setattr(lp_engine._Dictionary, "point", lambda self: point(self) - 1e-6)
        with pytest.raises(LpNumericalError, match="equality constraints"):
            LpFamily([[1.0, 1.0]], [1.0], [0, 0], [1, 1]).maximize([1.0, 1.0])


def recorded_solve_set(monkeypatch) -> list:
    """Every LpSolution of 203 solves, in call order: the inscribed- and
    circumscribed-cone LPs and the noise LP of each of the ten five-outcome
    simulator pairs at k = 8, 16 and 64 (90), ``nc_value`` on the 101-point
    alpha1 = alpha2 slice of ``curve``, ``nc_global_max`` (3) and
    ``optimize_classical`` (9).  The NC family is built afresh, so its
    phase 1 runs here too."""
    solutions = []
    maximize = LpFamily.maximize

    def recording_maximize(family, objective):
        solutions.append(maximize(family, objective))
        return solutions[-1]

    members = [m.povm for m in simulator_set(5).members]
    with monkeypatch.context() as patch:
        patch.setattr(LpFamily, "maximize", recording_maximize)
        patch.setattr(nc_bound, "_FAMILY", None)
        for k in (8, 16, 64):
            for o in range(5):
                for o2 in range(o + 1, 5):
                    coords = mc._plane_coords(members[o], members[o2])
                    for circumscribed in (False, True):
                        a = mc._joint_lp(mc._polygon_generators(coords, k, circumscribed))
                        zero = np.zeros(a.shape[1])
                        LpFamily(a, coords.reshape(-1), zero, np.full(zero.size, np.inf)).maximize(zero)
                    mc.noise_compatibility_threshold(members[o], members[o2], k)
        for i in range(101):
            nc_bound.nc_value(AlphaTriple.symmetric(round(i * 0.01, 12)))
        nc_bound.nc_global_max()
        classical_bound.optimize_classical()
    return solutions


class TestAgainstSimplexOracle:
    def test_solves_match_the_index_list_step_bit_for_bit(self, monkeypatch):
        # tests/oracles.py keeps the simplex step with index-list pricing and
        # np.outer elimination; the arithmetic is the same, so every solve
        # must be too, down to the bytes of x and the pivot counts
        fast = recorded_solve_set(monkeypatch)
        reference = self.with_oracle_step(monkeypatch, recorded_solve_set, monkeypatch)
        assert len(fast) == 203
        assert {s.status for s in fast} == {"optimal", "infeasible"}
        self.assert_bit_identical(fast, reference)

    def test_bland_picks_match_the_oracle_bit_for_bit(self, monkeypatch):
        # Bland's rule from the first step, on LPs that stay accurate under
        # it: 100 random box LPs and the NC LP on the 101-point slice
        def solves():
            rng = np.random.default_rng(123)
            out = [lp.maximize(c) for c, lp in (random_feasible_lp(rng) for _ in range(100))]
            family = LpFamily(nc_bound.EQ_MATRIX, nc_bound.EQ_RHS, np.zeros(nc_bound.N_VARS), np.ones(nc_bound.N_VARS))
            for i in range(101):
                out.append(family.maximize(nc_bound.objective_vector(AlphaTriple.symmetric(round(i * 0.01, 12)))))
            return out

        monkeypatch.setattr(lp_engine, "DEGENERATE_RUN", 0)
        fast = solves()
        assert sum(s.phase2_pivots for s in fast) > 0
        self.assert_bit_identical(fast, self.with_oracle_step(monkeypatch, solves))

    @staticmethod
    def with_oracle_step(monkeypatch, solves, *args):
        with monkeypatch.context() as patch:
            patch.setattr(lp_engine._Dictionary, "run", oracles.simplex_run_by_index_lists)
            patch.setattr(lp_engine._Dictionary, "_pivot", oracles.pivot_by_outer)
            return solves(*args)

    @staticmethod
    def assert_bit_identical(fast, reference):
        assert len(fast) == len(reference)
        for idx, (got, want) in enumerate(zip(fast, reference)):
            assert (got.status, got.phase1_pivots, got.phase2_pivots) == (
                want.status, want.phase1_pivots, want.phase2_pivots
            ), idx
            assert repr(got.value) == repr(want.value), idx
            assert got.phase1_objective == want.phase1_objective, idx
            assert (got.x is None and want.x is None) or got.x.tobytes() == want.x.tobytes(), idx


class TestPivotCounts:
    def test_family_shares_phase1_count(self):
        rng = np.random.default_rng(5)
        c, family = random_feasible_lp(rng)
        while family.a.shape[0] == 0:
            c, family = random_feasible_lp(rng)
        sols = [family.maximize(rng.normal(size=c.size)) for _ in range(5)]
        assert family.phase1_pivots >= 1
        assert {s.phase1_pivots for s in sols} == {family.phase1_pivots}
        fresh = LpFamily(family.a, family.b, family.lower, family.upper)
        assert fresh.maximize(c).phase1_pivots == family.phase1_pivots

    def test_box_only_problem_needs_no_pivots(self):
        sol = LpFamily(np.zeros((0, 2)), [], [0, 0], [1, 1]).maximize([1.0, -1.0])
        assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 0)
        assert sol.value == pytest.approx(1.0, abs=1e-12)


def highs(c, lp: LpFamily):
    """(status, value) from scipy's HiGHS: status 0 optimal, 2 infeasible, 3 unbounded."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    upper = [None if np.isinf(u) else u for u in lp.upper]
    has_rows = lp.a.shape[0] > 0
    res = linprog(
        -np.asarray(c, dtype=float),
        A_eq=lp.a if has_rows else None,
        b_eq=lp.b if has_rows else None,
        bounds=list(zip(lp.lower, upper)),
        method="highs",
    )
    return res.status, (-res.fun if res.status == 0 else None)


def joint_measurability_lps():
    """Inner and outer JM LPs of all ten five-outcome simulator pairs at k = 64,
    at noise levels on both sides of both thresholds, as (label, LpFamily);
    their objective is zero."""
    members = [m.povm for m in simulator_set(5).members]
    k = 64
    for eta in (0.78, 0.7804, 0.8125, 0.813):
        for o in range(5):
            for o2 in range(o + 1, 5):
                first, second = mc.add_noise(members[o], eta), mc.add_noise(members[o2], eta)
                coords = mc._plane_coords(first, second)
                for circumscribed in (False, True):
                    a = mc._joint_lp(mc._polygon_generators(coords, k, circumscribed))
                    n = a.shape[1]
                    yield (eta, o, o2, circumscribed), LpFamily(a, coords.reshape(-1), np.zeros(n), np.full(n, np.inf))


class TestAgainstHighs:
    def test_random_lps(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            c, lp = random_feasible_lp(rng)
            status, value = highs(c, lp)
            assert status == 0
            sol = lp.maximize(c)
            assert sol.status == "optimal"
            assert sol.residual <= 1e-9
            assert sol.value == pytest.approx(value, abs=1e-7)

    def test_noncontextual_and_classical_lps(self):
        lps = [
            (
                nc_bound.objective_vector(alpha, pattern),
                LpFamily(nc_bound.EQ_MATRIX, nc_bound.EQ_RHS, np.zeros(nc_bound.N_VARS), np.ones(nc_bound.N_VARS)),
            )
            for alpha in (*nc_bound.TRIANGLE_VERTICES, (2 / 3, 2 / 3, 2 / 3), (0.8, 0.6, 0.6))
            for pattern in nc_bound.assignment_patterns()
        ]
        lps += [
            (
                classical_bound._objective_for_decodings(i, j)[0],
                LpFamily(classical_bound._EQ, classical_bound._EQ_RHS, np.zeros(6), np.ones(6)),
            )
            for i in range(3)
            for j in range(3)
        ]
        for c, lp in lps:
            status, value = highs(c, lp)
            assert status == 0
            sol = lp.maximize(c)
            assert sol.status == "optimal"
            assert sol.residual <= 1e-9
            assert sol.value == pytest.approx(value, abs=1e-9)

    def test_joint_measurability_feasibility(self):
        verdicts = set()
        for label, lp in joint_measurability_lps():
            zero = np.zeros(lp.lower.size)
            status, _ = highs(zero, lp)
            assert status in (0, 2), label
            sol = lp.maximize(zero)
            assert (sol.status == "optimal") == (status == 0), label
            if sol.status == "optimal":
                assert sol.residual <= 1e-9, label
            verdicts.add(sol.status)
        assert verdicts == {"optimal", "infeasible"}

