"""Closed-form optimum, the alternating optimizer and the certified bracket."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trinegame.cli import _parse_grid
from trinegame.game import (
    check_parity_concealment,
    derived_second_blochs,
    random_feasible_first_blochs,
    success_probability,
)
from trinegame.quantum_opt import (
    BRACKET_TOL,
    QUANTUM_OPTIMUM,
    AlphaTriple,
    analytic_optimal_strategy,
    derive_seed,
    optimize_quantum,
    quantum_value,
    splitmix64,
    trine_preparation_value,
)

import oracles

# Outcome weights at which the optimizer once returned POVMs with a
# completeness residual of about 6e-6 for most restart seeds.
CRASH_TRIPLE = (0.16065200877512686, 0.9699254132161326, 0.8694225780087406)


def _bracket(value):
    return value.upper - Fraction(value.lower)


def _assert_certified(res):
    assert oracles.is_povm(res.strategy.povm.effects)
    assert check_parity_concealment(res.strategy.preps).passed
    assert res.value == success_probability(res.strategy)


class TestAlphaTriple:
    def test_symmetric_builder(self):
        assert AlphaTriple.symmetric(1.0).alpha == pytest.approx((1.0, 0.5, 0.5))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            AlphaTriple((0.5, 0.5, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AlphaTriple((1.2, 0.4, 0.4))


class TestAnalyticStrategy:
    def test_value(self):
        assert success_probability(analytic_optimal_strategy()) == pytest.approx(
            QUANTUM_OPTIMUM, abs=1e-12
        )

    def test_concealment_holds(self):
        assert check_parity_concealment(analytic_optimal_strategy().preps).passed


class TestOptimizer:
    def test_symmetric_anchor(self):
        res = optimize_quantum((2 / 3, 2 / 3, 2 / 3), restarts=24, seed=0)
        assert res.value == pytest.approx(QUANTUM_OPTIMUM, abs=1e-4)
        assert res.value == pytest.approx(success_probability(res.strategy), abs=1e-10)

    def test_degenerate_anchors(self):
        assert optimize_quantum((1, 0.5, 0.5), restarts=24, seed=0).value == pytest.approx(
            7 / 12, abs=1e-4
        )
        assert optimize_quantum((0, 1, 1), restarts=24, seed=0).value == pytest.approx(
            7 / 12, abs=1e-4
        )

    def test_strategies_are_certified(self):
        for alpha in ((2 / 3, 2 / 3, 2 / 3), (0.8, 0.6, 0.6), (0.3, 0.9, 0.8)):
            res = optimize_quantum(alpha, restarts=12, seed=1)
            assert oracles.is_povm(res.strategy.povm.effects, tol=1e-8)
            report = check_parity_concealment(res.strategy.preps, tol=1e-8)
            assert report.passed

    def test_never_exceeds_lemma_ceiling(self):
        for alpha0 in (0.0, 0.25, 0.5, 2 / 3, 0.8, 1.0):
            res = optimize_quantum(AlphaTriple.symmetric(alpha0), restarts=8, seed=2)
            assert res.value <= QUANTUM_OPTIMUM + 1e-6

    def test_doubling_restarts_is_monotone(self):
        lo = optimize_quantum((0.8, 0.6, 0.6), restarts=8, seed=3).value
        hi = optimize_quantum((0.8, 0.6, 0.6), restarts=16, seed=3).value
        assert hi >= lo - 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = optimize_quantum((0.7, 0.65, 0.65), restarts=6, seed=9)
        b = optimize_quantum((0.7, 0.65, 0.65), restarts=6, seed=9)
        assert a.value == b.value
        assert np.array_equal(
            np.stack([p.bloch for p in a.strategy.preps]),
            np.stack([p.bloch for p in b.strategy.preps]),
        )

    def test_trine_measurement_recovered_at_symmetric_point(self):
        res = optimize_quantum((2 / 3, 2 / 3, 2 / 3), restarts=16, seed=0)
        vecs = np.stack([e.vec / e.weight for e in res.strategy.povm.effects])
        norms = np.linalg.norm(vecs, axis=1)
        assert np.all(np.abs(norms - 1) < 1e-4)
        units = vecs / norms[:, None]
        for i in range(3):
            for j in range(i + 1, 3):
                angle = np.degrees(np.arccos(np.clip(units[i] @ units[j], -1, 1)))
                assert angle == pytest.approx(120.0, abs=0.1)


class TestWholeTriangle:
    @pytest.mark.parametrize("seed", [0, 1, 8])
    def test_crash_triple_gives_certified_strategy(self, seed):
        res = optimize_quantum(CRASH_TRIPLE, restarts=50, seed=seed)
        _assert_certified(res)
        assert res.value == pytest.approx(trine_preparation_value(CRASH_TRIPLE), abs=1e-6)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_every_weight_triple_gives_certified_strategy(self, u, v, seed):
        lo, hi = sorted((u, v))
        # alpha = 1 - beta with beta = (lo, hi - lo, 1 - hi) on the unit simplex
        _assert_certified(optimize_quantum((1.0 - lo, 1.0 - hi + lo, hi), restarts=3, seed=seed))


# Best value of the restart search at the slice points where the trine
# strategy went uncertified under an iterative measurement solver (at 0.915
# the search beat it by 3.3e-9; 50 restarts, seed 0).
SEARCH_VALUES = {0.915: 0.604323540019515, 0.92: 0.6032298512257616, 0.925: 0.6020670245737604}


class TestQuantumValue:
    @pytest.mark.parametrize("alpha0", sorted(SEARCH_VALUES))
    def test_trine_is_certified_in_former_search_window(self, alpha0):
        value = quantum_value(AlphaTriple.symmetric(alpha0))
        assert 0 <= _bracket(value) <= BRACKET_TOL
        assert value.lower >= SEARCH_VALUES[alpha0]

    def test_matches_closed_form_on_sixteenth_lattice(self):
        n = 16
        for i in range(n + 1):
            for j in range(n + 1 - i):
                alpha = (1 - i / n, 1 - j / n, (i + j) / n)
                assert quantum_value(alpha).lower == pytest.approx(
                    oracles.quantum_value_closed_form(alpha), abs=1e-9
                ), alpha

    def test_slice_kink_at_four_root_three_minus_six(self):
        # on the slice the median reaches a target where alpha0^2 = 3 alpha1^2
        kink = 4 * np.sqrt(3) - 6
        for step in range(-5, 6):
            alpha0 = kink + step * 1e-4
            rest = 1 - alpha0 / 2
            assert np.sign(round(alpha0**2 - 3 * rest**2, 12)) == np.sign(step)
            lower = quantum_value(AlphaTriple.symmetric(alpha0)).lower
            assert lower == pytest.approx(oracles.quantum_value_closed_form((alpha0, rest, rest)), abs=1e-9)
            if step >= 0:
                assert lower == pytest.approx(5 / 6 - alpha0 / 4, abs=1e-9)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.0, 0.0)
    @example(0.0, 1.0)
    @example(1.0, 1.0)
    def test_every_weight_triple_is_bracketed(self, u, v):
        lo, hi = sorted((u, v))
        alpha = (1.0 - lo, 1.0 - hi + lo, hi)
        value = quantum_value(alpha)
        assert isinstance(value.upper, Fraction)
        assert 0 <= _bracket(value) <= BRACKET_TOL
        assert success_probability(value.strategy) == value.lower
        assert check_parity_concealment(value.strategy.preps).passed

    def test_default_curve_grid_is_bracketed(self):
        for alpha0 in _parse_grid("0:1:0.01"):
            value = quantum_value(AlphaTriple.symmetric(alpha0))
            assert value.upper is not None
            assert 0 <= _bracket(value) <= BRACKET_TOL, alpha0


def _curve_p_q(rows) -> list[float]:
    """p_q of each ``curve`` row, checked to print quantum_value(...).lower."""
    for alpha0, p_q, _ in rows:
        assert p_q == f"{quantum_value(AlphaTriple.symmetric(float(alpha0))).lower:.6f}"
    return [float(p_q) for _, p_q, _ in rows]


class TestCurve:
    def test_single_point_symmetric(self, curve_rows):
        (val,) = _curve_p_q(curve_rows("--alpha0", "0.6666666666666666"))
        assert val == pytest.approx(QUANTUM_OPTIMUM, abs=1e-6)

    def test_extreme_points(self, curve_rows):
        points = _curve_p_q(curve_rows("--grid", "0:1:1"))
        assert len(points) == 2
        for val in points:
            assert val == pytest.approx(7 / 12, abs=1e-6)

    def test_midpoint_bracketed(self, curve_rows):
        (val,) = _curve_p_q(curve_rows("--alpha0", "0.5"))
        assert 7 / 12 - 1e-4 <= val <= 0.6221


class TestTrinePinnedValue:
    def test_matches_full_optimum_at_anchors(self):
        for alpha, ref in (((2 / 3,) * 3, QUANTUM_OPTIMUM), ((1, 0.5, 0.5), 7 / 12), ((0, 1, 1), 7 / 12)):
            assert trine_preparation_value(alpha) == pytest.approx(ref, abs=1e-9)

    def test_is_the_value_of_the_certified_trine_strategy(self):
        for alpha0 in (0.0, 0.5, 2 / 3, 1.0):
            value = quantum_value(AlphaTriple.symmetric(alpha0))
            assert value.lower == trine_preparation_value(AlphaTriple.symmetric(alpha0))

    def test_pinned_preparations_match_full_optimum_on_slice(self):
        # freeing the preparations does not beat the trine on this slice
        for alpha0 in (0.2, 0.5, 0.8, 0.9):
            alpha = AlphaTriple.symmetric(alpha0)
            full = optimize_quantum(alpha, restarts=24, seed=0).value
            pinned = trine_preparation_value(alpha)
            assert full == pytest.approx(pinned, abs=5e-8)


class TestRandomCertifiedStrategiesProperty:
    def test_ten_thousand_samples_respect_ceiling(self):
        rng = np.random.default_rng(2718)
        n = 10_000
        u = random_feasible_first_blochs(rng, n)
        m = derived_second_blochs(u)
        # random POVMs: Dirichlet weights, zero-sum clipped Bloch parts
        w = rng.dirichlet(np.ones(3), size=n)
        radii = np.minimum(w, 1 - w)
        v = rng.normal(size=(n, 3, 3))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        v *= (radii * rng.uniform(size=(n, 3)))[:, :, None]
        for _ in range(80):
            v -= v.mean(axis=1, keepdims=True)
            norms = np.linalg.norm(v, axis=2)
            scale = np.minimum(1.0, radii / np.maximum(norms, 1e-15))
            v *= scale[:, :, None]
        v -= v.mean(axis=1, keepdims=True)
        over = (np.linalg.norm(v, axis=2) / np.maximum(radii, 1e-12)).max(axis=1)
        v /= np.maximum(over, 1.0)[:, None, None]

        # success = (1/6) sum_b [2 w_b + vec_b . (u_b + m_{(b+2)%3})]
        pair = u + m[:, (2, 0, 1), :]
        values = (2 * w.sum(axis=1) + np.einsum("nbk,nbk->n", v, pair)) / 6.0
        assert values.max() <= QUANTUM_OPTIMUM + 1e-9
        # sanity: the sampler reaches nontrivial values
        assert values.max() > 0.40


class TestSeedScrambler:
    def test_splitmix_known_vector(self):
        # first output of the reference SplitMix64 stream seeded at 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
