"""Closed-form optimum, the alternating optimizer and the certified bracket."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trinegame import quantum_opt
from trinegame.cli import _parse_grid
from trinegame.game import (
    check_parity_concealment,
    derived_second_blochs,
    random_feasible_first_blochs,
    success_probability,
)
from trinegame.quantum_bound import certify
from trinegame.qubit_core import validate_povm
from trinegame.quantum_opt import (
    BRACKET_TOL,
    QUANTUM_OPTIMUM,
    AlphaTriple,
    analytic_optimal_strategy,
    derive_seed,
    optimize_quantum,
    quantum_curve,
    quantum_value,
    splitmix64,
    trine_preparation_value,
)

# Outcome weights at which the optimizer once returned POVMs with a
# completeness residual of about 6e-6 for most restart seeds.
CRASH_TRIPLE = (0.16065200877512686, 0.9699254132161326, 0.8694225780087406)


def _bracket(value):
    return value.upper - Fraction(value.lower)


def _assert_certified(res):
    assert validate_povm(res.strategy.povm.effects, tol=1e-9).passed
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

    def test_alphas_are_two_thirds(self):
        assert analytic_optimal_strategy().povm.alphas == pytest.approx((2 / 3,) * 3)


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
            assert validate_povm(res.strategy.povm.effects, tol=1e-8).passed
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


class TestQuantumValue:
    @pytest.mark.parametrize("alpha0", [0.92, 0.925])
    def test_search_replaces_trine_in_window(self, alpha0):
        alpha = AlphaTriple.symmetric(alpha0)
        trine = quantum_opt._trine_strategy(alpha)
        trine_value = success_probability(trine)
        trine_upper = certify(alpha, trine)
        assert trine_upper is None or trine_upper - Fraction(trine_value) > BRACKET_TOL
        value = quantum_value(alpha)
        assert value.source == "search"
        assert 0 <= _bracket(value) <= BRACKET_TOL
        if alpha0 == 0.925:
            assert value.lower >= trine_value + 1e-6

    def test_trine_bound_covers_better_search_at_window_edge(self):
        # At alpha0 = 0.915 the search beats the trine by a few 1e-9, within
        # the trine's certified bracket.
        alpha = AlphaTriple.symmetric(0.915)
        value = quantum_value(alpha)
        search = optimize_quantum(alpha)
        assert value.source == "trine"
        assert value.lower < search.value <= value.upper

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
        for idx, alpha0 in enumerate(_parse_grid("0:1:0.01")):
            value = quantum_value(AlphaTriple.symmetric(alpha0), seed=derive_seed(0, idx))
            assert value.upper is not None
            assert 0 <= _bracket(value) <= BRACKET_TOL, alpha0


class TestCurve:
    def test_single_point_symmetric(self):
        ((a0, val),) = quantum_curve([2 / 3], restarts=12, seed=0)
        assert val == pytest.approx(QUANTUM_OPTIMUM, abs=1e-4)

    def test_extreme_points(self):
        points = quantum_curve([0.0, 1.0], restarts=12, seed=0)
        for _, val in points:
            assert val == pytest.approx(7 / 12, abs=1e-4)

    def test_midpoint_bracketed(self):
        ((_, val),) = quantum_curve([0.5], restarts=12, seed=0)
        assert 7 / 12 - 1e-4 <= val <= 0.6221


class TestTrinePinnedValue:
    def test_matches_full_optimum_at_anchors(self):
        for alpha, ref in (((2 / 3,) * 3, QUANTUM_OPTIMUM), ((1, 0.5, 0.5), 7 / 12), ((0, 1, 1), 7 / 12)):
            assert trine_preparation_value(alpha) == pytest.approx(ref, abs=1e-9)

    def test_is_the_value_of_the_certified_trine_strategy(self):
        for alpha0 in (0.0, 0.5, 2 / 3, 1.0):
            value = quantum_value(AlphaTriple.symmetric(alpha0))
            assert value.source == "trine"
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
