"""c-bit bound: strategy validation, exact optimum, sampling properties."""

import numpy as np
import pytest

from trinegame.classical_bound import (
    CLASSICAL_OPTIMUM,
    ClassicalStrategy,
    EncodingConstraintError,
    classical_value,
    optimize_classical,
)

import oracles


def game_simulation_value(strategy) -> float:
    """Independent oracle: play the game directly from the table."""
    total = 0.0
    for x in range(3):
        for a in range(2):
            b = (x + a) % 3
            total += strategy.p[x, a] * strategy.s[b] + (1 - strategy.p[x, a]) * strategy.r[b]
    return total / 6.0


class TestClassicalValue:
    def test_constant_message_gives_one_third(self):
        st = ClassicalStrategy(np.ones((3, 2)), (1, 0, 0), (0.2, 0.3, 0.5))
        assert classical_value(st) == pytest.approx(1 / 3, abs=1e-15)

    def test_paper_table_strategy_reaches_optimum(self):
        # p ordered (x, a): rows x, columns a
        p = np.array([[1.0, 1.0], [0.5, 0.0], [0.0, 0.5]])
        st = ClassicalStrategy(p, (1, 0, 0), (0, 0, 1))
        assert st.kappa == pytest.approx(0.5)
        assert classical_value(st) == pytest.approx(7 / 12, abs=1e-15)
        assert game_simulation_value(st) == pytest.approx(7 / 12, abs=1e-15)

    def test_uninformative_half_encoding(self):
        st = ClassicalStrategy(np.full((3, 2), 0.5), (0.5, 0.25, 0.25), (0.1, 0.1, 0.8))
        assert classical_value(st) == pytest.approx(1 / 3, abs=1e-15)

    def test_identical_decodings_collapse_to_one_third(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            st = oracles.random_feasible_strategy(rng)
            same = ClassicalStrategy(st.p, st.s, st.s)
            assert classical_value(same) == pytest.approx(1 / 3, abs=1e-12)

    def test_constraint_violation_raises_with_residuals(self):
        p = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EncodingConstraintError, match="residual"):
            ClassicalStrategy(p, (1, 0, 0), (1, 0, 0))

    @pytest.mark.parametrize("field", ["p", "s", "r"])
    def test_nan_entries_are_rejected(self, field):
        # NaN passes every "x < bound" test, so each check must fail it
        table = {"p": np.full((3, 2), 0.5), "s": np.array([1.0, 0.0, 0.0]), "r": np.array([0.0, 0.0, 1.0])}
        table[field][0] = np.nan
        error = EncodingConstraintError if field == "p" else ValueError
        with pytest.raises(error):
            ClassicalStrategy(table["p"], table["s"], table["r"])

    def test_matches_game_simulation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            st = oracles.random_feasible_strategy(rng)
            assert classical_value(st) == pytest.approx(game_simulation_value(st), abs=1e-13)


class TestOptimum:
    def test_value_is_seven_twelfths(self):
        value, witness = optimize_classical()
        assert value == pytest.approx(CLASSICAL_OPTIMUM, abs=1e-9)
        assert classical_value(witness) == pytest.approx(value, abs=1e-12)

    def test_relabeling_symmetry(self):
        # shifting x -> x+1 and decodings by one leaves the optimum in place
        value, witness = optimize_classical()
        p = witness.p[[2, 0, 1], :]
        s = witness.s[[2, 0, 1]]
        r = witness.r[[2, 0, 1]]
        shifted = ClassicalStrategy(p, s, r)
        assert classical_value(shifted) == pytest.approx(value, abs=1e-12)

    def test_deterministic_encodings_are_trivial(self):
        found = oracles.deterministic_encodings()
        assert len(found) == 2
        assert any(np.all(p == 0) for p in found)
        assert any(np.all(p == 1) for p in found)

    def test_ten_thousand_random_strategies_respect_bound(self):
        rng = np.random.default_rng(99)
        values = [classical_value(oracles.random_feasible_strategy(rng)) for _ in range(10_000)]
        assert max(values) <= CLASSICAL_OPTIMUM + 1e-9
