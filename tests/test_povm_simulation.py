"""Equatorial POVM simulation set and extremality certificates."""

import numpy as np
import pytest

from trinegame.povm_simulation import (
    equatorial_povm,
    is_extremal_rank_one,
    mixed_effect_coords,
    simulation_coefficients,
    simulator_set,
    verify_simulation,
)
from trinegame.qubit_core import (
    Effect,
    Povm,
    povm_from_weighted_projectors,
    xz_direction,
)

import oracles


class TestEquatorialPovm:
    def test_n3_is_trine(self):
        trine = equatorial_povm(3)
        assert trine.weight == pytest.approx(2 / 3)
        assert all(e.weight == pytest.approx(1 / 3) for e in trine.povm.effects)
        assert oracles.is_povm(trine.povm.effects)

    def test_n5_directions(self):
        five = equatorial_povm(5)
        for k, effect in enumerate(five.povm.effects):
            direction = effect.vec / np.linalg.norm(effect.vec)
            assert np.allclose(direction, xz_direction(2 * np.pi * k / 5), atol=1e-14)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            equatorial_povm(4)
        with pytest.raises(ValueError):
            equatorial_povm(1)


class TestSimulatorSet:
    def test_n3_members_equal_trine(self):
        sim = simulator_set(3)
        assert sim.h0 == pytest.approx(2 / 3, abs=1e-15)
        assert sim.h1 == pytest.approx(2 / 3, abs=1e-15)
        trine_coords = {tuple(np.round([e.weight, *e.vec], 12)) for e in equatorial_povm(3).povm.effects}
        for member in sim.members:
            coords = {tuple(np.round([e.weight, *e.vec], 12)) for e in member.povm.effects}
            assert coords == trine_coords

    def test_n5_coefficients(self):
        h0, h1 = simulation_coefficients(5)
        assert h0 == pytest.approx(0.8944271910, abs=1e-9)
        assert h1 == pytest.approx(0.5527864045, abs=1e-9)

    def test_coefficient_sum_identity(self):
        for n in (3, 5, 7, 9, 11):
            h0, h1 = simulation_coefficients(n)
            assert h0 + 2 * h1 == pytest.approx(2.0, abs=1e-14)

    def test_members_are_valid_povms(self):
        for n in (3, 5, 7, 9):
            for member in simulator_set(n).members:
                assert oracles.is_povm(member.povm.effects)


class TestSimulationIdentity:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_mixture_reproduces_parent(self, n):
        report = verify_simulation(n, seed=1)
        assert report.passed
        assert report.element_residual < 1e-12
        assert report.statistical_residual < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_residuals_match_the_per_state_loop_bit_for_bit(self, n):
        for seed in range(50):
            report = verify_simulation(n, seed=seed)
            expected = oracles.simulation_residuals_by_loop(n, seed)
            assert (report.element_residual, report.statistical_residual) == expected, seed

    def test_member_table_lists_the_member_effects_in_order(self):
        sim = simulator_set(7)
        effects = [e for member in sim.members for e in member.povm.effects]
        assert sim.labels.tolist() == [label for member in sim.members for label in member.labels]
        assert sim.weights.tolist() == [e.weight for e in effects]
        assert np.array_equal(sim.vecs, [e.vec for e in effects])

    def test_povm_stacks_are_read_only_and_feed_the_member_table(self):
        for n in (3, 5, 7, 11):
            sim = simulator_set(n)
            for povm in [equatorial_povm(n).povm] + [member.povm for member in sim.members]:
                assert povm.weights.tolist() == [e.weight for e in povm.effects]
                assert np.array_equal(povm.vecs, [e.vec for e in povm.effects])
                assert povm.vecs.shape == (len(povm), 3)
                for stack in (povm.weights, povm.vecs):
                    with pytest.raises(ValueError, match="read-only"):
                        stack[0] = 0.0
            assert np.array_equal(sim.weights, np.concatenate([m.povm.weights for m in sim.members]))
            assert np.array_equal(sim.vecs, np.concatenate([m.povm.vecs for m in sim.members]))

    def test_mixture_matches_complex_matrix_oracle(self):
        sim = simulator_set(5)
        mixed = mixed_effect_coords(sim)
        for k, effect in enumerate(equatorial_povm(5).povm.effects):
            target = oracles.effect_matrix(effect)
            rebuilt = oracles.operator_matrix(mixed[k, 0], mixed[k, 1:])
            assert np.max(np.abs(rebuilt - target)) < 1e-12


class TestExtremality:
    def test_trine_extremal(self):
        cert = is_extremal_rank_one(equatorial_povm(3).povm)
        assert cert.applicable and cert.extremal
        assert cert.gram_rank == 3

    def test_five_outcome_parent_not_extremal(self):
        cert = is_extremal_rank_one(equatorial_povm(5).povm)
        assert cert.applicable and not cert.extremal
        assert cert.gram_rank == 3

    def test_all_five_members_extremal(self):
        for member in simulator_set(5).members:
            assert bool(is_extremal_rank_one(member.povm))

    def test_projective_pair_extremal(self):
        pair = povm_from_weighted_projectors([1, 1], [xz_direction(0.4), -xz_direction(0.4)])
        cert = is_extremal_rank_one(pair)
        assert cert.extremal and cert.gram_rank == 2

    def test_not_applicable_for_full_rank_effects(self):
        fuzzy = Povm((Effect(0.5, (0, 0, 0.2)), Effect(0.5, (0, 0, -0.2))))
        cert = is_extremal_rank_one(fuzzy)
        assert not cert.applicable
        assert cert.extremal is None

    def test_parent_extremal_only_for_n3(self):
        for n in (3, 5, 7, 9, 11):
            assert bool(is_extremal_rank_one(equatorial_povm(n).povm)) == (n == 3)
