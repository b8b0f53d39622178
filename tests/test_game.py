"""Game payoff, hiding constraints, and preparation completion."""

import numpy as np
import pytest

from trinegame.game import (
    shrink_to_feasible,
    GameStrategy,
    InfeasiblePreparationError,
    check_parity_concealment,
    complete_preparations,
    derived_second_blochs,
    free_blochs_from_derived,
    project_free_blochs,
    random_feasible_first_blochs,
    success_probability,
)
from trinegame.qubit_core import (
    DensityState,
    Effect,
    Povm,
    xz_direction,
)
from trinegame.quantum_opt import QUANTUM_OPTIMUM, analytic_optimal_strategy

import oracles

TRINE = [DensityState(xz_direction(2 * np.pi * x / 3)) for x in range(3)]


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestSuccessProbability:
    def test_analytic_optimal_strategy_value(self):
        assert success_probability(analytic_optimal_strategy()) == pytest.approx(
            QUANTUM_OPTIMUM, abs=1e-12
        )

    def test_outcome_independent_povm_gives_one_third(self):
        povm = Povm(tuple(Effect(1 / 3, (0, 0, 0)) for _ in range(3)))
        preps = complete_preparations(TRINE)
        assert success_probability(GameStrategy(preps, povm)) == pytest.approx(1 / 3, abs=1e-14)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        base = analytic_optimal_strategy()
        for _ in range(10):
            rot = random_rotation(rng)
            preps = tuple(DensityState(rot @ p.bloch) for p in base.preps)
            effects = tuple(Effect(e.weight, rot @ e.vec) for e in base.povm.effects)
            rotated = GameStrategy(preps, Povm(effects))
            assert success_probability(rotated) == pytest.approx(
                success_probability(base), abs=1e-12
            )


class TestParityConcealment:
    def test_trine_with_antipodal_partners_passes(self):
        preps = complete_preparations(TRINE)
        report = check_parity_concealment(preps)
        assert report.passed
        assert report.mixture_residual < 1e-15
        assert report.partition_residual < 1e-15

    def test_six_maximally_mixed_pass(self):
        preps = tuple(DensityState((0, 0, 0)) for _ in range(6))
        assert check_parity_concealment(preps).passed

    def test_corrupted_first_state_fails(self):
        preps = list(complete_preparations(TRINE))
        preps[0] = DensityState((1, 0, 0))
        report = check_parity_concealment(tuple(preps))
        assert not report.passed
        # oracle: residual of the a-mixture constraint by direct matrix summation
        mix0 = sum(oracles.state_matrix(preps[2 * x]) for x in range(3)) / 3
        mix1 = sum(oracles.state_matrix(preps[2 * x + 1]) for x in range(3)) / 3
        assert np.max(np.abs(mix0 - mix1)) > 1e-2
        assert report.mixture_residual > 1e-2


class TestCompletePreparations:
    def test_trine_yields_antipodal_partners(self):
        preps = complete_preparations(TRINE)
        for x in range(3):
            partner = preps[2 * x + 1]
            assert np.allclose(partner.bloch, -TRINE[(x + 2) % 3].bloch, atol=1e-14)

    def test_maximally_mixed_fixed_point(self):
        mixed = [DensityState((0, 0, 0))] * 3
        preps = complete_preparations(mixed)
        assert all(np.allclose(p.bloch, 0, atol=1e-15) for p in preps)

    def test_three_pole_states(self):
        # derived Bloch vectors: (2/3)*3*(0,0,1) - (0,0,1) = (0,0,1)
        pole = [DensityState((0, 0, 1))] * 3
        preps = complete_preparations(pole)
        assert all(np.allclose(p.bloch, (0, 0, 1), atol=1e-14) for p in preps)

    def test_infeasible_input_raises_with_index(self):
        states = [DensityState((0, 0, 1))] * 2 + [DensityState((0, 0, -1))]
        with pytest.raises(InfeasiblePreparationError, match=r"x="):
            complete_preparations(states)

    def test_completion_always_passes_concealment(self):
        rng = np.random.default_rng(11)
        u = random_feasible_first_blochs(rng, 200)
        for k in range(200):
            preps = complete_preparations([DensityState(u[k, x]) for x in range(3)])
            report = check_parity_concealment(preps)
            assert report.mixture_residual <= 1e-14
            assert report.partition_residual <= 1e-14


class TestDerivedBlochMap:
    def test_map_is_orthogonal_and_involutive_with_inverse(self):
        m9 = derived_second_blochs(np.eye(9).reshape(9, 3, 3)).reshape(9, 9)
        assert np.allclose(m9 @ m9.T, np.eye(9), atol=1e-14)
        rng = np.random.default_rng(0)
        u = rng.normal(size=(10, 3, 3))
        assert np.allclose(free_blochs_from_derived(derived_second_blochs(u)), u, atol=1e-14)

    def test_projection_plus_shrink_is_feasible(self):
        rng = np.random.default_rng(9)
        raw = project_free_blochs(rng.uniform(-2, 2, size=(500, 3, 3)), iters=60)
        # Dykstra is approximate; the exact finisher is the global shrink
        u = shrink_to_feasible(raw)
        m = derived_second_blochs(u)
        assert np.linalg.norm(u, axis=2).max() <= 1 + 1e-15
        assert np.linalg.norm(m, axis=2).max() <= 1 + 1e-15
        # and the shrink is a small correction, not doing the projection's job
        assert np.linalg.norm(raw - u, axis=2).max() < 5e-3
