"""Pauli-coordinate algebra against the complex-matrix oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from trinegame.qubit_core import (
    DEFAULT_TOL,
    DensityState,
    Effect,
    InvalidEffectError,
    InvalidPovmError,
    InvalidStateError,
    PauliOperator,
    Povm,
    bloch_norms,
    born_probability,
    povm_from_weighted_projectors,
    projector_effect,
    random_povm,
    random_povms,
    random_state,
    validate_povms,
    xz_direction,
    zero_sum_alignment,
)

import oracles

TRINE_DIRS = [xz_direction(2 * np.pi * b / 3) for b in range(3)]


class TestPauliOperator:
    def test_eigenvalues_match_complex_oracle_on_1000_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            scalar = rng.normal()
            vec = rng.normal(size=3)
            mine = PauliOperator(scalar, vec).eigenvalues()
            ref = oracles.eigenvalues(scalar, vec)
            assert np.allclose(sorted(mine), ref, atol=1e-10)

    def test_trace_is_twice_scalar(self):
        op = PauliOperator(0.37, (0.1, -0.2, 0.5))
        assert op.trace == pytest.approx(2 * 0.37, abs=0)
        assert op.trace == pytest.approx(np.real(np.trace(oracles.operator_matrix(0.37, (0.1, -0.2, 0.5)))))


class TestStateFromBloch:
    def test_maximally_mixed(self):
        state = DensityState((0, 0, 0))
        assert state.eigenvalues() == pytest.approx((0.5, 0.5))

    def test_pure_pole(self):
        state = DensityState((0, 0, 1))
        assert sorted(state.eigenvalues()) == pytest.approx([0.0, 1.0])
        assert state.is_pure()

    def test_trine_x1_is_pure(self):
        # Bloch angle 2 pi / 3: (sqrt(3)/2, 0, -1/2)
        state = DensityState((np.sqrt(3) / 2, 0, -0.5))
        assert state.is_pure(1e-12)
        assert np.allclose(state.bloch, TRINE_DIRS[1], atol=1e-15)

    def test_rejects_outside_ball(self):
        with pytest.raises(InvalidStateError):
            DensityState((0, 0, 1.001))

    def test_tolerance_boundary(self):
        # one tolerance, DEFAULT_TOL = 1e-9, on the Bloch norm
        assert DensityState((0, 0, 1 + 5e-10)).purity_radius == 1 + 5e-10
        with pytest.raises(InvalidStateError):
            DensityState((0, 0, 1 + 2e-9))

    def test_rejects_nan_bloch(self):
        with pytest.raises(InvalidStateError):
            DensityState((0, np.nan, 0))

    def test_bloch_roundtrip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform() / np.linalg.norm(v)
            assert np.max(np.abs(DensityState(v).bloch - v)) <= 1e-15


class TestBornProbability:
    def test_maximally_mixed_gives_weight(self):
        state = DensityState((0, 0, 0))
        effect = Effect(0.3, (0.1, 0.0, 0.2))
        assert born_probability(state, effect) == pytest.approx(0.3, abs=1e-15)

    def test_pole_state_with_optimal_effect(self):
        # E_0 = (2/3)|psi_0><psi_0| with psi_0 at Bloch angle -30 degrees
        state = DensityState((0, 0, 1))
        effect = projector_effect(xz_direction(-np.pi / 6), 2 / 3)
        expected = oracles.born(state, effect)
        assert expected == pytest.approx((1 + np.cos(np.pi / 6)) / 3, abs=1e-12)
        assert born_probability(state, effect) == pytest.approx(expected, abs=1e-12)
        assert born_probability(state, effect) == pytest.approx(0.62200847, abs=1e-8)

    def test_orthogonal_projector_gives_zero(self):
        state = DensityState(xz_direction(1.1))
        effect = projector_effect(-xz_direction(1.1), 1.0)
        assert born_probability(state, effect) == pytest.approx(0.0, abs=1e-14)

    def test_against_oracle_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = random_state(rng)
            povm = random_povm(rng, 3)
            for effect in povm.effects:
                assert born_probability(state, effect) == pytest.approx(
                    oracles.born(state, effect), abs=1e-12
                )


class TestEffectEigenvalues:
    def test_two_thirds_projector(self):
        assert projector_effect((0, 0, 1), 2 / 3).eigenvalues() == pytest.approx((0.0, 2 / 3))

    def test_isotropic_half(self):
        assert Effect(0.5, (0, 0, 0)).eigenvalues() == pytest.approx((0.5, 0.5))

    def test_generic(self):
        assert Effect(0.5, (0.25, 0, 0)).eigenvalues() == pytest.approx((0.25, 0.75))

    def test_tolerance_boundary(self):
        # eigenvalues 0.25 -+ r and 0.75 -+ r: r = 0.25 + excess puts the
        # smaller below 0, or the larger above 1, by excess
        for weight in (0.25, 0.75):
            Effect(weight, (0, 0, 0.25 + 5e-10))
            with pytest.raises(InvalidEffectError):
                Effect(weight, (0, 0, 0.25 + 2e-9))


class TestValidatePovm:
    """Validity is checked once, by the constructors, at DEFAULT_TOL."""

    def test_trine_passes(self):
        povm = povm_from_weighted_projectors([2 / 3] * 3, TRINE_DIRS)
        assert oracles.is_povm(povm.effects)
        assert abs(sum(e.weight for e in povm.effects) - 1.0) < 1e-15
        assert np.linalg.norm(np.sum([e.vec for e in povm.effects], axis=0)) < 1e-15

    def test_two_half_identities_pass(self):
        povm = Povm((Effect(0.5, (0, 0, 0)),) * 2)
        assert oracles.is_povm(povm.effects)

    def test_missing_element_fails_with_third_residual(self):
        effects = [projector_effect(TRINE_DIRS[0], 2 / 3), projector_effect(TRINE_DIRS[1], 2 / 3)]
        # the reported residual is the identity-coefficient gap 1/3
        with pytest.raises(InvalidPovmError, match=r"completeness residual 0\.33333333333"):
            Povm(tuple(effects))
        assert not oracles.is_povm(effects)
        # oracle: I - sum has trace 2/3, so the identity-coefficient gap is 1/3
        gap = oracles.IDENTITY - sum(oracles.effect_matrix(e) for e in effects)
        assert np.real(np.trace(gap)) / 2 == pytest.approx(1 / 3, abs=1e-15)

    def test_completeness_tolerance_boundary(self):
        # residual on the identity coefficient, then on the Bloch parts
        for pair in (
            lambda excess: (Effect(0.5 + excess, (0, 0, 0)), Effect(0.5, (0, 0, 0))),
            lambda excess: (Effect(0.5, (0, 0, 0.1 + excess)), Effect(0.5, (0, 0, -0.1))),
        ):
            Povm(pair(5e-10))
            with pytest.raises(InvalidPovmError):
                Povm(pair(2e-9))

    def test_povm_constructor_rejects_incomplete(self):
        with pytest.raises(InvalidPovmError):
            Povm((projector_effect((0, 0, 1), 0.9),))

    def test_effect_rejects_nan_weight(self):
        with pytest.raises(InvalidEffectError):
            Effect(np.nan, (0, 0, 0))

    def test_effect_rejects_nan_vector(self):
        with pytest.raises(InvalidEffectError):
            Effect(0.5, (0, 0, np.nan))

    def test_povm_rejects_nan_completeness(self):
        # stand-ins for effects that skipped their own check, so only the
        # completeness test sees the NaN
        half = SimpleNamespace(weight=0.5, vec=np.zeros(3))
        for bad in (
            SimpleNamespace(weight=np.nan, vec=np.zeros(3)),
            SimpleNamespace(weight=0.5, vec=np.array([np.nan, 0.0, 0.0])),
        ):
            with pytest.raises(InvalidPovmError):
                Povm((half, bad))


class TestPovmProperties:
    def test_born_normalization_on_1000_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            state = random_state(rng)
            povm = random_povm(rng, int(rng.integers(2, 6)))
            probs = oracles.outcome_probabilities(state, povm)
            assert np.all(probs >= -1e-12)
            assert np.all(probs <= 1 + 1e-12)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def _bits(povm):
    return [e.weight for e in povm.effects], np.array([e.vec for e in povm.effects])


class TestRandomPovmSampler:
    def test_single_draw_matches_row_oracle_bit_for_bit(self):
        for seed in range(500):
            for n_outcomes in range(2, 6):
                weights, vecs = _bits(random_povm(np.random.default_rng(seed), n_outcomes))
                ref_weights, ref_vecs = _bits(oracles.random_povm_by_rows(np.random.default_rng(seed), n_outcomes))
                assert weights == ref_weights
                assert np.array_equal(vecs, ref_vecs)

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_rows_match_row_oracle_on_the_same_draws(self, seed):
        weights, vecs = random_povms(np.random.default_rng(seed), 400, 3)
        # the batch's three draws, repeated from a second generator
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(3), size=400)
        v = rng.normal(size=(400, 3, 3))
        u = rng.uniform(size=(400, 3))
        assert weights.shape == (400, 3) and vecs.shape == (400, 3, 3)
        assert np.array_equal(weights, w)
        for row in range(400):
            assert np.array_equal(vecs[row], oracles.clip_bloch_parts(w[row], v[row], u[row]))

    def test_empty_batch(self):
        weights, vecs = random_povms(np.random.default_rng(0), 0, 3)
        assert weights.shape == (0, 3) and vecs.shape == (0, 3, 3)


def _constructor_error(w, v):
    """The exception type that building the rows as ``Povm`` objects raises
    first, or None."""
    try:
        for row_w, row_v in zip(w, v):
            Povm(tuple(Effect(row_w[i], row_v[i]) for i in range(len(row_w))))
    except (InvalidEffectError, InvalidPovmError) as exc:
        return type(exc)
    return None


def _stack_error(w, v):
    try:
        validate_povms(w, v)
    except (InvalidEffectError, InvalidPovmError) as exc:
        return type(exc)
    return None


class TestValidatePovmStack:
    """``validate_povms`` accepts and rejects exactly what the constructors do."""

    def _valid_stack(self, seed, count=20, n_outcomes=3):
        return random_povms(np.random.default_rng(seed), count, n_outcomes)

    def test_sampler_stacks_pass(self):
        for n_outcomes in range(2, 6):
            w, v = self._valid_stack(n_outcomes, 200, n_outcomes)
            assert _stack_error(w, v) is _constructor_error(w, v) is None

    def test_bloch_norms_round_like_one_vector_norms(self):
        v = np.random.default_rng(5).normal(size=(2000, 4, 3)) * np.logspace(-8, 0, 2000)[:, None, None]
        assert np.array_equal(bloch_norms(v), [[np.linalg.norm(e) for e in row] for row in v])
        sums = v.sum(axis=1)
        assert np.array_equal(bloch_norms(sums), [np.linalg.norm(np.sum(list(row), axis=0)) for row in v])

    @pytest.mark.parametrize("field", ["weight", "vector"])
    def test_nan_row_is_rejected(self, field):
        w, v = self._valid_stack(1)
        if field == "weight":
            w[7, 1] = np.nan
        else:
            v[7, 1, 2] = np.nan
        assert _stack_error(w, v) is _constructor_error(w, v) is InvalidEffectError

    def test_completeness_residual_of_twice_the_tolerance(self):
        w, v = self._valid_stack(2)
        # the effects stay valid; only the sum misses the identity
        w[4] = (0.25, 0.25, 0.5 + 2 * DEFAULT_TOL)
        v[4] = 0.0
        assert _stack_error(w, v) is _constructor_error(w, v) is InvalidPovmError
        w[4, 2] = 0.5 + 0.5 * DEFAULT_TOL
        assert _stack_error(w, v) is _constructor_error(w, v) is None

    def test_effect_eigenvalue_of_minus_twice_the_tolerance(self):
        w, v = self._valid_stack(3)
        # the first two effects have smaller eigenvalue 0.25 - |v| = -2 tol; the
        # row is complete, so only the effect check can reject it
        w[9] = (0.25, 0.25, 0.5)
        v[9] = ((0.25 + 2 * DEFAULT_TOL, 0.0, 0.0), (-0.25 - 2 * DEFAULT_TOL, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert _stack_error(w, v) is _constructor_error(w, v) is InvalidEffectError
        v[9, :2, 0] = (0.25 + 0.5 * DEFAULT_TOL, -0.25 - 0.5 * DEFAULT_TOL)
        assert _stack_error(w, v) is _constructor_error(w, v) is None

    def test_first_failing_row_sets_the_exception(self):
        w, v = self._valid_stack(4)
        w[3, 0] += 1e-6  # row 3: completeness only
        w[8, 0] = -1e-6  # row 8: an effect, and completeness
        assert _stack_error(w, v) is _constructor_error(w, v) is InvalidPovmError
        assert _stack_error(w[4:], v[4:]) is _constructor_error(w[4:], v[4:]) is InvalidEffectError

    def test_boundary_perturbations_agree(self):
        # each row's first effect gets its smaller eigenvalue within about
        # 1e-15 of -tol, on either side; rows are checked one at a time
        rng = np.random.default_rng(6)
        w, v = self._valid_stack(6, 400)
        w[:, 0] = np.linalg.norm(v[:, 0], axis=1) - DEFAULT_TOL * (1.0 + rng.uniform(-1e-6, 1e-6, size=400))
        seen = set()
        for row in range(400):
            single_w, single_v = w[row : row + 1], v[row : row + 1]
            stacked = _stack_error(single_w, single_v)
            assert stacked is _constructor_error(single_w, single_v), row
            seen.add(stacked)
        assert InvalidEffectError in seen and len(seen) == 3


def _dual_value(c, r, lam):
    """sum_b r_b |c_b - lam|, an upper bound on every feasible sum_b y_b.c_b."""
    return float(np.sum(r * np.linalg.norm(c - lam, axis=1)))


def _random_instances(seed: int, count: int):
    """Three targets with radii in [0, 1): a fifth of the radii are zero and
    three in ten instances have two coincident targets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = rng.uniform(0.0, 1.0, size=3)
        r[rng.uniform(size=3) < 0.2] = 0.0
        c = rng.normal(size=(1, 3, 3))
        if rng.uniform() < 0.3:
            c[0, 1] = c[0, 0]
        yield c, r


class TestZeroSumAlignment:
    def test_anchor_counts_its_own_radius_once(self):
        # lam = c_0 is not optimal: the pull 0.8 sqrt(2) exceeds the radius 1
        c = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        r = np.array([1.0, 0.8, 0.8])
        value = float((zero_sum_alignment(c, r) * c).sum())
        assert value == pytest.approx(1.5903, abs=1e-4)
        assert value < min(_dual_value(c[0], r, lam) for lam in c[0])

    def test_random_instances_are_feasible_and_anchors_tight(self):
        anchored = 0
        for c, r in _random_instances(1000, 1000):
            y = zero_sum_alignment(c, r)
            assert np.abs(y[0].sum(axis=0)).max() <= 1e-12
            assert np.all(np.linalg.norm(y[0], axis=1) <= r * (1.0 + 1e-12))
            value = float((y * c).sum())
            anchor_dual = min(_dual_value(c[0], r, lam) for lam in c[0])
            assert value <= anchor_dual + 1e-12
            anchored += value >= anchor_dual - 1e-12
        assert anchored > 200

    def test_value_is_the_dual_minimum(self):
        pytest.importorskip("scipy")
        for c, r in _random_instances(1000, 1000):
            value = float((zero_sum_alignment(c, r) * c).sum())
            dual = oracles.weighted_median_value(c[0], r)
            assert dual - 1e-9 <= value <= dual + 1e-12

    def test_rows_of_a_batch_match_single_row_solves(self):
        rng = np.random.default_rng(77)
        c = rng.normal(size=(40, 3, 3))
        c[::4, 2] = c[::4, 0]
        for r in (np.array([0.9, 0.3, 0.6]), np.array([0.9, 0.3, 0.0])):
            y = zero_sum_alignment(c, r)
            for row in range(len(c)):
                y1 = zero_sum_alignment(c[row : row + 1], r)
                assert float((y[row] * c[row]).sum()) == pytest.approx(float((y1 * c[row]).sum()), abs=1e-12)
                assert np.abs(y[row].sum(axis=0)).max() <= 1e-12
                assert np.all(np.linalg.norm(y[row], axis=1) <= r * (1.0 + 1e-12))
