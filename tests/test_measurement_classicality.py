"""Incompatibility witnesses, joint measurability, coherence detection."""

from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from trinegame import measurement_classicality
from trinegame.lp_engine import LpFamily, LpNumericalError
from trinegame.measurement_classicality import (
    CoplanarityError,
    PartitionedEnsemble,
    add_noise,
    antidistinguishing_povm,
    best_axis_fit,
    carmeli_ensemble,
    certified_incompatible,
    dephase,
    ensemble_for_simulator_pair,
    guessing_report,
    is_free_in_any_basis,
    is_free_povm,
    joint_measurability_check,
    min_enclosing_ball,
    noise_compatibility_threshold,
    pairwise_collinear,
    post_guess_bounds,
    prior_guess,
)
from trinegame.povm_simulation import simulator_set
from trinegame.qubit_core import (
    DEFAULT_TOL,
    DensityState,
    Effect,
    Povm,
    born_probability,
    povm_from_weighted_projectors,
    random_povm,
    random_povms,
    xz_direction,
)
from trinegame.cli import random_collinear_povms

import oracles

TRINE_STATES = [DensityState(xz_direction(2 * np.pi * b / 3)) for b in range(3)]
TRINE_POVM = povm_from_weighted_projectors([2 / 3] * 3, [s.bloch for s in TRINE_STATES])
SIM5 = simulator_set(5)
M0, M1 = SIM5.members[0].povm, SIM5.members[1].povm


@pytest.fixture
def solves(monkeypatch):
    """Every LpSolution that LpFamily.maximize returns, in call order."""
    solutions = []
    maximize = LpFamily.maximize

    def recording_maximize(family, objective):
        solutions.append(maximize(family, objective))
        return solutions[-1]

    monkeypatch.setattr(LpFamily, "maximize", recording_maximize)
    return solutions


@pytest.fixture(scope="module")
def seeded_povms():
    """1,000 seeded POVMs: even rows from the general sampler, odd rows
    collinear by construction."""
    rng = np.random.default_rng(31415)
    return [oracles.random_collinear_povm(rng) if idx % 2 else random_povm(rng, 3) for idx in range(1000)]


def planar_rank_one_povm(rng: np.random.Generator) -> Povm:
    """Three rank-one effects (a_b / 2)(I + n_b.sigma) in the xz plane: the
    vectors a_b n_b close a triangle with side lengths a_b < 1, sum a = 2."""
    while True:
        a = 2.0 * rng.dirichlet(np.ones(3))
        if a.max() < 1.0:
            break
    # exterior angle between the first two sides, by the law of cosines
    turn = np.pi - np.arccos(np.clip((a[0] ** 2 + a[1] ** 2 - a[2] ** 2) / (2 * a[0] * a[1]), -1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * np.pi)
    sides = [a[0] * xz_direction(phi), a[1] * xz_direction(phi + turn)]
    return povm_from_weighted_projectors(a, sides + [-(sides[0] + sides[1])])


def rotated(povm: Povm, angle: float) -> Povm:
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    return Povm(tuple(Effect(e.weight, rot @ e.vec) for e in povm.effects))


class TestAntidistinguishability:
    def test_trine_overlaps_vanish(self):
        povm = antidistinguishing_povm(TRINE_STATES)
        for b, state in enumerate(TRINE_STATES):
            assert abs(born_probability(state, povm.effects[b])) < 1e-14
            assert abs(oracles.born(state, povm.effects[b])) < 1e-14

    def test_rotated_frame_keeps_property(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        states = [DensityState(q @ s.bloch) for s in TRINE_STATES]
        povm = antidistinguishing_povm(states)
        for b, state in enumerate(states):
            assert abs(born_probability(state, povm.effects[b])) < 1e-14

    def test_unbalanced_states_rejected(self):
        bad = [DensityState((0, 0, 1))] * 2 + [DensityState((0, 0, -1))]
        with pytest.raises(ValueError, match="sum to zero"):
            antidistinguishing_povm(bad)


class TestPriorGuess:
    def test_paper_pairing_is_two_thirds(self):
        assert prior_guess(carmeli_ensemble(), M0, M1) == pytest.approx(2 / 3, abs=1e-12)

    def test_uninformative_measurements(self):
        flat = Povm(tuple(Effect(1 / 3, (0, 0, 0)) for _ in range(3)))
        assert prior_guess(carmeli_ensemble(), flat, flat) == pytest.approx(1 / 3, abs=1e-14)

    def test_swapped_measurements_do_worse(self):
        assert prior_guess(carmeli_ensemble(), M1, M0) < 2 / 3 - 0.1


class TestEnsembles:
    def test_printed_states(self):
        ens = carmeli_ensemble()
        assert np.allclose(ens.part0[0].bloch, (0, 0, 1), atol=1e-15)
        c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
        assert np.allclose(ens.part0[1].bloch, (s, 0, -c), atol=1e-14)
        # the third first-partition state coincides with the second of part1
        assert np.allclose(ens.part0[2].bloch, ens.part1[1].bloch, atol=1e-14)
        assert all(abs(st.purity_radius - 1) <= 1e-12 for st in ens.part0 + ens.part1)

    def test_pair_ensemble_reduces_to_printed_one(self):
        # in floats t + 2t == 3t and t + 3t == 4t for t = 2 pi / 5, so the
        # pair (0, 1) rotation lands exactly on the printed angles
        t = 2 * np.pi / 5
        printed = [xz_direction(a) for a in (0.0, 2 * t, 3 * t, t, 3 * t, 4 * t)]
        ens = carmeli_ensemble()
        for state, direction in zip(ens.part0 + ens.part1, printed):
            assert np.array_equal(state.bloch, direction)


class TestMinEnclosingBall:
    def test_known_configurations(self):
        center, radius, _, _ = min_enclosing_ball(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        assert radius == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(center, (1, 0, 0), atol=1e-12)

    def test_against_subgradient_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            pts = rng.normal(size=(int(rng.integers(2, 10)), 3))
            center, radius, support, weights = min_enclosing_ball(pts)
            assert np.max(np.linalg.norm(pts - center, axis=1)) <= radius + 1e-12
            # the center is a convex combination of support points on the boundary
            assert np.all(weights >= -1e-12) and weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(weights @ pts[list(support)], center, rtol=0, atol=1e-12)
            assert np.allclose(np.linalg.norm(pts[list(support)] - center, axis=1), radius, rtol=0, atol=1e-12)
            # oracle: heavy-ball subgradient descent on the max-distance objective
            c = pts.mean(axis=0)
            for it in range(4000):
                d = np.linalg.norm(pts - c, axis=1)
                far = int(np.argmax(d))
                c = c + (pts[far] - c) / (it + 2)
            r_oracle = float(np.max(np.linalg.norm(pts - c, axis=1)))
            assert radius <= r_oracle + 1e-4
            assert radius >= r_oracle - 1e-3

    def test_matches_subset_oracle_bit_for_bit(self):
        sets = [carmeli_ensemble().pair_blochs()]
        sets += [
            ensemble_for_simulator_pair(i, j).pair_blochs()
            for i in range(5)
            for j in range(5)
            if i != j
        ]
        rng = np.random.default_rng(2023)
        sets += [rng.normal(size=(k, 3)) for k in rng.integers(1, 10, size=300)]
        for k in rng.integers(2, 10, size=100):
            plane = np.linalg.qr(rng.normal(size=(3, 2)))[0]
            sets.append(rng.normal(size=(k, 2)) @ plane.T + rng.normal(size=3))
        sets += [np.tile(rng.normal(size=3), (k, 1)) for k in (2, 3, 4, 9)]
        for pts in sets:
            ball = min_enclosing_ball(pts)
            ref = oracles.min_enclosing_ball_by_subsets(pts)
            assert np.array_equal(ball.center, ref.center)
            assert ball.radius == ref.radius and type(ball.radius) is float
            assert ball.support == ref.support
            assert np.array_equal(ball.weights, ref.weights)


class TestPostGuessBounds:
    def test_dual_equals_closed_form(self):
        lower, upper, cert, witness_povm, assignment = post_guess_bounds(carmeli_ensemble())
        expected = (3 + np.cos(np.pi / 5)) / 6
        assert upper == pytest.approx(expected, abs=1e-12)
        assert lower == pytest.approx(expected, abs=1e-9)
        assert lower <= upper + 1e-9

    def test_dual_certificate_feasible_by_eigenvalues(self):
        ens = carmeli_ensemble()
        report = guessing_report(ens, M0, M1)
        assert report.dual_feasibility_margin >= -1e-10
        # cross-check with the complex-matrix oracle
        y = oracles.operator_matrix(report.dual_certificate[0], report.dual_certificate[1:])
        for w in ens.pair_blochs():
            gap = y - oracles.operator_matrix(1 / 6, w)
            assert np.linalg.eigvalsh(gap).min() >= -1e-10

    def test_pair_blochs_certificate_and_margin_match_the_operator_sums_bit_for_bit(self):
        for o, o2 in permutations(range(5), 2):
            ens = ensemble_for_simulator_pair(o, o2)
            operators = oracles.pair_operators_by_sums(ens)
            assert all(scalar == 1 / 6 for scalar, _ in operators)
            assert np.array_equal(ens.pair_blochs(), [vec for _, vec in operators])
            report = guessing_report(ens, SIM5.members[o].povm, SIM5.members[o2].povm)
            ball = oracles.min_enclosing_ball_by_subsets(np.array([vec for _, vec in operators]))
            assert np.array_equal(report.dual_certificate, [1 / 6 + ball.radius, *ball.center])
            expected = oracles.dual_margin_by_eigenvalues(report.dual_certificate, operators)
            assert report.dual_feasibility_margin == expected, (o, o2)
            assert type(report.dual_feasibility_margin) is float

    def test_witness_meets_the_dual_on_all_ensembles(self):
        ensembles = [carmeli_ensemble()] + [
            ensemble_for_simulator_pair(o, o2) for o in range(5) for o2 in range(o + 1, 5)
        ]
        for ens in ensembles:
            lower, upper, _, povm, assignment = post_guess_bounds(ens)
            assert abs(upper - lower) <= 1e-12
            assert oracles.is_povm(povm.effects)
            assert all(eff.is_rank_one() for eff in povm.effects)
            explicit = sum(
                oracles.born(ens.part0[i], eff) + oracles.born(ens.part1[j], eff)
                for eff, (i, j) in zip(povm.effects, assignment)
            ) / 6
            assert explicit == pytest.approx(lower, abs=1e-12)

    def test_identical_states_give_one_third(self):
        # all nine pair points coincide: the ball has radius 0
        state = DensityState((0, 0, 1))
        lower, upper, _, povm, _ = post_guess_bounds(PartitionedEnsemble((state,) * 3, (state,) * 3))
        assert lower == pytest.approx(1 / 3, abs=1e-15) and upper == pytest.approx(1 / 3, abs=1e-15)
        assert oracles.is_povm(povm.effects)

    def test_bounds_bracket_sane_interval(self):
        lower, upper, _, _, _ = post_guess_bounds(carmeli_ensemble())
        assert 1 / 3 <= lower <= upper <= 2 / 3

    def test_z_basis_strategy_value(self):
        # explicit two-outcome projective strategy from the module docstring
        ens = carmeli_ensemble()
        up, down = Effect(0.5, (0, 0, 0.5)), Effect(0.5, (0, 0, -0.5))
        value = 0.0
        for eff in (up, down):
            value += max(born_probability(s, eff) for s in ens.part0)
            value += max(born_probability(s, eff) for s in ens.part1)
        value /= 6
        assert value == pytest.approx(0.5773, abs=1e-4)
        lower, _, _, _, _ = post_guess_bounds(ens)
        assert lower >= value - 1e-12


class TestIncompatibilityWitness:
    def test_first_pair_margin(self):
        report = guessing_report(carmeli_ensemble(), M0, M1)
        assert report.witness_margin == pytest.approx(2 / 3 - (3 + np.cos(np.pi / 5)) / 6, abs=1e-9)
        assert report.witness_margin > 0.02
        _, upper, _, _, _ = post_guess_bounds(carmeli_ensemble())
        assert report.witness_margin == prior_guess(carmeli_ensemble(), M0, M1) - upper

    def test_same_measurement_has_no_margin(self):
        assert guessing_report(carmeli_ensemble(), M0, M0).witness_margin <= 1e-9

    def test_identical_trines_have_no_margin(self):
        report = guessing_report(carmeli_ensemble(), TRINE_POVM, rotated(TRINE_POVM, 0.0))
        assert report.witness_margin <= 1e-9

    def test_all_ten_pairs_witnessed(self):
        for o in range(5):
            for o2 in range(o + 1, 5):
                ens = ensemble_for_simulator_pair(o, o2)
                margin = guessing_report(ens, SIM5.members[o].povm, SIM5.members[o2].povm).witness_margin
                assert margin > 0.01, (o, o2, margin)


class TestJointMeasurability:
    def test_self_compatibility(self):
        assert joint_measurability_check(M0, M0).verdict == "compatible"
        assert joint_measurability_check(TRINE_POVM, TRINE_POVM).verdict == "compatible"

    def test_seeded_planar_self_pairs_are_compatible(self):
        # G_ij = delta_ij E_i is a joint POVM; 23 of these pairs once raised
        # LpNumericalError when phase 1 pivoted an artificial out on a tiny entry
        rng = np.random.default_rng(7)
        for _ in range(100):
            povm = planar_rank_one_povm(rng)
            assert joint_measurability_check(povm, povm, 64).verdict == "compatible"

    def test_first_pair_incompatible(self):
        assert joint_measurability_check(M0, M1).verdict == "incompatible"
        assert certified_incompatible(M0, M1) is True

    def test_redundant_row_drift_is_not_a_pivot(self):
        # the seventh POVM of this stream, paired with itself: three of the 18
        # rows of its circumscribed-cone LP are redundant, and one carries a
        # 1.1e-11 entry after phase 1; pivoting an artificial out on it set a
        # basic value to -0.062, and the solve raised LpNumericalError
        rng = np.random.default_rng(7)
        povm = [planar_rank_one_povm(rng) for _ in range(7)][-1]
        assert certified_incompatible(povm, povm, 64) is False

    @pytest.mark.parametrize("polygon_k", [3, 4, 6, 8, 16, 64, 128])
    def test_certified_incompatible_is_the_incompatible_verdict(self, polygon_k):
        for o in range(5):
            for o2 in range(o + 1, 5):
                first, second = SIM5.members[o].povm, SIM5.members[o2].povm
                verdict = joint_measurability_check(first, second, polygon_k).verdict
                assert certified_incompatible(first, second, polygon_k) == (verdict == "incompatible"), (o, o2)

    def test_certified_incompatible_agrees_on_seeded_noisy_pairs(self):
        rng = np.random.default_rng(99)
        verdicts = Counter()
        for idx in range(600):
            first, second = planar_rank_one_povm(rng), planar_rank_one_povm(rng)
            eta = rng.uniform(0.3, 1.0)
            polygon_k = int(rng.choice([8, 16, 32, 64]))
            first, second = add_noise(first, eta), add_noise(second, eta)
            verdict = joint_measurability_check(first, second, polygon_k).verdict
            assert certified_incompatible(first, second, polygon_k) == (verdict == "incompatible"), idx
            verdicts[verdict] += 1
        assert verdicts == {"compatible": 438, "undecided": 17, "incompatible": 145}

    def test_noisy_pair_compatible(self):
        assert joint_measurability_check(add_noise(M0, 0.1), add_noise(M1, 0.1)).verdict == "compatible"

    def test_joint_lp_rows_are_marginals(self):
        # variable (3i + j) * n_gen + m weights the cone generator (1, g_m)
        # in G_ij; rows 0-8 are sum_j G_ij, rows 9-17 are sum_i G_ij
        mc = measurement_classicality
        coords = mc._plane_coords(M0, M1)
        for p, povm in enumerate((M0, M1)):
            for k, eff in enumerate(povm.effects):
                assert coords[p, k, 0] == eff.weight
                assert np.linalg.norm(coords[p, k, 1:]) == pytest.approx(np.linalg.norm(eff.vec), abs=1e-15)
        gens = mc._polygon_generators(coords, 8, circumscribed=False)
        n_gen = len(gens)
        assert n_gen == 8 + 6
        a = mc._joint_lp(gens)
        assert a.shape == (18, 9 * n_gen)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.uniform(size=9 * n_gen)
            joint = np.zeros((3, 3, 3))
            for i in range(3):
                for j in range(3):
                    for m in range(n_gen):
                        joint[i, j] += x[(3 * i + j) * n_gen + m] * np.array([1.0, gens[m, 0], gens[m, 1]])
            first = [sum(joint[i, j] for j in range(3)) for i in range(3)]
            second = [sum(joint[i, j] for i in range(3)) for j in range(3)]
            assert np.allclose(a @ x, np.concatenate(first + second), rtol=0, atol=1e-12)

    def test_k64_check_pivot_count(self, solves):
        # 1,885 pivots under Bland's rule alone; Dantzig pricing needs 66
        assert joint_measurability_check(M0, M1, polygon_k=64).verdict == "incompatible"
        assert len(solves) == 2
        assert sum(s.phase1_pivots + s.phase2_pivots for s in solves) <= 377

    def test_noise_thresholds_respect_rotation_symmetry(self):
        # the five simulators are rotations of one another by 72 degrees, so
        # the bracket depends only on whether the pair is adjacent
        adjacent = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        for o in range(5):
            for o2 in range(o + 1, 5):
                bracket = noise_compatibility_threshold(
                    SIM5.members[o].povm, SIM5.members[o2].povm, polygon_k=64, tol=1e-4
                )
                if (o, o2) in adjacent:
                    assert bracket == (0.78033447265625, 0.7803955078125), (o, o2)
                else:
                    assert bracket == (0.834716796875, 0.83477783203125), (o, o2)

    def test_noise_threshold_bracket(self):
        lo, hi = noise_compatibility_threshold(M0, M1, polygon_k=32, tol=1e-3)
        assert 0.1 < lo <= hi < 1.0
        assert hi - lo <= 1e-3
        assert (lo, hi) == oracles.noise_threshold_by_bisection(M0, M1, polygon_k=32, tol=1e-3)

    def test_ten_pairs_match_bisection_and_lo_is_compatible(self):
        for o in range(5):
            for o2 in range(o + 1, 5):
                first, second = SIM5.members[o].povm, SIM5.members[o2].povm
                lo, hi = noise_compatibility_threshold(first, second, polygon_k=64)
                assert (lo, hi) == oracles.noise_threshold_by_bisection(first, second, polygon_k=64), (o, o2)
                check = joint_measurability_check(add_noise(first, lo), add_noise(second, lo), 64)
                assert check.verdict == "compatible", (o, o2)

    def test_noise_threshold_is_one_solve(self, solves):
        noise_compatibility_threshold(M0, M1, polygon_k=64)
        assert len(solves) == 1
        assert solves[0].status == "optimal"

    def test_seeded_planar_pairs_match_bisection(self, solves):
        # near-extremal pairs: rank-one effects, or Bloch parts shrunk by at
        # most 10%; every third pair has a second POVM at noise 0.45, which
        # the inscribed cone often already holds at eta = 1
        rng = np.random.default_rng(20261019)
        compatible_at_one = rounded_to_one = bisection_failures = 0
        for idx in range(300):
            polygon_k, tol = (8, 16, 32, 64, 8, 16)[idx % 6], (1e-3, 1e-4)[idx // 6 % 2]
            first, second = planar_rank_one_povm(rng), planar_rank_one_povm(rng)
            if idx % 3 == 1:
                first = add_noise(first, rng.uniform(0.9, 1.0))
            elif idx % 3 == 2:
                second = add_noise(second, 0.45)
            solves.clear()
            bracket = noise_compatibility_threshold(first, second, polygon_k, tol)
            eta = solves[0].x[-1]
            try:
                expected = oracles.noise_threshold_by_bisection(first, second, polygon_k, tol)
            except LpNumericalError:
                # one of the bisection's cold checks drifted; check the two
                # ends of the bracket directly instead
                bisection_failures += 1
                lo, hi = bracket
                verdicts = [
                    joint_measurability_check(add_noise(first, eta), add_noise(second, eta), polygon_k).verdict
                    for eta in (lo, hi)
                ]
                assert verdicts[0] == "compatible" != verdicts[1] and hi - lo <= tol, (idx, verdicts)
                continue
            assert bracket == expected, (idx, polygon_k, tol)
            compatible_at_one += expected == (1.0, 1.0)
            rounded_to_one += 0.0 < 1.0 - eta <= 1e-12
        assert compatible_at_one >= 5 and rounded_to_one >= 1, (compatible_at_one, rounded_to_one)
        assert bisection_failures <= 3

    @pytest.mark.parametrize("polygon_k", [-1, 0, 1, 2])
    def test_polygons_below_three_vertices_rejected(self, polygon_k):
        # one or two "circumscribed" points do not contain the disc, so an
        # infeasible outer LP would certify nothing
        with pytest.raises(ValueError, match="polygon_k must be at least 3"):
            joint_measurability_check(M0, M1, polygon_k)
        with pytest.raises(ValueError, match="polygon_k must be at least 3"):
            certified_incompatible(M0, M1, polygon_k)
        with pytest.raises(ValueError, match="polygon_k must be at least 3"):
            noise_compatibility_threshold(M0, M1, polygon_k)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, np.nan, np.inf, 1e-17])
    def test_noise_threshold_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            noise_compatibility_threshold(M0, M1, polygon_k=8, tol=tol)

    def test_no_common_plane_rejected(self):
        # each 3-outcome POVM is coplanar on its own (vectors sum to zero),
        # but these two span different planes
        yz_povm = Povm(
            (
                Effect(1 / 3, (0.0, 0.2, 0.0)),
                Effect(1 / 3, (0.0, -0.1, 0.1)),
                Effect(1 / 3, (0.0, -0.1, -0.1)),
            )
        )
        with pytest.raises(CoplanarityError):
            joint_measurability_check(TRINE_POVM, yz_povm)
        with pytest.raises(CoplanarityError):
            certified_incompatible(TRINE_POVM, yz_povm)

    def test_three_outcomes_required(self):
        four = Povm(tuple(Effect(0.25, 0.25 * xz_direction(np.pi * b / 2)) for b in range(4)))
        for check in (joint_measurability_check, certified_incompatible, noise_compatibility_threshold):
            with pytest.raises(ValueError, match="three-outcome"):
                check(four, M0)


class TestCoherenceDetection:
    def test_dephase_projects_bloch(self):
        state = DensityState((0.3, 0.4, 0.5))
        flat = dephase(state, (0, 0, 1))
        assert np.allclose(flat.bloch, (0, 0, 0.5), atol=1e-15)

    def test_trine_not_free_for_own_first_direction(self):
        # basis along the first trine effect: the other two sit at 120 degrees
        basis = xz_direction(0.0)
        report = is_free_povm(TRINE_POVM, basis)
        assert not report.free
        assert report.max_off_axis == pytest.approx(np.sin(2 * np.pi / 3) / 3, abs=1e-12)
        assert report.max_off_axis > 0.28
        # the witness state detects exactly that much coherence
        effect = TRINE_POVM.effects[report.witness_effect]
        rho = report.witness_state
        gap = born_probability(rho, effect) - born_probability(dephase(rho, basis), effect)
        assert gap == pytest.approx(report.max_off_axis, abs=1e-12)

    @pytest.mark.parametrize("direction", [(np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0), (0.0, 0.0, 1e-15), (0, 0, 0)])
    def test_basis_direction_must_be_finite_and_nonzero(self, direction):
        with pytest.raises(ValueError, match="basis direction"):
            is_free_povm(TRINE_POVM, direction)
        with pytest.raises(ValueError, match="basis direction"):
            dephase(TRINE_STATES[0], direction)

    def test_trine_not_free_in_any_basis(self):
        report = is_free_in_any_basis(TRINE_POVM)
        assert not report.free
        assert report.max_off_axis > 0.28

    def test_degenerate_extremes_are_free(self):
        psi0 = xz_direction(-np.pi / 6)
        sharp1 = povm_from_weighted_projectors((1.0, 0.5, 0.5), [psi0, -psi0, -psi0])
        # a free report still gives its largest off-axis magnitude, and no witness
        for report in (is_free_povm(sharp1, psi0), is_free_in_any_basis(sharp1)):
            assert report.free and report.witness_state is None and report.witness_effect is None
            assert 0.0 <= report.max_off_axis <= DEFAULT_TOL
        sharp0 = Povm(
            (Effect(0.0, (0, 0, 0)), Effect(0.5, 0.5 * psi0), Effect(0.5, -0.5 * psi0))
        )
        assert is_free_in_any_basis(sharp0).free

    def test_zero_bloch_povm_free_in_any_basis(self):
        flat = Povm((Effect(0.5, (0, 0, 0)), Effect(0.5, (0, 0, 0))))
        assert is_free_in_any_basis(flat).free

    def test_three_formulations_agree_on_1000_random(self, seeded_povms):
        vecs = np.array([[e.vec for e in povm.effects] for povm in seeded_povms])
        pairwise = pairwise_collinear(vecs)
        reports = [is_free_in_any_basis(povm) for povm in seeded_povms]
        assert pairwise.tolist() == [oracles.commutators_vanish(p) for p in seeded_povms]
        assert pairwise.tolist() == [report.free for report in reports]
        assert pairwise[1::2].all()  # constructed collinear samples must classify as free
        # each one-POVM report is its row of the stacked fit, free or not
        fit = best_axis_fit(vecs)
        for row, report in enumerate(reports):
            assert report.free == fit.free[row]
            assert np.array_equal(report.axis, fit.axis[row])
            assert report.max_off_axis == fit.magnitudes[row].max()
            if report.free:
                assert report.witness_state is None and report.witness_effect is None
            else:
                assert np.array_equal(fit.off_axis[row, report.witness_effect] / report.max_off_axis,
                                      report.witness_state.bloch)

    def test_witness_detects_the_reported_coherence(self, seeded_povms):
        # every row that is not free, for its fitted axis and for a fixed one:
        # the witness state loses exactly max_off_axis of the witness
        # effect's probability under dephasing
        fixed = xz_direction(0.3)
        checked = 0
        for povm in seeded_povms:
            for report in (is_free_in_any_basis(povm), is_free_povm(povm, fixed)):
                if report.free:
                    continue
                effect, rho = povm.effects[report.witness_effect], report.witness_state
                gap = born_probability(rho, effect) - born_probability(dephase(rho, report.axis), effect)
                assert gap == pytest.approx(report.max_off_axis, abs=1e-12)
                checked += 1
        assert checked == 1500  # all 500 general rows twice, the 500 collinear ones for the fixed axis

    def test_kernels_accept_an_empty_stack(self):
        empty = np.zeros((0, 3, 3))
        assert pairwise_collinear(empty).shape == (0,)
        assert best_axis_fit(empty).free.shape == (0,)

    def test_small_non_collinear_effects_are_not_free(self):
        # Bloch parts 1e-5 x, 1e-5 y, -1e-5 (x + y): |u x v| = 1e-10 is below
        # 1e-9, but the off-axis witness is 7.07e-6.  The pairwise test
        # compares |u x v| with tol max(|u|, |v|), linear in scale like the
        # witness, and agrees with it
        povm = Povm(
            (
                Effect(1 / 3, (1e-5, 0.0, 0.0)),
                Effect(1 / 3, (0.0, 1e-5, 0.0)),
                Effect(1 / 3, (-1e-5, -1e-5, 0.0)),
            )
        )
        report = is_free_in_any_basis(povm)
        assert not pairwise_collinear(np.array([[e.vec for e in povm.effects]]))[0]
        assert not oracles.commutators_vanish(povm)
        assert not report.free
        assert report.max_off_axis == pytest.approx(1e-5 / np.sqrt(2), rel=1e-6)

    def test_formulations_agree_on_scaled_samples(self):
        # scaled copies of sampler POVMs, general and collinear, at scales
        # 1e-4 to 1.  Below about 1e-6 the off-axis lengths of a general
        # sample approach tol, where the pairwise distance (of the shorter
        # vector from the longer's axis) and the best-fit axis distance are
        # different quantities, so that band is left out.
        rng = np.random.default_rng(27182)
        _, general = random_povms(rng, 1000, 3)
        _, collinear = random_collinear_povms(rng, 1000)
        vecs = np.concatenate([general, collinear])
        for scale in np.logspace(-4.0, 0.0, 9):
            scaled = scale * vecs
            pairwise = pairwise_collinear(scaled)
            assert np.array_equal(pairwise, best_axis_fit(scaled).free), scale
            assert not pairwise[:1000].any() and pairwise[1000:].all(), scale
