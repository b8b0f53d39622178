"""Exact dual certificate of the quantum value."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import trinegame
from trinegame import quantum_bound, quantum_opt
from trinegame.game import derived_second_blochs, success_probability
from trinegame.quantum_opt import BRACKET_TOL, QUANTUM_OPTIMUM, AlphaTriple, quantum_value
from trinegame.qubit_core import zero_sum_alignment

import oracles


def _program(al):
    """The cached program of al's held pattern, with al's bounds and constant."""
    qp = quantum_bound._quadratic_program(tuple((al <= quantum_bound.INACTIVE_RADIUS).tolist()))
    return (qp, *quantum_bound._bounds(al))


def _certificate_inputs(alpha, strategy=None):
    """Program, bounds, constant and fitted multipliers that certify uses."""
    qp, bounds, constant = _program(alpha.as_array())
    z = quantum_bound._gram_coordinates(strategy or quantum_opt._trine_strategy(alpha), qp.lift)
    return qp, bounds, constant, quantum_bound._multipliers(qp, bounds, z)


class TestCertificate:
    def test_quadratic_program_reproduces_random_strategies(self):
        rng = np.random.default_rng(1618)
        n = 1000
        u = oracles.random_feasible_first_blochs(rng, n)
        m = derived_second_blochs(u)
        beta = rng.dirichlet(np.ones(3), size=n)
        beta[::50] = np.eye(3)[rng.integers(0, 3, size=n // 50)]  # vertices: one alpha_b = 0
        for k in range(n):
            al = AlphaTriple(tuple(1.0 - beta[k])).as_array()
            y = zero_sum_alignment(rng.normal(size=(1, 3, 3)), al)
            y = rng.uniform() * y[0]
            strategy = quantum_opt._strategy(u[k], y, al)
            qp, bounds, constant = _program(al)
            z = quantum_bound._gram_coordinates(strategy, qp.lift)
            assert np.abs(qp.lift @ z - np.concatenate([u[k], y])).max() <= 1e-12
            gram = z @ z.T
            assert constant == sum(Fraction(a) for a in al) / 6
            value = al.sum() / 6 + np.sum(qp.objective * gram) / 12
            assert abs(value - success_probability(strategy)) <= 1e-12
            squares = np.concatenate([(u[k] ** 2).sum(1), (m[k] ** 2).sum(1), (y[al > 0] ** 2).sum(1)])
            assert np.abs(np.einsum("ij,jk,ik->i", qp.rows, gram, qp.rows) - squares).max() <= 1e-12
            assert bounds[:6] == [1] * 6
            assert bounds[6:] == [Fraction(a) ** 2 for a in al[al > 0]]

    @pytest.mark.parametrize(
        "held", [(False, False, False), (True, False, False), (False, True, False), (False, False, True)]
    )
    def test_structure_is_cached_and_exact(self, held):
        qp = quantum_bound._quadratic_program(held)
        assert quantum_bound._quadratic_program(held) is qp
        for exact, approx, factor in ((qp.thrice_rows, qp.rows, 3), (qp.twice_objective, qp.objective, 2)):
            assert exact.dtype == object and all(type(x) is int for x in exact.flat)
            assert np.array_equal(exact.astype(float), factor * approx)

    @pytest.mark.parametrize("alpha", [(2 / 3, 2 / 3, 2 / 3), (0.0, 1.0, 1.0), (0.9, 0.6, 0.5)])
    def test_upper_bounds_random_strategies(self, alpha):
        rng = np.random.default_rng(7)
        al = AlphaTriple(alpha).as_array()
        upper = quantum_value(alpha).upper
        u = oracles.random_feasible_first_blochs(rng, 300)
        # the best measurement for each sampled preparation triple
        y = zero_sum_alignment(quantum_opt._pair_sums(u), al)
        best = max(success_probability(quantum_opt._strategy(u[k], y[k], al)) for k in range(300))
        assert best <= upper

    def test_scaled_multipliers_are_rejected(self):
        alpha = AlphaTriple.symmetric(2 / 3)
        qp, bounds, constant, mu = _certificate_inputs(alpha)
        upper = quantum_bound._certified_upper(qp, bounds, constant, mu)
        assert 0 <= upper - Fraction(QUANTUM_OPTIMUM) <= BRACKET_TOL
        assert quantum_bound._certified_upper(qp, bounds, constant, 0.99 * mu) is None
        assert oracles.certified_upper(qp, bounds, constant, 0.99 * mu) is None

    @pytest.mark.parametrize("name", ["lattice", "slice", "dirichlet"])
    def test_matches_fraction_oracle(self, name):
        """certify returns the Fraction (or None) of the LDL^T oracle on the
        1/64 lattice, the 0.01 slice grid and 200 seeded Dirichlet points."""
        if name == "lattice":
            n = 64
            points = [(1 - i / n, 1 - j / n, (i + j) / n) for i in range(n + 1) for j in range(n + 1 - i)]
            assert len(points) == 2145
        elif name == "slice":
            points = [AlphaTriple.symmetric(round(0.01 * k, 12)) for k in range(101)]
        else:
            points = [tuple(1.0 - b) for b in np.random.default_rng(2718).dirichlet(np.ones(3), size=200)]
        for alpha in points:
            alpha = AlphaTriple(tuple(alpha))
            strategy = quantum_opt._trine_strategy(alpha)
            want = oracles.certified_upper(*_certificate_inputs(alpha, strategy))
            got = quantum_bound.certify(alpha, strategy)
            assert type(got) is type(want) and got == want, alpha

    @pytest.mark.parametrize("alpha0", [0.0, 1.0])
    @pytest.mark.parametrize("tiny", [1e-300, 5e-324, 2.2250738585072014e-308 / 3])
    @pytest.mark.parametrize("factor", [1.0, 0.99])
    def test_big_integer_scale_matches_oracle(self, alpha0, tiny, factor):
        """Tiny multipliers (a subnormal among them) on constraints inactive
        at the trine strategy put the common denominator D far above 2^63."""
        qp, bounds, constant, mu = _certificate_inputs(AlphaTriple.symmetric(alpha0))
        mu = factor * mu
        mu[np.flatnonzero(mu == 0.0)[:2]] = (tiny, 1e-300)
        assert max(float(m).as_integer_ratio()[1] for m in mu) > 2**900
        got = quantum_bound._certified_upper(qp, bounds, constant, mu)
        assert got == oracles.certified_upper(qp, bounds, constant, mu)
        assert (got is None) == (factor < 1)

    def test_bareiss_verdict_matches_ldl_on_large_integers(self):
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(300):
            size = int(rng.integers(1, 7))
            factor = rng.integers(-9, 10, size=(size, size)).astype(object) * 2**200
            shift = int(rng.integers(-3, 4)) << 400
            matrix = factor @ factor.T + shift * np.eye(size, dtype=int).astype(object)
            verdict = quantum_bound._positive_definite(matrix)
            assert verdict == oracles.positive_definite_ldl(matrix)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_import_does_not_load_the_certificate(self):
        src = str(Path(trinegame.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, trinegame; sys.exit('fractions' in sys.modules or 'trinegame.quantum_bound' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
