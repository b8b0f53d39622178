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
            qp = quantum_bound._quadratic_program(al)
            z = quantum_bound._gram_coordinates(strategy, qp.lift)
            assert np.abs(qp.lift @ z - np.concatenate([u[k], y])).max() <= 1e-12
            gram = z @ z.T
            assert qp.constant == sum(Fraction(a) for a in al) / 6
            value = al.sum() / 6 + np.sum(qp.objective.astype(float) * gram) / 12
            assert abs(value - success_probability(strategy)) <= 1e-12
            squares = np.concatenate([(u[k] ** 2).sum(1), (m[k] ** 2).sum(1), (y[al > 0] ** 2).sum(1)])
            rows = qp.rows.astype(float)
            assert np.abs(np.einsum("ij,jk,ik->i", rows, gram, rows) - squares).max() <= 1e-12
            assert list(qp.bounds[6:]) == [Fraction(a) ** 2 for a in al[al > 0]]

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
        qp = quantum_bound._quadratic_program(alpha.as_array())
        z = quantum_bound._gram_coordinates(quantum_opt._trine_strategy(alpha), qp.lift)
        mu = quantum_bound._multipliers(qp, z)
        upper = quantum_bound._certified_upper(qp, mu)
        assert 0 <= upper - Fraction(QUANTUM_OPTIMUM) <= BRACKET_TOL
        assert quantum_bound._certified_upper(qp, 0.99 * mu) is None

    def test_import_does_not_load_the_certificate(self):
        src = str(Path(trinegame.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, trinegame; sys.exit('fractions' in sys.modules or 'trinegame.quantum_bound' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
