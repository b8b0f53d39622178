"""Acceptance suite: every headline quantity at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to stream them).
"""

import numpy as np
import pytest

from trinegame import classical_bound, measurement_classicality as mc, nc_bound, povm_simulation
from trinegame.game import (
    check_parity_concealment,
    derived_second_blochs,
    success_probability,
)
from trinegame.qubit_core import (
    DensityState,
    born_probability,
    povm_from_weighted_projectors,
    random_povm,
    random_state,
    xz_direction,
)
from trinegame.quantum_opt import (
    QUANTUM_OPTIMUM,
    AlphaTriple,
    analytic_optimal_strategy,
    optimize_quantum,
)

import oracles

RESTARTS = 32


def _report(criterion: str, passed: bool, detail: str):
    print(f"acceptance [{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def quantum_values():
    values = {}
    for key, alpha0 in (("zero", 0.0), ("symmetric", 2 / 3), ("one", 1.0)):
        values[key] = optimize_quantum(AlphaTriple.symmetric(alpha0), restarts=RESTARTS, seed=0).value
    return values


@pytest.fixture(scope="module")
def nc_values():
    return {
        "zero": nc_bound.nc_value((0, 1, 1)),
        "symmetric": nc_bound.nc_value((2 / 3, 2 / 3, 2 / 3)),
        "one": nc_bound.nc_value((1, 0.5, 0.5)),
    }


@pytest.fixture(scope="module")
def classical_optimum():
    value, witness = classical_bound.optimize_classical()
    return value, witness


def test_criterion_01_quantum_optimum(quantum_values):
    analytic = success_probability(analytic_optimal_strategy())
    ok_analytic = abs(analytic - QUANTUM_OPTIMUM) <= 1e-12
    ok_numeric = abs(quantum_values["symmetric"] - QUANTUM_OPTIMUM) <= 1e-4
    _report(
        "01 quantum optimum",
        ok_analytic and ok_numeric,
        f"analytic={analytic:.15f} numeric={quantum_values['symmetric']:.10f} "
        f"target={QUANTUM_OPTIMUM:.15f}",
    )


def test_criterion_02_nc_special_case(nc_values):
    ok = abs(nc_values["symmetric"] - 0.5) <= 1e-9
    _report("02 nc bound at symmetric weights", ok, f"value={nc_values['symmetric']:.12f} target=0.5")


def test_criterion_03_nc_extremes_and_global(nc_values):
    ok_ext = abs(nc_values["one"] - 7 / 12) <= 1e-9 and abs(nc_values["zero"] - 7 / 12) <= 1e-9
    global_max, arg = nc_bound.nc_global_max()
    ok_global = abs(global_max - 7 / 12) <= 1e-6
    _report(
        "03 nc extremes and global maximum",
        ok_ext and ok_global,
        f"extremes=({nc_values['one']:.12f}, {nc_values['zero']:.12f}) "
        f"global={global_max:.12f} at alpha={tuple(round(a, 4) for a in arg)}",
    )


def test_criterion_04_contextuality_gap(quantum_values, nc_values):
    gap = quantum_values["symmetric"] - nc_values["symmetric"]
    ok_gap = gap >= 0.122 - 1e-3
    edge0 = abs(quantum_values["zero"] - nc_values["zero"])
    edge1 = abs(quantum_values["one"] - nc_values["one"])
    ok_edges = edge0 <= 2e-4 and edge1 <= 2e-4
    _report(
        "04 contextuality gap",
        ok_gap and ok_edges,
        f"gap@2/3={gap:.6f} edge gaps=({edge0:.2e}, {edge1:.2e})",
    )


def test_criterion_05_classical_bound(classical_optimum):
    value, witness = classical_optimum
    ok_value = abs(value - 7 / 12) <= 1e-9
    rng = np.random.default_rng(515)
    worst = max(
        classical_bound.classical_value(oracles.random_feasible_strategy(rng))
        for _ in range(10_000)
    )
    ok_samples = worst <= 7 / 12 + 1e-9
    _report(
        "05 classical bound",
        ok_value and ok_samples,
        f"optimum={value:.12f} worst-of-10000={worst:.6f}",
    )


def test_criterion_06_qubit_advantage(quantum_values, classical_optimum):
    advantage = quantum_values["symmetric"] - classical_optimum[0]
    ok = advantage >= 0.0386
    _report("06 qubit over c-bit advantage", ok, f"advantage={advantage:.6f} >= 0.0386")


def test_criterion_07_simulation_identity():
    residuals = {}
    for n in (3, 5, 7, 9):
        residuals[n] = povm_simulation.verify_simulation(n, tol=1e-12).element_residual
    ok_res = all(r < 1e-12 for r in residuals.values())
    h0, h1 = povm_simulation.simulation_coefficients(5)
    ok_h = abs(h0 - 0.894427) <= 1e-6 and abs(h1 - 0.552786) <= 1e-6
    _report(
        "07 simulation identity",
        ok_res and ok_h,
        f"max residual={max(residuals.values()):.2e} h0={h0:.6f} h1={h1:.6f}",
    )


def test_criterion_08_extremality():
    trine_ok = bool(povm_simulation.is_extremal_rank_one(povm_simulation.equatorial_povm(3).povm))
    parent = povm_simulation.is_extremal_rank_one(povm_simulation.equatorial_povm(5).povm)
    parent_ok = parent.applicable and parent.extremal is False
    members_ok = all(
        bool(povm_simulation.is_extremal_rank_one(m.povm))
        for m in povm_simulation.simulator_set(5).members
    )
    _report(
        "08 extremality",
        trine_ok and parent_ok and members_ok,
        f"trine={trine_ok} five-outcome parent extremal={parent.extremal} members={members_ok}",
    )


def test_criterion_09_incompatibility():
    sim = povm_simulation.simulator_set(5)
    ensemble = mc.carmeli_ensemble()
    report = mc.guessing_report(ensemble, sim.members[0].povm, sim.members[1].povm)
    ok_prior = abs(report.p_prior - 2 / 3) <= 1e-12
    ok_upper = report.p_post_upper < 0.64
    ok_dual = report.dual_feasibility_margin(ensemble) >= -1e-10
    ok_margin = report.witness_margin > 0.02
    flagged = sum(
        mc.joint_measurability_check(sim.members[o].povm, sim.members[o2].povm, 64).verdict
        == "incompatible"
        for o in range(5)
        for o2 in range(o + 1, 5)
    )
    _report(
        "09 incompatibility",
        ok_prior and ok_upper and ok_dual and ok_margin and flagged == 10,
        f"prior={report.p_prior:.12f} post_upper={report.p_post_upper:.6f} "
        f"margin={report.witness_margin:.6f} pairs={flagged}/10 "
        f"(reference post value 0.629 recorded, not targeted)",
    )


def test_criterion_10_antidistinguishability():
    states = [DensityState(xz_direction(2 * np.pi * b / 3)) for b in range(3)]
    povm = mc.antidistinguishing_povm(states)
    worst = max(abs(born_probability(states[b], povm.effects[b])) for b in range(3))
    _report("10 anti-distinguishability", worst < 1e-14, f"max overlap={worst:.2e}")


def test_criterion_11_coherence_classification():
    trine = povm_from_weighted_projectors(
        [2 / 3] * 3, [xz_direction(2 * np.pi * b / 3) for b in range(3)]
    )
    ok_trine = not mc.is_free_in_any_basis(trine).free_in_some_basis
    psi0 = xz_direction(-np.pi / 6)
    sharp1 = povm_from_weighted_projectors((1.0, 0.5, 0.5), [psi0, -psi0, -psi0])
    from trinegame.qubit_core import Effect, Povm

    sharp0 = Povm((Effect(0.0, (0, 0, 0)), Effect(0.5, 0.5 * psi0), Effect(0.5, -0.5 * psi0)))
    ok_degenerate = (
        mc.is_free_in_any_basis(sharp1).free_in_some_basis
        and mc.is_free_in_any_basis(sharp0).free_in_some_basis
    )
    from trinegame.cli import random_collinear_povm

    rng = np.random.default_rng(11)
    agree = 0
    for idx in range(1000):
        povm = random_collinear_povm(rng) if idx % 2 else random_povm(rng, 3)
        a = mc.all_effects_collinear(povm)
        b = oracles.commutators_vanish(povm)
        c = mc.is_free_in_any_basis(povm).free_in_some_basis
        agree += a == b == c
    _report(
        "11 coherence classification",
        ok_trine and ok_degenerate and agree == 1000,
        f"trine_free={not ok_trine} degenerate_free={ok_degenerate} agreement={agree}/1000",
    )


def test_criterion_12_property_suites():
    rng = np.random.default_rng(1212)
    born_ok = True
    for _ in range(1000):
        probs = oracles.outcome_probabilities(random_state(rng), random_povm(rng, 3))
        born_ok &= bool(np.all(probs >= -1e-12) and abs(probs.sum() - 1) <= 1e-12)

    lp_ok = True
    from test_lp_engine import random_feasible_lp

    for _ in range(100):
        c, lp = random_feasible_lp(rng)
        mine = lp.maximize(c).value
        ref = oracles.lp_best_vertex_value(c, lp.a, lp.b, lp.lower, lp.upper)
        lp_ok &= abs(mine - ref) <= 1e-9

    n = 10_000
    u = oracles.random_feasible_first_blochs(rng, n)
    m = derived_second_blochs(u)
    w = rng.dirichlet(np.ones(3), size=n)
    radii = np.minimum(w, 1 - w)
    v = rng.normal(size=(n, 3, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    v *= (radii * rng.uniform(size=(n, 3)))[:, :, None]
    for _ in range(80):
        v -= v.mean(axis=1, keepdims=True)
        scale = np.minimum(1.0, radii / np.maximum(np.linalg.norm(v, axis=2), 1e-15))
        v *= scale[:, :, None]
    v -= v.mean(axis=1, keepdims=True)
    over = (np.linalg.norm(v, axis=2) / np.maximum(radii, 1e-12)).max(axis=1)
    v /= np.maximum(over, 1.0)[:, None, None]
    pair = u + m[:, (2, 0, 1), :]
    values = (2 * w.sum(axis=1) + np.einsum("nbk,nbk->n", v, pair)) / 6.0
    ceiling_ok = bool(values.max() <= QUANTUM_OPTIMUM + 1e-9)

    _report(
        "12 property suites",
        born_ok and lp_ok and ceiling_ok,
        f"born={born_ok} lp_vs_oracle={lp_ok} "
        f"strategy ceiling worst={values.max():.10f} <= {QUANTUM_OPTIMUM:.10f}",
    )
