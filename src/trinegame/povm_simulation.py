"""Simulation of odd-n equatorial POVMs by mixtures of three-outcome POVMs.

The n-outcome equatorial POVM has effects (2/n) pi_k with pi_k at Bloch
angle 2 pi k / n in the xz plane.  Tossing a fair n-sided coin and, on
outcome o, measuring the three-outcome POVM

    M^o = { h0 pi_o,  h1 pi_{o+(n-1)/2},  h1 pi_{o+(n+1)/2} }      (mod n)

with h0 = 2 cos(pi/n) / (1 + cos(pi/n)) and h1 = 1 / (1 + cos(pi/n))
reproduces the parent statistics exactly: each projector pi_k appears in
three members with coefficients summing to 2, giving back weight 2/n.

``simulator_set`` stacks the 3n member effects once, member by member, as
one table (labels, weights, Bloch parts); one ``np.add.at`` over it mixes
by label, both the effect coordinates and the outcome probabilities.

Rank-one POVMs are extremal exactly when their effects are linearly
independent as Hermitian operators; the certificate is the rank of their
coordinate matrix.  Each M^o is extremal while the parent (n > 3) is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit_core import (
    DEFAULT_TOL,
    Povm,
    povm_from_weighted_projectors,
    random_state,
    xz_direction,
)


def _check_n(n: int) -> int:
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd outcome count n >= 3, got {n}")
    return n


def equatorial_angle(n: int, k: int) -> float:
    return 2.0 * np.pi * k / n


@dataclass(frozen=True, eq=False)
class EquatorialPovm:
    n: int
    povm: Povm

    @property
    def weight(self) -> float:
        return 2.0 / self.n


@dataclass(frozen=True, eq=False)
class SimulatorMember:
    """Three-outcome POVM M^o with the parent labels its outcomes report."""

    o: int
    labels: tuple          # parent outcome announced for each effect
    povm: Povm


@dataclass(frozen=True, eq=False)
class SimulatorSet:
    n: int
    h0: float
    h1: float
    members: tuple
    labels: np.ndarray     # (3n,) parent label of each member effect, member by member
    weights: np.ndarray    # (3n,) weights of those effects
    vecs: np.ndarray       # (3n, 3) their Bloch parts


@dataclass(frozen=True, eq=False)
class SimulationReport:
    n: int
    element_residual: float        # worst coordinate error of the mixed effects
    statistical_residual: float    # worst outcome-probability error over N_STATES states
    passed: bool


def equatorial_povm(n: int) -> EquatorialPovm:
    """The n-outcome POVM {(2/n) pi_k} on the xz great circle."""
    n = _check_n(n)
    dirs = [xz_direction(equatorial_angle(n, k)) for k in range(n)]
    return EquatorialPovm(n, povm_from_weighted_projectors([2.0 / n] * n, dirs))


def simulation_coefficients(n: int) -> tuple[float, float]:
    n = _check_n(n)
    c = np.cos(np.pi / n)
    return 2.0 * c / (1.0 + c), 1.0 / (1.0 + c)


def simulator_set(n: int) -> SimulatorSet:
    """The n three-outcome members whose uniform mixture simulates the parent."""
    n = _check_n(n)
    h0, h1 = simulation_coefficients(n)
    members = []
    for o in range(n):
        labels = (o, (o + (n - 1) // 2) % n, (o + (n + 1) // 2) % n)
        dirs = [xz_direction(equatorial_angle(n, k)) for k in labels]
        povm = povm_from_weighted_projectors((h0, h1, h1), dirs)
        members.append(SimulatorMember(o, labels, povm))
    weights = np.concatenate([member.povm.weights for member in members])
    vecs = np.concatenate([member.povm.vecs for member in members])
    labels = np.array([member.labels for member in members]).reshape(-1)
    return SimulatorSet(n, h0, h1, tuple(members), labels, weights, vecs)


def _sum_by_label(sim: SimulatorSet, rows: np.ndarray) -> np.ndarray:
    """Sum the rows (3n, ...) of the member effects into one row per parent
    label, adding them in member order."""
    out = np.zeros((sim.n,) + rows.shape[1:])
    np.add.at(out, sim.labels, rows)
    return out


def mixed_effect_coords(sim: SimulatorSet) -> np.ndarray:
    """Coordinates (w, vx, vy, vz) of the uniformly mixed relabeled effects."""
    return _sum_by_label(sim, np.column_stack([sim.weights, sim.vecs]) / sim.n)


N_STATES = 100  # random states drawn by ``verify_simulation``
ELEMENT_TOL = 1e-12  # bound on ``element_residual``
STATISTICAL_TOL = 1e-10  # bound on ``statistical_residual``


def verify_simulation(n: int, seed: int = 0) -> SimulationReport:
    """Element-wise and statistical agreement of the mixture with the
    parent; the outcome probabilities w + v.b are one matrix product over
    N_STATES ``random_state`` draws from ``default_rng(seed)``.  It passes
    when the residuals are at most ELEMENT_TOL and STATISTICAL_TOL."""
    n = _check_n(n)
    sim = simulator_set(n)
    parent = equatorial_povm(n).povm
    target = np.column_stack([parent.weights, parent.vecs])
    element_residual = float(np.max(np.abs(mixed_effect_coords(sim) - target)))

    rng = np.random.default_rng(seed)
    states = np.array([random_state(rng).bloch for _ in range(N_STATES)])
    p_parent = parent.weights + states @ parent.vecs.T
    p_mix = _sum_by_label(sim, (sim.weights + states @ sim.vecs.T).T).T / n
    stat_residual = float(np.max(np.abs(p_parent - p_mix)))
    passed = element_residual <= ELEMENT_TOL and stat_residual <= STATISTICAL_TOL
    return SimulationReport(n, element_residual, stat_residual, passed)


@dataclass(frozen=True, eq=False)
class ExtremalityCertificate:
    applicable: bool               # all effects rank-one?
    extremal: bool | None
    gram_rank: int | None
    n_effects: int
    singular_values: tuple

    def __bool__(self) -> bool:
        return bool(self.extremal)


def is_extremal_rank_one(povm: Povm) -> ExtremalityCertificate:
    """Rank-one POVMs are extremal iff their effects are linearly independent;
    the certificate is the rank of the effect-coordinate matrix.  Rank one
    and rank are both decided at ``DEFAULT_TOL``."""
    n = len(povm)
    if not all(e.is_rank_one() for e in povm.effects):
        return ExtremalityCertificate(False, None, None, n, ())
    svals = np.linalg.svd(np.column_stack([povm.weights, povm.vecs]), compute_uv=False)
    rank = int(np.sum(svals > DEFAULT_TOL))
    return ExtremalityCertificate(True, rank == n, rank, n, tuple(svals))
