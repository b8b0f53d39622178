"""Qubit prepare-and-measure game bounds, POVM simulability and
incompatibility certificates, all in real Bloch coordinates."""

from .qubit_core import (
    DEFAULT_TOL,
    DensityState,
    Effect,
    InvalidEffectError,
    InvalidPovmError,
    InvalidStateError,
    Povm,
    born_probability,
    povm_from_weighted_projectors,
    projector_effect,
    xz_direction,
)
from .game import (
    GameStrategy,
    InfeasiblePreparationError,
    check_parity_concealment,
    complete_preparations,
    success_probability,
)
from .quantum_opt import (
    QUANTUM_OPTIMUM,
    AlphaTriple,
    OptimizationResult,
    QuantumValue,
    analytic_optimal_strategy,
    optimize_quantum,
    quantum_value,
    trine_preparation_value,
)
from .lp_engine import LpFamily, LpNumericalError, LpSolution
from .nc_bound import nc_global_max, nc_value, nc_value_all_assignments
from .classical_bound import (
    CLASSICAL_OPTIMUM,
    ClassicalStrategy,
    classical_value,
    optimize_classical,
)
from .povm_simulation import (
    EquatorialPovm,
    SimulatorSet,
    equatorial_povm,
    is_extremal_rank_one,
    simulator_set,
    verify_simulation,
)
from .measurement_classicality import (
    CoplanarityError,
    GuessingReport,
    PartitionedEnsemble,
    antidistinguishing_povm,
    carmeli_ensemble,
    certified_incompatible,
    dephase,
    guessing_report,
    is_free_in_any_basis,
    is_free_povm,
    joint_measurability_check,
    prior_guess,
)

__version__ = "0.1.0"
