"""Simulation of optimal symmetric phase-covariant 1-to-2 cloning of
single-photon qubits, including the dominant imperfections of four
linear-optical implementations and their coincidence-counting statistics."""

from .fock import (
    BasisSet,
    DensityMatrix,
    Mode,
    Port,
    Qubit,
    Rail,
    StateVector,
    Temporal,
    TwoQubitState,
    apply_attenuator,
    apply_rail_phase,
    apply_two_mode_coupler,
    fidelity,
    postselect_coincidence,
    two_photon_basis,
)
from .cloners import (
    CloneBatch,
    CloneReport,
    ClonerParams,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    F_PHASE_COVARIANT,
    F_SEMICLASSICAL,
    F_UNIVERSAL,
    R_OPTIMAL,
    analyzer_projection,
    circuit_joint_state,
    ideal_clone_report,
    ideal_pc_map,
    mz_splitting,
    run_model,
    run_model_batch,
    theoretical_limits,
)
from .noise import (
    NoiseConfig,
    average_over_jitter,
    balanced_coincidence_probability,
    hom_visibility,
    sample_phase_jitter,
    with_distinguishability,
)
from .counting import (
    CoincidenceRecord,
    CountingSetup,
    DetectorBank,
    balance_detectors,
    estimator_sigma,
    fidelity_from_counts,
    fidelity_from_rates,
    outcome_distribution,
    simulate_counts,
    success_probability_estimate,
)
from .compensation import (
    CompensationSolution,
    OptimizationResult,
    optimize_symmetry,
    solve_hybrid_compensation,
    solve_ideal_reflectance,
)

__version__ = "0.1.0"
