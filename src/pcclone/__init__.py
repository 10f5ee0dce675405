"""Simulation of optimal symmetric phase-covariant 1-to-2 cloning of
single-photon qubits, including the dominant imperfections of four
linear-optical implementations and their coincidence-counting statistics."""

from .fock import (
    Port,
    Qubit,
    TwoQubitState,
    attenuator,
    coupler,
    fidelity,
    photon_pair,
    postselect_coincidence,
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
    circuit_joint_state,
    run_model,
    run_model_batch,
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
    outcome_distribution,
    simulate_counts,
    success_probability_estimate,
)
from .compensation import (
    CompensationSolution,
    OptimizationResult,
    optimize_symmetry,
    solve_hybrid_compensation,
)

__version__ = "0.1.0"
