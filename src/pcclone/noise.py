"""Imperfection channels: partial distinguishability and phase jitter.

Distinguishability is modeled by preparing the ancilla photon in a temporal
wavepacket M * principal + sqrt(1 - M^2) * orthogonal; detectors sum over
temporal bins incoherently.  Interference visibility on a balanced coupler
is then V = M^2.  Evaluations at any M take the closed sector kernel
(:func:`conditional_sector_vectors`); :func:`with_distinguishability` runs
the full 8-mode Fock circuit and serves as its independent check.

Phase jitter is a zero-mean Gaussian random walk of the interferometer phase,
reset to zero at every stabilization step.  Only the interferometric
architectures respond to it: a Mach-Zehnder model sees the error on both arm
phases, a fiber model as a drift of the relative phase between its rails.
The special-BS and hybrid devices have no stabilized interference path and
are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloners import (
    CloneBatch,
    CloneReport,
    ClonerParams,
    _evaluate_inputs,
    circuit_joint_state,
    conditional_sector_vectors,
    run_model,
)
from .fock import (
    Mode,
    Port,
    Qubit,
    Rail,
    StateVector,
    Temporal,
    TwoQubitState,
    apply_two_mode_coupler,
    postselect_coincidence,
    two_photon_basis,
)


@dataclass(frozen=True)
class NoiseConfig:
    """Trial-level imperfection settings.

    ``overlap_M`` is the temporal-mode amplitude overlap of signal and
    ancilla (1 = indistinguishable).  ``phase_jitter_sigma`` is the standard
    deviation of the per-trial phase increment (radians) and
    ``jitter_reset_period`` the number of trials between stabilizations.
    """

    overlap_M: float = 1.0
    phase_jitter_sigma: float = 0.0
    jitter_reset_period: int = 100

    def __post_init__(self):
        if not 0.0 <= self.overlap_M <= 1.0:
            raise ValueError(f"overlap_M must lie in [0, 1], got {self.overlap_M}")
        if not (math.isfinite(self.phase_jitter_sigma)
                and self.phase_jitter_sigma >= 0.0):
            raise ValueError(
                "phase_jitter_sigma must be finite and >= 0, "
                f"got {self.phase_jitter_sigma}"
            )
        period = self.jitter_reset_period
        if isinstance(period, bool) or not isinstance(period, (int, np.integer)):
            raise ValueError(f"jitter_reset_period must be an integer, got {period!r}")
        if period < 1:
            raise ValueError(
                f"jitter_reset_period must be >= 1, got {self.jitter_reset_period}"
            )


def with_distinguishability(model: ClonerParams, M: float, input: Qubit) -> CloneReport:
    """Evaluate a cloner with ancilla temporal overlap M via the 8-mode circuit."""
    if not 0.0 <= M <= 1.0:
        raise ValueError(f"overlap M must lie in [0, 1], got {M}")
    joint, p = circuit_joint_state(model, input, ancilla_overlap=M)
    return CloneReport.from_joint(joint, p, input)


def balanced_coincidence_probability(M: float) -> float:
    """Coincidence probability for two photons meeting on a 50:50 coupler."""
    if not 0.0 <= M <= 1.0:
        raise ValueError(f"overlap M must lie in [0, 1], got {M}")
    basis = two_photon_basis(8)
    m_orth = math.sqrt(max(0.0, 1.0 - M * M))
    in1 = Mode(Port.OUT1, Rail.R0, Temporal.PRINCIPAL)
    in2p = Mode(Port.OUT2, Rail.R0, Temporal.PRINCIPAL)
    in2o = Mode(Port.OUT2, Rail.R0, Temporal.ORTHOGONAL)
    terms = [(M, {in1: 1, in2p: 1})]
    if m_orth > 0.0:
        terms.append((m_orth, {in1: 1, in2o: 1}))
    state = StateVector.from_terms(basis, terms)
    half = math.sqrt(0.5)
    for tau in (Temporal.PRINCIPAL, Temporal.ORTHOGONAL):
        state = apply_two_mode_coupler(
            state,
            Mode(Port.OUT1, Rail.R0, tau),
            Mode(Port.OUT2, Rail.R0, tau),
            half,
            half,
        )
    _, prob = postselect_coincidence(state)
    return prob


def hom_visibility(M: float) -> float:
    """Dip visibility V = 1 - P_coinc(M) / P_coinc(0) on a balanced coupler."""
    baseline = balanced_coincidence_probability(0.0)
    return 1.0 - balanced_coincidence_probability(M) / baseline


def sample_phase_jitter(config: NoiseConfig, rng_seed, n_trials: int) -> np.ndarray:
    """Per-trial phase errors: Gaussian random walk with periodic reset.

    The walk restarts at zero on every stabilization trial (trial indices
    0, period, 2*period, ...).  Deterministic for a fixed seed.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(rng_seed)
    period = config.jitter_reset_period
    steps = rng.normal(0.0, config.phase_jitter_sigma, size=n_trials)
    n_blocks = -(-n_trials // period)
    padded = np.zeros(n_blocks * period)
    padded[:n_trials] = steps
    blocks = padded.reshape(n_blocks, period)
    blocks[:, 0] = 0.0
    return np.cumsum(blocks, axis=1).reshape(-1)[:n_trials]


def report_from_sectors(vectors: np.ndarray, input: Qubit) -> CloneReport:
    """Pool trial sector vectors into one report (success-weighted mixture)."""
    v = vectors.reshape(-1, 4)
    weights = np.einsum("si,si->s", v.conj(), v).real
    total = float(weights.sum())
    n_trials = vectors.shape[0]
    if total <= 0.0:
        return CloneReport.empty(input)
    rho = np.einsum("si,sj->ij", v, v.conj()) / total
    return CloneReport.from_joint(TwoQubitState(rho), total / n_trials, input)


def average_over_jitter(
    model: ClonerParams,
    noise: NoiseConfig,
    input: Qubit,
    rng_seed,
    n_trials: int,
) -> CloneReport:
    """Mean behavior over a sampled jitter sequence.

    The returned report carries the success-probability-weighted mixture of
    the per-trial clone states and the mean success probability.
    """
    if not model.responds_to_jitter or noise.phase_jitter_sigma == 0.0:
        return evaluate(model, noise, input)
    phases = sample_phase_jitter(noise, rng_seed, n_trials)
    vectors = conditional_sector_vectors(model, input, noise.overlap_M, phases)
    return report_from_sectors(vectors, input)


def _overlap(noise: NoiseConfig | None) -> float:
    return 1.0 if noise is None else noise.overlap_M


def evaluate(model: ClonerParams, noise: NoiseConfig | None, input: Qubit) -> CloneReport:
    """Single deterministic evaluation honoring the distinguishability setting."""
    overlap = _overlap(noise)
    if overlap >= 1.0:
        return run_model(model, input)
    return report_from_sectors(conditional_sector_vectors(model, input, overlap), input)


def evaluate_batch(model: ClonerParams, noise: NoiseConfig | None,
                   inputs) -> tuple[CloneBatch, np.ndarray]:
    """:func:`evaluate` over many inputs in one closed-form call.

    Returns the :class:`CloneBatch` and the (n, 4, 4) joint states, zero on
    rows with no success.
    """
    return _evaluate_inputs(model, inputs, _overlap(noise))
