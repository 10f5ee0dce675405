"""Imperfection channels: partial distinguishability and phase jitter.

Distinguishability is modeled by preparing the ancilla photon in a temporal
wavepacket M * principal + sqrt(1 - M^2) * orthogonal; detectors sum over
temporal bins incoherently.  Interference visibility on a balanced coupler
is then V = M^2.  Evaluations at any M take the closed sector kernel
(:func:`conditional_sector_vectors`); :func:`with_distinguishability` runs
the two-bin Fock circuit (8 modes) and serves as its independent check, and
:func:`balanced_coincidence_probability` is the same engine on one coupler.

Phase jitter is a zero-mean Gaussian random walk of the interferometer phase,
reset to zero at every stabilization step.  Only the interferometric
architectures respond to it: a Mach-Zehnder model sees the error on both arm
phases, a fiber model as a drift of the relative phase between its rails.
The special-BS and hybrid devices have no stabilized interference path and
are unaffected.  The walk is generated in pieces of at most ``_CHUNK``
trials (:func:`_jitter_walk`), so the jitter average and the counting
kernel hold one piece at a time whatever the number of trials and the reset
period; :func:`sample_phase_jitter` joins the pieces into one array.
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
from .fock import Qubit, TwoQubitState, coupler, photon_pair, postselect_coincidence

#: trials per piece of the jitter walk, and so per step of the jitter kernels:
#: small enough that a piece's complex temporaries (128 kB each) stay in the
#: core's cache, large enough that the Python work per piece stays small
_CHUNK = 1 << 13


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
    modes = np.eye(8)
    ancilla = M * modes[2] + math.sqrt(max(0.0, 1.0 - M * M)) * modes[6]
    u = np.kron(np.eye(2), coupler(0, 2, math.sqrt(0.5), math.sqrt(0.5)))
    return postselect_coincidence(u @ photon_pair(modes[0], ancilla) @ u.T)[1]


def hom_visibility(M: float) -> float:
    """Dip visibility V = 1 - P_coinc(M) / P_coinc(0) on a balanced coupler."""
    baseline = balanced_coincidence_probability(0.0)
    return 1.0 - balanced_coincidence_probability(M) / baseline


def _jitter_walk(config: NoiseConfig, rng_seed, n_trials: int):
    """Yield the walk of :func:`sample_phase_jitter` in pieces of ``_CHUNK`` trials.

    The steps come from one ``normal`` stream, drawn piece by piece.  Each
    piece is summed in place in the order of one cumulative sum per reset
    block: the block cut by the start of the piece continues from the last
    value of the previous piece, whole blocks follow, and a cut block at
    the end carries over.  Only one piece is held at a time.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(rng_seed)
    period = config.jitter_reset_period
    level = 0.0
    for start in range(0, n_trials, _CHUNK):
        walk = rng.normal(0.0, config.phase_jitter_sigma,
                          size=min(_CHUNK, n_trials - start))
        head = min(-start % period, walk.size)
        if head:
            walk[0] += level
            np.cumsum(walk[:head], out=walk[:head])
        n_blocks = (walk.size - head) // period
        blocks = walk[head:head + n_blocks * period].reshape(n_blocks, period)
        blocks[:, 0] = 0.0
        np.cumsum(blocks, axis=1, out=blocks)
        tail = walk[head + n_blocks * period:]
        if tail.size:
            tail[0] = 0.0
            np.cumsum(tail, out=tail)
        level = walk[-1]
        yield walk


def sample_phase_jitter(config: NoiseConfig, rng_seed, n_trials: int) -> np.ndarray:
    """Per-trial phase errors: Gaussian random walk with periodic reset.

    The walk restarts at zero on every stabilization trial (trial indices
    0, period, 2*period, ...).  Deterministic for a fixed seed.
    """
    return np.concatenate(list(_jitter_walk(config, rng_seed, n_trials)))


def _pooled_report(chunks, n_trials: int, input: Qubit) -> CloneReport:
    """Success-weighted mixture of the sector vectors of every chunk of trials."""
    total = 0.0
    moment = 0.0
    for vectors in chunks:
        v = vectors.reshape(-1, 4)
        total += float(np.einsum("si,si->s", v.conj(), v).real.sum())
        moment = moment + np.einsum("si,sj->ij", v, v.conj())
    if total <= 0.0:
        return CloneReport.empty(input)
    return CloneReport.from_joint(TwoQubitState(moment / total), total / n_trials, input)


def report_from_sectors(vectors: np.ndarray, input: Qubit) -> CloneReport:
    """Pool trial sector vectors into one report (success-weighted mixture)."""
    return _pooled_report((vectors,), vectors.shape[0], input)


def average_over_jitter(
    model: ClonerParams,
    noise: NoiseConfig,
    input: Qubit,
    rng_seed,
    n_trials: int,
) -> CloneReport:
    """Mean behavior over a sampled jitter sequence.

    The returned report carries the success-probability-weighted mixture of
    the per-trial clone states and the mean success probability.  The
    sector vectors are pooled one chunk of the walk at a time.
    """
    if not model.responds_to_jitter or noise.phase_jitter_sigma == 0.0:
        return evaluate(model, noise, input)
    chunks = (conditional_sector_vectors(model, input, noise.overlap_M, phases)
              for phases in _jitter_walk(noise, rng_seed, n_trials))
    return _pooled_report(chunks, n_trials, input)


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
