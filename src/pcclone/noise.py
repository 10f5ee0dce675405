"""Imperfection channels: partial distinguishability and phase jitter.

Distinguishability is modeled by preparing the ancilla photon in a temporal
wavepacket M * principal + sqrt(1 - M^2) * orthogonal; detectors sum over
temporal bins incoherently.  Interference visibility on a balanced coupler
is then V = M^2.  ``run_model(..., overlap_M=M)`` evaluates any M in closed
form; :func:`with_distinguishability`, its circuit route through the two-bin
Fock circuit (8 modes), is the independent check, and
:func:`balanced_coincidence_probability` is the same engine on one coupler.

Phase jitter is a zero-mean Gaussian random walk of the interferometer phase,
reset to zero at every stabilization step.  Only the interferometric
architectures respond to it: a Mach-Zehnder model sees the error on both arm
phases, a fiber model as a drift of the relative phase between its rails.
The special-BS and hybrid devices have no stabilized interference path and
are unaffected.  A device under jitter is described once: the pooled moment
sum_s v_s v_s^H of its sector vectors is a trigonometric polynomial in the
phase error, read off the device at 2K+1 phases (:func:`_moment_polynomial`).
The jitter average weights its coefficients by the harmonics summed over the
walk, and the counting kernel contracts them with its pattern vectors.  The
walk is generated in pieces of at most ``_CHUNK`` trials (:func:`_jitter_walk`),
so both hold one piece at a time whatever the number of trials and the reset
period.  The pieces of one walk share one buffer, each overwriting the last;
:func:`sample_phase_jitter` copies them, in order, into the one array it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloners import (
    CloneReport,
    ClonerParams,
    SpecialBSParams,
    _check_finite,
    _check_integer,
    _check_pairs,
    _check_unit_interval,
    circuit_joint_state,
    conditional_sector_vectors,
    run_model,
)
from .fock import MIN_SUCCESS, Qubit, TwoQubitState

#: trials per piece of the jitter walk, and so per step of the jitter kernels.
#: A piece's temporaries are real: its walk and uniforms (128 kB each, in
#: buffers reused for every piece) and the harmonics of the ~30% of trials
#: below the counting ceiling (~80 bytes each).  2^14 halves the ~35 numpy
#: calls per trial that 2^13 paid; 2^15 gains little more and costs ~1 MB
_CHUNK = 1 << 14

#: largest phase_jitter_sigma * jitter_reset_period.  A walk sums fewer than
#: ``period`` steps, and numpy's standard normal draws stay below 14 in
#: magnitude (the ziggurat tail gives at most r + 53 ln 2 / r, r ~ 3.65), so
#: every walk value stays below 14 * 1e300, far from float overflow (~1.8e308)
MAX_WALK_SPAN = 1e300


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
        _check_unit_interval("overlap_M", self.overlap_M)
        sigma = self.phase_jitter_sigma
        _check_finite("phase_jitter_sigma", sigma)
        if sigma < 0.0:
            raise ValueError(f"phase_jitter_sigma must be >= 0, got {sigma}")
        period = self.jitter_reset_period
        _check_integer("jitter_reset_period", period)
        if period < 1:
            raise ValueError(f"jitter_reset_period must be >= 1, got {period}")
        # compared as period > bound / sigma: a Python int period may be too
        # large to convert to a float
        if sigma > 0.0 and period > MAX_WALK_SPAN / sigma:
            raise ValueError(
                "phase_jitter_sigma times jitter_reset_period must be at most "
                f"{MAX_WALK_SPAN:g}, got {sigma!r} x {period}"
            )


def jittered(model: ClonerParams, noise: NoiseConfig) -> bool:
    """Whether the phase jitter of ``noise`` reaches ``model``'s interferometer."""
    return model.jitter_degree > 0 and noise.phase_jitter_sigma > 0.0


def with_distinguishability(model: ClonerParams, M: float, input: Qubit) -> CloneReport:
    """Evaluate a cloner with ancilla temporal overlap M via the 8-mode circuit."""
    return run_model(model, input, "circuit", M)


def balanced_coincidence_probability(M: float) -> float:
    """Coincidence probability for two photons meeting on a 50:50 coupler."""
    # a |0> signal meets the ancilla on the special BS's rail-0 coupler alone,
    # 50:50 at R0 = 0.5: circuit_joint_state builds its two-bin, 8-mode circuit
    return circuit_joint_state(SpecialBSParams(R0=0.5, R1=0.5), Qubit(0.0), M)[1]


def hom_visibility(M: float) -> float:
    """Dip visibility V = 1 - P_coinc(M) / P_coinc(0) on a balanced coupler."""
    baseline = balanced_coincidence_probability(0.0)
    return 1.0 - balanced_coincidence_probability(M) / baseline


def _jitter_walk(config: NoiseConfig, rng_seed, n_trials: int):
    """Yield the walk of :func:`sample_phase_jitter` in pieces of ``_CHUNK`` trials.

    The steps come from one standard normal stream, drawn piece by piece
    into one buffer and scaled there by sigma: bit for bit the steps of
    ``normal(0, sigma)``, up to the sign of a zero step, which no sum
    below can see.  Each piece is summed in place in the order of one
    cumulative sum per reset block: the block cut by the start of the piece
    continues from the last value of the previous piece, whole blocks
    follow, and a cut block at the end carries over.  Every piece is a view
    of the same buffer, valid until the next one is drawn.  A period of at
    least ``n_trials`` resets only at trial 0, as a period of ``n_trials``
    does; it is clamped there, so a block never outgrows the walk.
    """
    _check_pairs("n_trials", n_trials)
    rng = np.random.default_rng(rng_seed)
    period = min(config.jitter_reset_period, n_trials)
    buffer = np.empty(min(_CHUNK, n_trials))
    level = 0.0
    for start in range(0, n_trials, buffer.size):
        walk = buffer[:min(buffer.size, n_trials - start)]
        rng.standard_normal(out=walk)
        walk *= config.phase_jitter_sigma
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
    _check_pairs("n_trials", n_trials)
    phases = np.empty(n_trials)
    start = 0
    for piece in _jitter_walk(config, rng_seed, n_trials):
        phases[start:start + piece.size] = piece
        start += piece.size
    return phases


def _harmonics(delta: np.ndarray, degree: int) -> np.ndarray:
    """Rows sin(k delta) for k = 1..K, then cos(k delta) for k = 0..K.

    Only sin(delta) and cos(delta) are evaluated; the higher harmonics follow
    from the Chebyshev recurrence f((k+1) d) = 2 cos(d) f(k d) - f((k-1) d),
    for f = sin and for f = cos.
    """
    h = np.empty((2, degree + 1, delta.size))  # [sin, cos][k]
    h[:, 0] = [[0.0], [1.0]]
    np.sin(delta, out=h[0, 1])
    np.cos(delta, out=h[1, 1])
    twice = 2.0 * h[1, 1]
    for k in range(2, degree + 1):
        np.multiply(twice, h[:, k - 1], out=h[:, k])
        h[:, k] -= h[:, k - 2]
    return h.reshape(2 * degree + 2, -1)[1:]  # sin(0 delta) = 0 is left out


def _moment_polynomial(model: ClonerParams, input: Qubit, overlap_M: float) -> np.ndarray:
    """(2K+1, 4, 4) coefficients of sum_s v_s v_s^H against :func:`_harmonics`.

    Each entry is a trigonometric polynomial of the device's ``jitter_degree``
    K in the phase error, fixed by its values at the 2K+1 nodes 2 pi j / (2K+1).
    Their discrete Fourier transform gives C_k, the coefficient of e^(ik delta),
    and C_-k = C_k^H, so the sine rows are i (C_k - C_k^H) and the cosine rows
    C_k + C_k^H (C_0 halved): each exactly Hermitian.
    """
    degree = model.jitter_degree
    n = 2 * degree + 1
    nodes = 2.0 * np.pi * np.arange(n) / n
    v = conditional_sector_vectors(model, input, overlap_M, nodes)
    c = np.fft.fft(np.einsum("nsi,nsj->nij", v, v.conj()), axis=0)[:degree + 1] / n
    c[0] *= 0.5
    ch = c.conj().swapaxes(-1, -2)
    return np.concatenate([1j * (c[1:] - ch[1:]), c + ch])


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
    harmonics of the walk are summed one piece at a time and weight the
    coefficients of :func:`_moment_polynomial`; the grouping of those sums,
    and so the last bits of the report, follow the piece size.  When the
    jitter does not reach ``model`` this is ``run_model`` at the overlap of
    ``noise``.
    """
    _check_pairs("n_trials", n_trials)
    if not jittered(model, noise):
        return run_model(model, input, overlap_M=noise.overlap_M)
    degree = model.jitter_degree
    sums = 0.0
    for phases in _jitter_walk(noise, rng_seed, n_trials):
        sums = sums + _harmonics(phases, degree).sum(axis=1)
    moment = np.einsum("r,rij->ij", sums,
                       _moment_polynomial(model, input, noise.overlap_M))
    total = float(np.trace(moment).real)
    if total <= MIN_SUCCESS:
        return CloneReport.empty(input)
    return CloneReport.from_joint(TwoQubitState._trusted(moment / total),
                                  total / n_trials, input)
