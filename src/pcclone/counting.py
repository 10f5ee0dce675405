"""Coincidence-count simulation and fidelity estimation.

Each trial offers one photon pair to the cloner.  With probability P_succ the
post-selection succeeds, the two clones are analyzed in the basis spanned by
the analysis state and its orthogonal complement, and the resulting detector
pattern (one of ++, +-, -+, --) is registered with probability equal to the
product of the two involved detector efficiencies.  Detectors are binary and
dark-count free, so a trial either contributes one coincidence or nothing.

Without phase jitter every trial sees the same pattern probabilities, so the
counts are one multinomial draw.  With jitter the probabilities change from
trial to trial: the kernel takes each chunk of the jitter walk straight from
the device's sector amplitudes to the four real pattern probabilities and
tallies one uniform draw per trial against their running sums, so it holds
one chunk of trials at a time.

Counts are sampled with a seeded generator and are reproducible; records
of different seeds merge by field-wise addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .cloners import CloneReport, ClonerParams, _standard_basis
from .fock import Qubit
from .noise import NoiseConfig, _jitter_walk, evaluate


@dataclass(frozen=True)
class DetectorBank:
    """Detection efficiencies of D1+, D1-, D2+, D2-."""

    eta_1p: float = 1.0
    eta_1m: float = 1.0
    eta_2p: float = 1.0
    eta_2m: float = 1.0

    def __post_init__(self):
        for name in ("eta_1p", "eta_1m", "eta_2p", "eta_2m"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def pattern_efficiencies(self) -> np.ndarray:
        """Registration probability per pattern, order (++, +-, -+, --)."""
        return np.array(
            [
                self.eta_1p * self.eta_2p,
                self.eta_1p * self.eta_2m,
                self.eta_1m * self.eta_2p,
                self.eta_1m * self.eta_2m,
            ]
        )

    @classmethod
    def uniform(cls, eta: float) -> "DetectorBank":
        return cls(eta, eta, eta, eta)


@dataclass(frozen=True)
class CoincidenceRecord:
    """Raw coincidence counts C++, C+-, C-+, C-- plus trial metadata."""

    c_pp: int
    c_pm: int
    c_mp: int
    c_mm: int
    n_pairs: int
    seed: int

    def __post_init__(self):
        for name in ("c_pp", "c_pm", "c_mp", "c_mm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.c_sum > self.n_pairs:
            raise ValueError("total coincidences cannot exceed n_pairs")

    @property
    def c_sum(self) -> int:
        return self.c_pp + self.c_pm + self.c_mp + self.c_mm

    def counts(self) -> np.ndarray:
        return np.array([self.c_pp, self.c_pm, self.c_mp, self.c_mm])

    def merged(self, other: "CoincidenceRecord") -> "CoincidenceRecord":
        """Field-wise sum; associative and commutative for partitioned runs.

        Records that carry the same seed hold the same draw, not independent
        data, so merging them raises ValueError.
        """
        if self.seed == other.seed:
            raise ValueError(f"cannot merge two records of the same seed {self.seed}")
        return CoincidenceRecord(
            self.c_pp + other.c_pp,
            self.c_pm + other.c_pm,
            self.c_mp + other.c_mp,
            self.c_mm + other.c_mm,
            self.n_pairs + other.n_pairs,
            min(self.seed, other.seed),
        )


@dataclass(frozen=True)
class CountingSetup:
    """Everything needed to (re)simulate one counting run."""

    model: ClonerParams
    noise: NoiseConfig
    input: Qubit
    n_pairs: int
    seed: int
    analysis: Union[Qubit, tuple, None] = None


def _side_bases(model: ClonerParams, input: Qubit, analysis):
    """Per-clone analyzer bases; without ``analysis``, the device's own."""
    if analysis is None:
        return model.analyzer_bases(input)
    if isinstance(analysis, Qubit):
        basis = _standard_basis(analysis)
        return basis, basis
    side1, side2 = analysis
    return _standard_basis(side1), _standard_basis(side2)


def _pattern_vectors(side1, side2) -> np.ndarray:
    """Rows: two-clone projection vectors in pattern order (++, +-, -+, --)."""
    (p1, m1), (p2, m2) = side1, side2
    return np.stack(
        [np.kron(p1, p2), np.kron(p1, m2), np.kron(m1, p2), np.kron(m1, m2)]
    )


def outcome_distribution(report: CloneReport, analysis: Qubit,
                         analysis_2: Qubit | None = None) -> np.ndarray:
    """Detector-pattern probabilities conditioned on post-selection success.

    Order: (p_pp, p_pm, p_mp, p_mm); each clone is projected onto the
    analysis state / its orthogonal complement.
    """
    if report.is_empty:
        raise ValueError("cannot analyze an empty report")
    side1 = _standard_basis(analysis)
    side2 = _standard_basis(analysis_2) if analysis_2 is not None else side1
    return _pattern_probabilities(_pattern_vectors(side1, side2), report.joint.rho)


def _pattern_probabilities(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Probability of each pattern row of ``w`` in the two-clone state ``rho``."""
    return np.clip(np.einsum("ai,ij,aj->a", w.conj(), rho, w).real, 0.0, None)


def simulate_counts(
    model: ClonerParams,
    noise: NoiseConfig,
    input: Qubit,
    n_pairs: int,
    detectors: DetectorBank,
    seed: int,
    analysis: Union[Qubit, tuple, None] = None,
) -> CoincidenceRecord:
    """Simulate ``n_pairs`` photon-pair trials and tally coincidences."""
    return _simulate(model, noise, input, n_pairs, detectors, seed, analysis)


def _simulate(model, noise, input, n_pairs, detectors, seed, analysis=None,
              state=None) -> CoincidenceRecord:
    """:func:`simulate_counts`, given the static evaluation when known.

    ``state`` is ``(P_succ, rho)`` of ``evaluate(model, noise, input)``, with
    ``rho`` the 4x4 joint state (unused when P_succ is 0); without it the
    static branch evaluates the model itself.

    Under jitter, a trial registers pattern k when its uniform draw u falls
    between the running sums reg_(k-1) and reg_k of the registration
    probabilities p_j * eff_j, so each pattern count is a difference of the
    numbers of draws below consecutive running sums.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    w = _pattern_vectors(*_side_bases(model, input, analysis))
    eff = detectors.pattern_efficiencies()
    if not (model.responds_to_jitter and noise.phase_jitter_sigma > 0.0):
        if state is None:
            report = evaluate(model, noise, input)
            state = (0.0, None) if report.is_empty else (report.P_succ, report.joint.rho)
        p_succ, rho = state
        reg = np.zeros(4)
        if p_succ > 0.0:
            reg = p_succ * _pattern_probabilities(w, rho) * eff
        rest = max(0.0, 1.0 - float(reg.sum()))
        pvals = np.append(reg, rest)
        pvals = pvals / pvals.sum()
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n_pairs, pvals)[:4]
        return CoincidenceRecord(*(int(c) for c in counts), n_pairs, seed)

    seq_jitter, seq_outcome = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(seq_outcome)
    alpha, beta = input.amplitudes()
    m = noise.overlap_M
    m_orth = math.sqrt(max(0.0, 1.0 - m * m))
    w_bar = w.conj()
    below = np.zeros(4, dtype=np.int64)
    for phases in _jitter_walk(noise, seq_jitter, n_pairs):
        sectors = model.sector_amplitudes(alpha, beta, m, m_orth, phases)
        u = rng.random(phases.size)
        reg = 0.0
        for a in range(4):
            prob = 0.0
            for a00, a10, a01 in sectors:  # no sector reaches |11>
                amp = a00 * w_bar[a, 0] + a01 * w_bar[a, 1] + a10 * w_bar[a, 2]
                prob = prob + (amp.real ** 2 + amp.imag ** 2)
            reg = reg + prob * eff[a]
            below[a] += np.count_nonzero(u < reg)
    counts = np.diff(below, prepend=0)
    return CoincidenceRecord(*(int(c) for c in counts), n_pairs, seed)


def fidelity_from_rates(c_pp, c_pm, c_mp, c_mm):
    """Estimator F1 = (C++ + C+-)/C_sum, F2 = (C++ + C-+)/C_sum.

    Accepts real-valued rates (e.g. efficiency-rescaled counts); returns
    ``None`` when there is no data.
    """
    total = c_pp + c_pm + c_mp + c_mm
    if total <= 0:
        return None
    return (c_pp + c_pm) / total, (c_pp + c_mp) / total


def fidelity_from_counts(record: CoincidenceRecord):
    """Clone-fidelity estimates from a coincidence record (None if empty)."""
    return fidelity_from_rates(record.c_pp, record.c_pm, record.c_mp, record.c_mm)


def success_probability_estimate(record: CoincidenceRecord) -> float:
    """Fraction of offered pairs that produced a registered coincidence."""
    return record.c_sum / record.n_pairs


def estimator_sigma(f_hat: float, c_sum: int) -> float:
    """Binomial standard error of a fidelity estimate."""
    if c_sum <= 0:
        raise ValueError("need at least one coincidence")
    return math.sqrt(max(f_hat * (1.0 - f_hat), 0.0) / c_sum)


def balance_detectors(method: str, record_or_setup, detectors: DetectorBank):
    """Remove detector-efficiency bias from the fidelity estimates.

    ``rescale``    -- divide each count by its efficiency product
                      (takes a CoincidenceRecord);
    ``add_loss``   -- attenuate every detector to the worst efficiency and
                      re-simulate (takes a CountingSetup);
    ``basis_swap`` -- measure the four patterns sequentially with the single
                      (D1+, D2+) pair, cycling the analyzer settings, so the
                      efficiency product cancels (takes a CountingSetup
                      whose ``n_pairs`` is a multiple of 4).

    Returns unbiased ``(F1, F2)``; raises ``ValueError`` when no coincidence
    is registered.
    """
    if method not in ("rescale", "add_loss", "basis_swap"):
        raise ValueError(
            f"method must be 'rescale', 'add_loss' or 'basis_swap', got {method!r}"
        )
    if method == "rescale":
        if not isinstance(record_or_setup, CoincidenceRecord):
            raise TypeError("rescale requires a CoincidenceRecord")
        eff = detectors.pattern_efficiencies()
        if np.any(eff <= 0.0):
            raise ValueError("rescale requires strictly positive efficiencies")
        estimates = fidelity_from_rates(*(record_or_setup.counts() / eff))
    elif not isinstance(record_or_setup, CountingSetup):
        raise TypeError(f"{method} requires a CountingSetup")
    elif method == "add_loss":
        setup = record_or_setup
        eta_min = min(
            detectors.eta_1p, detectors.eta_1m, detectors.eta_2p, detectors.eta_2m
        )
        if eta_min <= 0.0:
            raise ValueError("add_loss requires strictly positive efficiencies")
        balanced = DetectorBank.uniform(eta_min)
        record = simulate_counts(
            setup.model, setup.noise, setup.input, setup.n_pairs,
            balanced, setup.seed, setup.analysis,
        )
        estimates = fidelity_from_counts(record)
    else:
        setup = record_or_setup
        if setup.n_pairs % 4:
            raise ValueError(
                "basis_swap splits the trials evenly over four analyzer settings; "
                f"n_pairs must be a multiple of 4, got {setup.n_pairs}"
            )
        analysis = setup.analysis if isinstance(setup.analysis, Qubit) else setup.input
        orth = analysis.orthogonal()
        settings = (
            (analysis, analysis),
            (analysis, orth),
            (orth, analysis),
            (orth, orth),
        )
        n_each = setup.n_pairs // 4
        seeds = np.random.SeedSequence(setup.seed).generate_state(4)
        counts = []
        for setting, child in zip(settings, seeds):
            record = simulate_counts(
                setup.model, setup.noise, setup.input, n_each,
                detectors, int(child), analysis=setting,
            )
            counts.append(record.c_pp)
        estimates = fidelity_from_rates(*counts)
    if estimates is None:
        raise ValueError(
            f"{method} registered no coincidence in {record_or_setup.n_pairs} trials"
        )
    return estimates
