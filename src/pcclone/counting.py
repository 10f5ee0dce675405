"""Coincidence-count simulation and fidelity estimation.

Each trial offers one photon pair to the cloner.  With probability P_succ the
post-selection succeeds, the two clones are analyzed in the basis spanned by
the analysis state and its orthogonal complement, and the resulting detector
pattern (one of ++, +-, -+, --) is registered with probability equal to the
product of the two involved detector efficiencies.  Detectors are binary and
dark-count free, so a trial either contributes one coincidence or nothing.

Every counted row goes through :func:`_count_rows`, the one place that
tells a static row from one under jitter: a :func:`simulate_counts` call is
one row, a counted sweep one call.  It builds the pattern vectors of all
rows at once, from one ``analyzer_bases`` call and one broadcast product.

Without phase jitter every trial sees the same pattern probabilities, so the
counts of a row are one multinomial draw.  One einsum over the rows' joint
states gives every row's registration probabilities, one vectorised
SeedSequence hash each row the state of ``default_rng(seed)``, and one
generator draws the rows into one (n, 4) count array.

With jitter the probabilities change from trial to trial, and each row runs
its own walk.  Each probability is a trigonometric polynomial in the phase
error delta of the device's ``jitter_degree`` K: the contraction w^H C w of
a pattern vector w with the moment polynomial C that ``noise`` reads off the
device at 2K+1 phases, the one the jitter average weights too.  The kernel
draws the jitter walk and one uniform per trial, piece by piece into two
buffers it reuses for every piece, and tallies each draw against the running
sums of the registration probabilities.  The running sums share one ceiling
over all delta, read off their coefficients, and a trial whose draw lies at
or above it registers nothing: it is settled without the polynomial.  Only
the other trials take the harmonics cos(k delta), sin(k delta) to their
running sums in one matrix product.  The kernel holds one piece of trials at
a time, and its cost does not depend on the number of temporal sectors.

The records and the estimate columns of a counted sweep take their
estimates from one estimator, :func:`_estimates`.

Counts are sampled with a seeded generator and are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .cloners import (
    CloneBatch,
    CloneReport,
    ClonerParams,
    _check_integer,
    _check_pairs,
    _check_real,
    _check_unit_interval,
    _standard_basis,
    run_model_batch,
)
from .fock import Qubit, _check_single
from .noise import NoiseConfig, _harmonics, _jitter_walk, _moment_polynomial, jittered


def _check_run(n_pairs, seed):
    _check_pairs("n_pairs", n_pairs)
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _row_seeds(seed: int, n_rows: int) -> list[int]:
    """The seeds of ``n_rows`` counting rows drawn under one ``seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n_rows)]


@dataclass(frozen=True)
class DetectorBank:
    """Detection efficiencies of D1+, D1-, D2+, D2-."""

    eta_1p: float = 1.0
    eta_1m: float = 1.0
    eta_2p: float = 1.0
    eta_2m: float = 1.0

    def __post_init__(self):
        for name in ("eta_1p", "eta_1m", "eta_2p", "eta_2m"):
            _check_unit_interval(name, getattr(self, name))

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
        for name in ("c_pp", "c_pm", "c_mp", "c_mm", "n_pairs", "seed"):
            _check_integer(name, getattr(self, name))
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


@dataclass(frozen=True)
class CountingSetup:
    """Everything needed to (re)simulate one counting run."""

    model: ClonerParams
    noise: NoiseConfig
    input: Qubit
    n_pairs: int
    seed: int
    analysis: Union[Qubit, tuple, None] = None

    def __post_init__(self):
        _check_run(self.n_pairs, self.seed)
        _analysis_pair(self.analysis)


def _analysis_pair(analysis):
    """The analysis states (clone 1, clone 2) that ``analysis`` sets, or None.

    ``analysis`` is None (each device's own analyzers), a :class:`Qubit` for
    both clones or a pair of them, one per clone; anything else raises
    ValueError.
    """
    if analysis is None:
        return None
    if isinstance(analysis, Qubit):
        return analysis, analysis
    if (isinstance(analysis, (tuple, list)) and len(analysis) == 2
            and all(isinstance(a, Qubit) for a in analysis)):
        return tuple(analysis)
    raise ValueError(f"analysis must be a Qubit or a pair of Qubits, got {analysis!r}")


def _pattern_vectors(model, inputs: Qubit, analysis=None) -> np.ndarray:
    """(n, 4, 4) two-clone projection vectors, one (4, 4) block per entry of ``inputs``.

    Row a = 2 j + k of a block, in pattern order (++, +-, -+, --), is the
    Kronecker product of clone 1's click vector j with clone 2's vector k,
    each (plus, minus).  Without ``analysis`` each row takes the analyzers
    of the device ``model`` for its input, from one ``analyzer_bases`` call
    on the batch; a :class:`Qubit` sets both clones' analyzers, a pair of
    them one per clone, and ``model`` is not read.
    """
    pair = _analysis_pair(analysis)
    sides = model.analyzer_bases(inputs) if pair is None else map(_standard_basis, pair)
    n = np.size(inputs.theta)
    side1, side2 = (np.broadcast_to(np.stack(side, axis=-2), (n, 2, 2)) for side in sides)
    return (side1[:, :, None, :, None] * side2[:, None, :, None, :]).reshape(n, 4, 4)


def _pattern_probabilities(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(n, 4) probabilities of the pattern rows of ``w`` (n, 4, 4) in the states ``rho``."""
    return np.clip(np.einsum("nai,nij,naj->na", w.conj(), rho, w).real, 0.0, None)


def outcome_distribution(report: CloneReport, analysis) -> np.ndarray:
    """Detector-pattern probabilities conditioned on post-selection success.

    Order: (p_pp, p_pm, p_mp, p_mm); each clone is projected onto its
    analysis state / its orthogonal complement.  ``analysis`` is a
    :class:`Qubit` for both clones or a pair of them, one per clone.
    """
    if analysis is None:
        raise ValueError("analysis must be a Qubit or a pair of Qubits, got None")
    w = _pattern_vectors(None, report.input, analysis)
    if report.is_empty:
        raise ValueError("cannot analyze an empty report")
    return _pattern_probabilities(w, report.joint.rho[None])[0]


def _static_pvals(w: np.ndarray, p_succ: np.ndarray, joints: np.ndarray,
                  eff: np.ndarray) -> np.ndarray:
    """(n, 5) multinomial probabilities of the four patterns and of no coincidence.

    Row i registers pattern a with probability p_succ[i] * p_a * eff[a];
    ``joints`` is zero on rows with no success, so those register nothing.
    """
    reg = p_succ[:, None] * _pattern_probabilities(w, joints) * eff
    rest = np.maximum(0.0, 1.0 - reg.sum(axis=1))
    pvals = np.concatenate([reg, rest[:, None]], axis=1)
    return pvals / pvals.sum(axis=1, keepdims=True)


def _hash_keys(init: int, mult: int, start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """uint32 (xor, multiply) keys of hash calls start .. start + n - 1."""
    keys = np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                     for k in range(start, start + n + 1)], dtype=np.uint32)
    return keys[:-1], keys[1:]


# numpy's SeedSequence hash (bit_generator.pyx) on uint32 arrays, which wrap as
# its C integers do.  Hash call k xors with init * mult**k and multiplies by
# init * mult**(k + 1) mod 2**32, whatever the entropy: the keys are constants.
# Round src hashes pool word src once per other word; its own column is kept.
_MIX_HASH, _OUTPUT_HASH = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_POOL = _hash_keys(*_MIX_HASH, 0, 4)
_ROUNDS = [tuple(np.insert(keys, src, 0) for keys in _hash_keys(*_MIX_HASH, 4 + 3 * src, 3))
           for src in range(4)]
_OUTPUT = tuple(keys.reshape(2, 4) for keys in _hash_keys(*_OUTPUT_HASH, 0, 8))
_MIX_L, _MIX_R, _SHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(values, xor, mul):
    v = (values ^ xor) * mul
    return v ^ (v >> _SHIFT)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _seed_words(seeds) -> np.ndarray:
    """(n, 4) ``SeedSequence(seed).generate_state(4, np.uint64)``, one row per seed;
    entropy words past the pool's four are mixed in on their own rows only."""
    n_words = max(4, -(-int(max(seeds)).bit_length() // 32))
    data = b"".join(int(s).to_bytes(4 * n_words, "little") for s in seeds)
    entropy = np.frombuffer(data, "<u4").reshape(len(seeds), n_words)
    pool = _hashmix(entropy[:, :4], *_POOL)
    for src, (xor, mul) in enumerate(_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[:, src:src + 1], xor, mul))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src in range(4, n_words):
        h = _hashmix(entropy[:, src:src + 1], *_hash_keys(*_MIX_HASH, 4 * src, 4))
        pool = np.where(entropy[:, src:].any(axis=1, keepdims=True), _mix(pool, h), pool)
    words = _hashmix(pool[:, None, :], *_OUTPUT)
    return words.reshape(len(seeds), 8).astype("<u4", copy=False).view("<u8")


def _pcg64_states(seeds) -> Iterator[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` of each seed: from
    words (w0, w1, w2, w3), PCG64 takes s = w0 2**64 + w1 and the odd increment
    inc = 2 (w2 2**64 + w3) + 1, steps its LCG from 0, adds s and steps again."""
    for w0, w1, w2, w3 in _seed_words(seeds).tolist():
        inc = (w2 << 65 | w3 << 1 | 1) % (1 << 128)
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULTIPLIER + inc) % (1 << 128)
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _count_rows(model: ClonerParams, noise: NoiseConfig, inputs: Qubit, n_pairs: int,
                detectors: DetectorBank, seeds, batch: CloneBatch,
                analysis=None) -> np.ndarray:
    """(n, 4) int64 counts of the rows of ``inputs``, in pattern order (++, +-, -+, --).

    ``batch`` is the :func:`run_model_batch` evaluation of ``inputs`` at the
    overlap of ``noise``, and row i is drawn under ``seeds[i]``.  A static
    row is the draw of ``np.random.default_rng(seeds[i])``, by one generator
    set to its state; a row under jitter runs its own walk
    (:func:`_jitter_counts`), on its entries of the validated inputs.
    """
    w = _pattern_vectors(model, inputs, analysis)
    eff = detectors.pattern_efficiencies()
    if jittered(model, noise):
        rows = zip(np.ravel(inputs.theta).tolist(), np.ravel(inputs.phi).tolist(), w, seeds)
        return np.array([_jitter_counts(model, noise, Qubit._trusted(theta, phi), n_pairs,
                                        w_row, eff, seed)
                         for theta, phi, w_row, seed in rows])
    pvals = _static_pvals(w, batch.P_succ, batch.joint, eff)
    rng = np.random.default_rng(0)
    counts = np.empty((len(pvals), 4), dtype=np.int64)
    for i, (state, p) in enumerate(zip(_pcg64_states(seeds), pvals)):
        rng.bit_generator.state = state
        counts[i] = rng.multinomial(n_pairs, p)[:4]
    return counts


def _ceiling(coefficients: np.ndarray, degree: int) -> float:
    """An upper bound on every row of ``coefficients @ _harmonics(delta, degree)``.

    Row k is c_0 + sum_j (s_j sin(j delta) + c_j cos(j delta)), and no pair of
    terms exceeds hypot(s_j, c_j) for any delta.  The relative margin lies far
    above the rounding error of evaluating the 2K+1 terms, so no computed
    row exceeds the bound either.
    """
    sin, cos = coefficients[:, :degree], coefficients[:, degree:]
    bound = np.abs(cos[:, 0]) + np.hypot(sin, cos[:, 1:]).sum(axis=1)
    return float(bound.max()) * (1.0 + 1e-9)


def _jitter_counts(model: ClonerParams, noise: NoiseConfig, input: Qubit, n_pairs: int,
                   w: np.ndarray, eff: np.ndarray, seed) -> np.ndarray:
    """(4,) int64 counts of one row under jitter, for its pattern vectors ``w``
    (4, 4) and the pattern efficiencies ``eff``.

    A trial registers pattern k when its uniform draw u falls between the
    running sums reg_(k-1) and reg_k of the registration probabilities
    p_j * eff_j, so each pattern count is a difference of the numbers of
    draws below consecutive running sums.
    """
    seq_jitter, seq_outcome = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(seq_outcome)
    moment = _moment_polynomial(model, input, noise.overlap_M)
    probabilities = np.einsum("ai,rij,aj->ar", w.conj(), moment, w).real
    coefficients = np.cumsum(probabilities * eff[:, None], axis=0)
    ceiling = _ceiling(coefficients, model.jitter_degree)
    below = np.zeros(4, dtype=np.int64)
    uniforms = np.empty(0)
    for phases in _jitter_walk(noise, seq_jitter, n_pairs):
        if uniforms.size < phases.size:  # the first piece is the largest
            uniforms = np.empty(phases.size)
        u = rng.random(out=uniforms[:phases.size])
        hit = np.flatnonzero(u < ceiling)
        reg = coefficients @ _harmonics(phases[hit], model.jitter_degree)
        below += np.count_nonzero(u[hit] < reg, axis=1)
    return np.diff(below, prepend=0)


def simulate_counts(
    model: ClonerParams,
    noise: NoiseConfig,
    input: Qubit,
    n_pairs: int,
    detectors: DetectorBank,
    seed: int,
    analysis: Union[Qubit, tuple, None] = None,
) -> CoincidenceRecord:
    """Simulate ``n_pairs`` photon-pair trials and tally coincidences.

    This is the one-row :func:`_count_rows` call, on the row's
    :func:`run_model_batch` evaluation, with or without jitter.
    """
    _check_run(n_pairs, seed)
    _check_single(input)
    batch = run_model_batch(model, input, noise.overlap_M)
    counts = _count_rows(model, noise, input, n_pairs, detectors, [seed], batch, analysis)
    return CoincidenceRecord(*counts[0].tolist(), n_pairs, seed)


def _estimates(counts, n_pairs):
    """Estimates F1 = (C++ + C+-)/C_sum, F2 = (C++ + C-+)/C_sum and
    P = C_sum/n_pairs from the ``counts`` (C++, C+-, C-+, C--) of ``n_pairs``
    trials.  The counts may be real-valued rates (e.g. efficiency-rescaled
    counts); F1 and F2 are None when there is no data."""
    c_pp, c_pm, c_mp, c_mm = counts
    total = c_pp + c_pm + c_mp + c_mm
    if total <= 0:
        return None, None, total / n_pairs
    return (c_pp + c_pm) / total, (c_pp + c_mp) / total, total / n_pairs


def _estimate_columns(counts: np.ndarray, n_pairs: int) -> dict[str, list]:
    """Columns C_pp, C_pm, C_mp, C_mm, F1_hat, F2_hat and P_hat of the (n, 4)
    ``counts`` of ``n_pairs`` trials each, one entry per row: a row's
    estimates are those of its record."""
    estimates = zip(*[_estimates(row, n_pairs) for row in counts.tolist()])
    return dict(zip(("C_pp", "C_pm", "C_mp", "C_mm", "F1_hat", "F2_hat", "P_hat"),
                    [*counts.T.tolist(), *map(list, estimates)]))


def fidelity_from_counts(record: CoincidenceRecord):
    """Clone-fidelity estimates from a coincidence record (None if empty)."""
    f1, f2, _ = _estimates(record.counts().tolist(), record.n_pairs)
    return None if f1 is None else (f1, f2)


def success_probability_estimate(record: CoincidenceRecord) -> float:
    """Fraction of offered pairs that produced a registered coincidence."""
    return _estimates(record.counts().tolist(), record.n_pairs)[2]


def estimator_sigma(f_hat: float, c_sum: int) -> float:
    """Binomial standard error of a fidelity estimate ``f_hat`` in [0, 1]
    from ``c_sum`` coincidences."""
    _check_real("f_hat", f_hat)
    if not (math.isfinite(f_hat) and 0.0 <= f_hat <= 1.0):
        raise ValueError(f"f_hat must be a finite fraction in [0, 1], got {f_hat!r}")
    _check_integer("c_sum", c_sum)
    if c_sum <= 0:
        raise ValueError(f"c_sum must be >= 1: need at least one coincidence, got {c_sum}")
    return math.sqrt(f_hat * (1.0 - f_hat) / c_sum)


def balance_detectors(method: str, record_or_setup, detectors: DetectorBank):
    """Remove detector-efficiency bias from the fidelity estimates.

    ``rescale``    -- divide each count by its efficiency product
                      (takes a CoincidenceRecord);
    ``add_loss``   -- attenuate every detector to the worst efficiency and
                      re-simulate (takes a CountingSetup);
    ``basis_swap`` -- measure the four patterns sequentially with the single
                      (D1+, D2+) pair, cycling each clone's analysis state
                      and its orthogonal complement, so the efficiency
                      product cancels (takes a CountingSetup whose
                      ``n_pairs`` is a multiple of 4).  Without an analysis
                      state both clones are analyzed in the input's basis;
                      when the device's own analyzers (``analyzer_bases``)
                      measure in another basis, as a fiber device's
                      equatorial detection blocks can, it raises
                      ``ValueError`` and asks for an explicit analysis.

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
        f1, f2, _ = _estimates(record_or_setup.counts() / eff, record_or_setup.n_pairs)
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
        f1, f2, _ = _estimates(record.counts().tolist(), record.n_pairs)
    else:
        setup = record_or_setup
        if setup.n_pairs % 4:
            raise ValueError(
                "basis_swap splits the trials evenly over four analyzer settings; "
                f"n_pairs must be a multiple of 4, got {setup.n_pairs}"
            )
        pair = _analysis_pair(setup.analysis)
        if pair is None:
            # each click vector of the device must be the input basis's, up to a phase
            own = np.array(setup.model.analyzer_bases(setup.input))
            overlaps = np.einsum("sij,ij->si", own.conj(), _standard_basis(setup.input))
            if not np.allclose(np.abs(overlaps), 1.0, rtol=0.0, atol=1e-9):
                raise ValueError("basis_swap: the device's own analyzers do not measure "
                                 "in the input's basis; give an explicit analysis")
            pair = setup.input, setup.input
        a1, a2 = pair
        settings = [(s1, s2) for s1 in (a1, a1.orthogonal())
                    for s2 in (a2, a2.orthogonal())]
        n_each = setup.n_pairs // 4
        counts = []
        for setting, child in zip(settings, _row_seeds(setup.seed, 4)):
            record = simulate_counts(
                setup.model, setup.noise, setup.input, n_each,
                detectors, child, analysis=setting,
            )
            counts.append(record.c_pp)
        f1, f2, _ = _estimates(counts, setup.n_pairs)
    if f1 is None:
        raise ValueError(
            f"{method} registered no coincidence in {record_or_setup.n_pairs} trials"
        )
    return f1, f2
