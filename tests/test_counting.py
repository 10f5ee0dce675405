import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloner_strategies import CLASS_NAMES, OVERLAPS, PARAMS, QUBITS, VARIANTS, stack
from ideal_map import pure_state
from pcclone import counting as counting_module
from pcclone import noise as noise_module
from pcclone.cloners import (
    ClonerParams,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    CloneReport,
    conditional_sector_vectors,
    run_model,
    run_model_batch,
)
from pcclone.counting import (
    CoincidenceRecord,
    CountingSetup,
    DetectorBank,
    _ceiling,
    _count_rows,
    _estimates,
    _pattern_vectors,
    _pcg64_states,
    _row_seeds,
    _seed_words,
    _standard_basis,
    _static_pvals,
    balance_detectors,
    estimator_sigma,
    fidelity_from_counts,
    outcome_distribution,
    simulate_counts,
    success_probability_estimate,
)
from pcclone.fock import MAX_PAIRS, Qubit, TwoQubitState
from pcclone.noise import (_CHUNK, NoiseConfig, _harmonics, _moment_polynomial,
                           sample_phase_jitter)

EQ = Qubit.equatorial(0.0)
F_PC = 0.8535533905932737
NOISELESS = NoiseConfig()
IDEAL = SpecialBSParams.ideal()


def projection_oracle(vector, analysis):
    """Project a pure two-qubit vector onto the analyzer pattern basis."""
    plus = analysis.amplitudes()
    minus = analysis.orthogonal().amplitudes()
    probs = []
    for first in (plus, minus):
        for second in (plus, minus):
            amp = np.vdot(np.kron(first, second), vector)
            probs.append(abs(amp) ** 2)
    return np.array(probs)


# ---------------------------------------------------------------------------
# records and banks
# ---------------------------------------------------------------------------

def test_detector_bank_validation_and_products():
    with pytest.raises(ValueError, match="eta_2p"):
        DetectorBank(eta_2p=1.1)
    bank = DetectorBank(1.0, 1.0, 0.8, 1.0)
    assert np.allclose(bank.pattern_efficiencies(), [0.8, 1.0, 0.8, 1.0])


def test_record_validation():
    with pytest.raises(ValueError, match="c_pp"):
        CoincidenceRecord(-1, 0, 0, 0, 10, 0)
    with pytest.raises(ValueError, match="n_pairs"):
        CoincidenceRecord(0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="exceed"):
        CoincidenceRecord(6, 6, 0, 0, 10, 0)


RECORD_FIELDS = ("c_pp", "c_pm", "c_mp", "c_mm", "n_pairs", "seed")


@pytest.mark.parametrize("field", range(6), ids=RECORD_FIELDS)
@pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(1.0), "1", None])
def test_record_fields_must_be_integers(field, bad):
    values = [1, 0, 0, 0, 10, 0]
    values[field] = bad
    with pytest.raises(ValueError, match=f"{RECORD_FIELDS[field]} must be an integer"):
        CoincidenceRecord(*values)


def test_record_accepts_numpy_integers():
    record = CoincidenceRecord(*np.array([1, 0, 2, 0, 10, 3]))
    assert record == CoincidenceRecord(1, 0, 2, 0, 10, 3)


@pytest.mark.parametrize("values, match", [
    ((-1, 1, 1, 1, 10, 3), "c_pp must be >= 0, got -1"),
    ((1, -1, 1, 1, 10, 3), "c_pm must be >= 0, got -1"),
    ((1, 1, -1, 1, 10, 3), "c_mp must be >= 0, got -1"),
    ((1, 1, 1, -1, 10, 3), "c_mm must be >= 0, got -1"),
    ((1, 0, 0, 0, -20, 3), "n_pairs must be >= 1"),
    ((6, 6, 0, 0, 10, 3), "total coincidences cannot exceed n_pairs"),
    ((10**30, 0, 2, 0, 10, 3), r"^total coincidences cannot exceed n_pairs, "
                               rf"got c_pp \+ c_pm \+ c_mp \+ c_mm = {10**30 + 2} > 10$"),
    ((1.5, 0, 0, 0, 10, 3), "c_pp must be an integer"),
    ((1, 0, 0, 0, 10.0, 3), "n_pairs must be an integer"),
    ((1, 0, 0, 0, 10, 3.0), "seed must be an integer"),
])
def test_public_constructor_rejects_each_bad_field(values, match):
    with pytest.raises(ValueError, match=match):
        CoincidenceRecord(*values)


def test_counted_records_pass_every_public_check():
    # each row of _count_rows's array, with its pairs and seed, is a record
    model = HybridParams(eta0=0.7)
    inputs = stack([Qubit(0.4, 0.2), EQ, Qubit(2.5, 4.0), Qubit(0.0, 0.0)])
    seeds = [11, 12, 13, 2**63]
    counts = _count_rows(model, NoiseConfig(overlap_M=0.9), inputs, 20_000, BIASED_BANK,
                         seeds, run_model_batch(model, inputs, 0.9))
    assert counts.dtype == np.int64 and counts.shape == (4, 4)
    for row, seed in zip(counts.tolist(), seeds):
        fields = [*row, 20_000, seed]
        assert [type(v) for v in fields] == [int] * 6
        record = CoincidenceRecord(*fields)
        assert record.counts().tolist() == row and record.seed == seed


def test_record_holds_the_one_seed_of_its_draw():
    # a record is one draw, of one seed: six fields and no more
    assert list(vars(CoincidenceRecord(1, 0, 0, 0, 10, 1))) == list(RECORD_FIELDS)
    with pytest.raises(TypeError):
        CoincidenceRecord(1, 0, 0, 0, 10, 1, (1,))


# ---------------------------------------------------------------------------
# outcome distribution
# ---------------------------------------------------------------------------

def test_outcome_distribution_ideal_cloner_matched_analysis():
    report = run_model(IDEAL, EQ)
    probs = outcome_distribution(report, EQ)
    s = 1 / math.sqrt(2)
    oracle = projection_oracle(np.array([s, 0.5, 0.5, 0.0]), EQ)
    assert np.allclose(probs, oracle, atol=1e-12)
    assert np.allclose(
        probs,
        [0.7285533905932737, 0.125, 0.125, 0.02144660940672627],
        atol=1e-9,
    )
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_outcome_distribution_product_state():
    q = Qubit.equatorial(0.7)
    joint = pure_state(np.kron(q.amplitudes(), q.amplitudes()))
    report = CloneReport.from_joint(joint, 1.0, q)
    probs = outcome_distribution(report, q)
    assert np.allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_outcome_distribution_maximally_mixed():
    report = CloneReport.from_joint(TwoQubitState(np.eye(4) / 4.0), 1.0, EQ)
    probs = outcome_distribution(report, EQ)
    assert np.allclose(probs, [0.25] * 4, atol=1e-12)


def test_outcome_distribution_normalization_over_inputs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        qubit = Qubit(rng.uniform(0.1, 3.0), rng.uniform(0, 2 * math.pi))
        report = run_model(SpecialBSParams(R0=rng.uniform(0.55, 0.95)), qubit)
        probs = outcome_distribution(report, qubit)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(probs >= -1e-12)


def test_outcome_distribution_rejects_empty_report():
    empty = CloneReport.empty(EQ)
    with pytest.raises(ValueError, match="empty"):
        outcome_distribution(empty, EQ)


@pytest.mark.parametrize("analysis", [None, (EQ,), (EQ, EQ, EQ), (EQ, "EQ"), "EQ", 0.5])
def test_outcome_distribution_requires_an_analysis(analysis):
    with pytest.raises(ValueError, match="analysis must be a Qubit or a pair"):
        outcome_distribution(run_model(IDEAL, EQ), analysis)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), m=OVERLAPS, qubit=QUBITS, pair=st.tuples(QUBITS, QUBITS))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_outcome_distribution_of_a_pair_matches_static_pvals(variant, data, m, qubit, pair):
    # one analysis state per clone, as simulate_counts takes it
    model = data.draw(PARAMS[variant])
    report = run_model(model, qubit, overlap_M=m)
    eff = BIASED_BANK.pattern_efficiencies()
    batch = run_model_batch(model, qubit, m)
    w = _pattern_vectors(model, qubit, pair)
    expected = _static_pvals(w, batch.P_succ, batch.joint, eff)[0]
    got = report.P_succ * outcome_distribution(report, pair) * eff
    assert got == pytest.approx(expected[:4], rel=1e-12, abs=1e-15)
    # a Qubit is the pair that repeats it, to the bit
    single = outcome_distribution(report, pair[0])
    assert single.tobytes() == outcome_distribution(report, (pair[0], pair[0])).tobytes()


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_counts_deterministic_and_bounded():
    record = simulate_counts(IDEAL, NOISELESS, EQ, 50_000, DetectorBank(), seed=7)
    again = simulate_counts(IDEAL, NOISELESS, EQ, 50_000, DetectorBank(), seed=7)
    assert record == again
    assert record.c_sum <= record.n_pairs
    other = simulate_counts(IDEAL, NOISELESS, EQ, 50_000, DetectorBank(), seed=8)
    assert other != record


def test_simulate_counts_single_trial():
    record = simulate_counts(IDEAL, NOISELESS, EQ, 1, DetectorBank(), seed=0)
    assert record.n_pairs == 1
    assert record.c_sum in (0, 1)
    with pytest.raises(ValueError, match="n_pairs"):
        simulate_counts(IDEAL, NOISELESS, EQ, 0, DetectorBank(), seed=0)


def test_simulate_refuses_pairs_over_the_cap():
    # the check comes before any evaluation or draw
    with mock.patch("pcclone.counting.run_model_batch", side_effect=AssertionError):
        with pytest.raises(ValueError, match="n_pairs must lie in"):
            simulate_counts(IDEAL, NOISELESS, EQ, MAX_PAIRS + 1, DetectorBank(), seed=0)


JITTER = NoiseConfig(phase_jitter_sigma=0.05, jitter_reset_period=100)


@pytest.mark.parametrize("noise", [NOISELESS, JITTER], ids=["static", "jitter"])
@pytest.mark.parametrize("n_pairs", [1e5, 2.5, 3.0, True, np.float64(10.0), "10"])
def test_simulate_requires_integer_pairs(noise, n_pairs):
    model = MachZehnderParams.ideal()
    with pytest.raises(ValueError, match="n_pairs must be an integer"):
        simulate_counts(model, noise, EQ, n_pairs, DetectorBank(), seed=0)


@pytest.mark.parametrize("noise", [NOISELESS, JITTER], ids=["static", "jitter"])
def test_simulate_requires_a_non_negative_integer_seed(noise):
    model = MachZehnderParams.ideal()
    for seed in (True, 1.0, np.float64(2.0), None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_counts(model, noise, EQ, 100, DetectorBank(), seed=seed)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        simulate_counts(model, noise, EQ, 100, DetectorBank(), seed=-1)
    # numpy integers are integers
    record = simulate_counts(model, noise, EQ, np.int64(100), DetectorBank(),
                             seed=np.uint32(5))
    assert record == simulate_counts(model, noise, EQ, 100, DetectorBank(), seed=5)


#: inputs where a rule of Qubit shows: the poles, a negative phi, phi = 2 pi,
#: -1e-300 (its phi rounds up onto 2 pi) and huge phi
EDGE_INPUTS = st.tuples(
    st.sampled_from([0.0, -0.0, math.pi]) | st.floats(0.0, math.pi),
    st.sampled_from([-0.0, 2 * math.pi, -1e-300, -2.5, 1e300, -1e300])
    | st.floats(-50.0, 50.0))
#: every device, the fiber one with and without fixed analysis phases
ANALYZER_MODELS = {
    **{v: PARAMS[v] for v in VARIANTS if v != "fiber"},
    "fiber": PARAMS["fiber"].map(lambda p: replace(p, analysis_phases=None)),
    "fiber-phases": st.builds(lambda p, a, b: replace(p, analysis_phases=(a, b)),
                              PARAMS["fiber"], st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.lists(EDGE_INPUTS, min_size=1, max_size=16))
@pytest.mark.parametrize("name", sorted(ANALYZER_MODELS))
def test_batched_analyzer_vectors_equal_per_row_analysis_states(name, data, rows):
    # counts depend on these bits: one analysis_states call on the whole batch
    # gives each row the pattern vectors of that row's own call
    model = data.draw(ANALYZER_MODELS[name])
    thetas, phis = map(list, zip(*rows))
    w = _pattern_vectors(model, Qubit(np.array(thetas), np.array(phis)))
    assert w.shape == (len(rows), 4, 4)
    for i, (theta, phi) in enumerate(rows):
        own = kronecker_patterns(*map(_standard_basis, model.analysis_states(Qubit(theta, phi))))
        assert w[i].tobytes() == own.tobytes()


def ratio_basis(phi, ratio):
    """Reference: the (plus, minus) click vectors of a fiber detection block,
    a coupler of ``ratio`` and then a phase modulator ``phi``, as the coupler
    amplitudes give them."""
    a, b = math.sqrt(ratio), math.sqrt(1.0 - ratio)
    phase = np.exp(1j * np.asarray(phi))
    plus = np.stack([np.full_like(phase, a), b * phase], axis=-1)
    minus = np.stack([np.full_like(phase, b), -a * phase], axis=-1)
    return np.stack([plus, minus], axis=-2)


#: phases of the detection blocks: a grid over [-7, 7] and its landmarks
BLOCK_PHASES = np.concatenate([np.linspace(-7.0, 7.0, 561),
                               [-0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi]])


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 1.0])
def test_fiber_analysis_states_give_the_detection_block_vectors(ratio):
    # a detection block projects onto Qubit(2 acos(sqrt(R)), phi): its click
    # vectors are the coupler's, with the modulator set by analysis_phases
    # or, without them, at the input's phase
    for phases in zip(BLOCK_PHASES, BLOCK_PHASES[::-1]):
        model = FiberParams(analysis_phases=tuple(phases), detection_ratio_1=ratio,
                            detection_ratio_2=1.0 - ratio)
        states = model.analysis_states(Qubit(np.array([0.4, 2.0]), np.array([1.0, 5.0])))
        for state, phi, r in zip(states, phases, (ratio, 1.0 - ratio)):
            assert state == Qubit(2.0 * math.acos(math.sqrt(r)), phi)  # built unchecked
            assert np.abs(_standard_basis(state) - ratio_basis(phi, r)).max() <= 1e-15
    inputs = Qubit(np.full(BLOCK_PHASES.size, 1.2), BLOCK_PHASES)
    for r in (ratio, 1.0 - ratio):
        state, other = FiberParams(detection_ratio_1=r, detection_ratio_2=r).analysis_states(inputs)
        assert other is state  # equal blocks share one state
        assert np.abs(_standard_basis(state) - ratio_basis(BLOCK_PHASES, r)).max() <= 1e-15


def kronecker_patterns(side1, side2):
    """The (4, 4) pattern vectors of two clones' (plus, minus) click vectors."""
    (p1, m1), (p2, m2) = side1, side2
    return np.stack([np.kron(p1, p2), np.kron(p1, m2), np.kron(m1, p2), np.kron(m1, m2)])


def per_row_pvals(model, input, analysis, p_succ, rho, eff):
    """Reference: the per-row static route, with Kronecker pattern vectors."""
    if analysis is None:
        side1, side2 = map(_standard_basis, model.analysis_states(input))
    elif isinstance(analysis, Qubit):
        side1 = side2 = _standard_basis(analysis)
    else:
        side1, side2 = (_standard_basis(a) for a in analysis)
    w = kronecker_patterns(side1, side2)
    reg = np.zeros(4)
    if p_succ > 0.0:
        probs = np.clip(np.einsum("ai,ij,aj->a", w.conj(), rho, w).real, 0.0, None)
        reg = p_succ * probs * eff
    rest = max(0.0, 1.0 - float(reg.sum()))
    pvals = np.append(reg, rest)
    return pvals / pvals.sum()


ANALYSES = st.none() | QUBITS | st.tuples(QUBITS, QUBITS)
ETAS = st.tuples(*[st.floats(0.3, 1.0)] * 4)
#: efficiencies that include the edges, where whole patterns register nothing
EDGE_ETAS = st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.3, 1.0)] * 4)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=OVERLAPS, analysis=ANALYSES, etas=ETAS,
       qubits=st.lists(QUBITS, min_size=1, max_size=12),
       blocked=st.lists(st.booleans(), min_size=12, max_size=12))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_batched_pvals_equal_the_per_row_route(variant, data, m, analysis, etas,
                                               qubits, blocked):
    model = data.draw(PARAMS[variant])
    batch = run_model_batch(model, stack(qubits), m)
    p_succ = batch.P_succ.copy()
    joints = batch.joint.copy()
    # rows with no success carry P_succ 0 and a zero joint state, as the
    # batch gives them (see test_batched_pvals_of_empty_rows for real ones)
    for i, empty in enumerate(blocked[:len(qubits)]):
        if empty:
            p_succ[i] = 0.0
            joints[i] = 0.0
    eff = DetectorBank(*etas).pattern_efficiencies()
    w = _pattern_vectors(model, stack(qubits), analysis)
    pvals = _static_pvals(w, p_succ, joints, eff)
    for i, qubit in enumerate(qubits):
        expected = per_row_pvals(model, qubit, analysis, p_succ.tolist()[i], joints[i], eff)
        assert np.array_equal(pvals[i], expected)


def test_batched_pvals_of_empty_rows():
    cases = [
        (SpecialBSParams(comp_loss_r0=0.0, comp_loss_r1=0.0), [EQ, Qubit(0.3, 0.1)]),
        (SpecialBSParams(R0=0.5), [Qubit(0.0, 0.0), EQ]),
    ]
    eff = BIASED_BANK.pattern_efficiencies()
    for model, qubits in cases:
        batch = run_model_batch(model, stack(qubits))
        assert batch.P_succ[0] == 0.0
        w = _pattern_vectors(model, stack(qubits))
        pvals = _static_pvals(w, batch.P_succ, batch.joint, eff)
        assert pvals[0].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        for i, qubit in enumerate(qubits):
            expected = per_row_pvals(model, qubit, None, batch.P_succ.tolist()[i],
                                     batch.joint[i], eff)
            assert np.array_equal(pvals[i], expected)
        counts = _count_rows(model, NOISELESS, stack(qubits), 1000, BIASED_BANK, [4, 5],
                             batch)
        assert counts[0].tolist() == [0, 0, 0, 0]
        CoincidenceRecord(*counts[1].tolist(), 1000, 5)


#: the analysis kinds _count_rows takes: the device's own, one state, a pair
STATIC_ANALYSES = [None, Qubit(1.1, 0.4), (EQ, Qubit(0.7, 2.0))]
ANALYSIS_IDS = ["device", "qubit", "pair"]


@pytest.mark.parametrize("analysis", STATIC_ANALYSES, ids=ANALYSIS_IDS)
@pytest.mark.parametrize("overlap", [1.0, 0.9])
def test_simulate_counts_is_the_one_row_batch(analysis, overlap):
    model = HybridParams(eta0=0.7)
    noise = NoiseConfig(overlap_M=overlap)
    qubits = [Qubit(0.4, 0.2), EQ, Qubit(2.5, 4.0)]
    batch = run_model_batch(model, stack(qubits), overlap)
    counts = _count_rows(model, noise, stack(qubits), 20_000, BIASED_BANK, [11, 12, 13],
                         batch, analysis)
    for qubit, seed, row in zip(qubits, [11, 12, 13], counts.tolist()):
        assert CoincidenceRecord(*row, 20_000, seed) == simulate_counts(
            model, noise, qubit, 20_000, BIASED_BANK, seed, analysis)


#: the seeds numpy's SeedSequence treats apart: one entropy word, two, the
#: pool's four and more than four, each at its edges
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**128 - 1, 2**128, 2**1000]
#: seeds of every bit length from 1 to 700
SEEDS = st.integers(1, 700).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1))


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(SEEDS, min_size=1, max_size=8))
def test_seed_words_and_states_equal_numpy_for_every_row(drawn):
    seeds = EDGE_SEEDS + drawn
    words = _seed_words(seeds)
    assert words.shape == (len(seeds), 4)
    for seed, row, state in zip(seeds, words, _pcg64_states(seeds)):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        assert state == np.random.default_rng(seed).bit_generator.state


def oracle_static_counts(model, noise, inputs, n_pairs, detectors, seeds, batch,
                         analysis=None):
    """The static counts as drawn before the vectorised seed hash: one
    ``np.random.default_rng(seed)`` per row, on the batched pattern probabilities."""
    w = _pattern_vectors(model, inputs, analysis)
    pvals = _static_pvals(w, batch.P_succ, batch.joint, detectors.pattern_efficiencies())
    return np.array([np.random.default_rng(seed).multinomial(n_pairs, p)[:4]
                     for seed, p in zip(seeds, pvals)])


@settings(max_examples=8, deadline=None)
@given(data=st.data(), m=OVERLAPS, etas=EDGE_ETAS,
       qubits=st.lists(QUBITS, min_size=1, max_size=6),
       seeds=st.lists(st.integers(0, 2**200), min_size=6, max_size=6, unique=True))
@pytest.mark.parametrize("n_pairs", [1, 20_000, MAX_PAIRS])
@pytest.mark.parametrize("analysis", STATIC_ANALYSES, ids=ANALYSIS_IDS)
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_static_counts_equal_the_per_row_generators(variant, analysis, n_pairs, data, m,
                                                    etas, qubits, seeds):
    model = data.draw(PARAMS[variant])
    inputs, bank = stack(qubits), DetectorBank(*etas)
    batch = run_model_batch(model, inputs, m)
    args = (model, NoiseConfig(overlap_M=m), inputs, n_pairs, bank, seeds[:len(qubits)],
            batch, analysis)
    counts = _count_rows(*args)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, oracle_static_counts(*args))


@pytest.mark.parametrize("n_pairs", [1, 20_000, MAX_PAIRS])
@pytest.mark.parametrize("analysis", STATIC_ANALYSES, ids=ANALYSIS_IDS)
def test_static_counts_of_mixed_empty_rows_equal_the_per_row_generators(analysis, n_pairs):
    # Qubit(0, 0) is lost on a balanced special BS; the others are not
    model = SpecialBSParams(R0=0.5)
    qubits = [Qubit(0.0, 0.0), EQ, Qubit(0.0, 0.0), Qubit(2.0, 1.0), Qubit(0.3, 0.1)]
    batch = run_model_batch(model, stack(qubits))
    assert (batch.P_succ == 0.0).tolist() == [True, False, True, False, False]
    args = (model, NOISELESS, stack(qubits), n_pairs, BIASED_BANK, [9, 2**64, 0, 2**130, 5],
            batch, analysis)
    counts = _count_rows(*args)
    assert np.array_equal(counts, oracle_static_counts(*args))
    assert counts[[0, 2]].tolist() == [[0, 0, 0, 0]] * 2
    assert n_pairs == 1 or counts[[1, 3, 4]].sum() > 0


@settings(max_examples=20, deadline=None)
@given(data=st.data(), m=st.floats(0.0, 0.999),
       qubits=st.lists(QUBITS, min_size=1, max_size=4))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_static_pvals_at_partial_overlap_match_the_sector_route(variant, data, m, qubits):
    # static counts take their state from the closed-form batch; at M < 1
    # that agrees with run_model's report at that overlap up to float order
    model = data.draw(PARAMS[variant])
    eff = BIASED_BANK.pattern_efficiencies()
    batch = run_model_batch(model, stack(qubits), m)
    pvals = _static_pvals(_pattern_vectors(model, stack(qubits)),
                          batch.P_succ, batch.joint, eff)
    for qubit, row in zip(qubits, pvals):
        report = run_model(model, qubit, overlap_M=m)
        expected = per_row_pvals(model, qubit, None, report.P_succ, report.joint.rho, eff)
        assert row == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_estimator_within_three_sigma_at_large_n():
    record = simulate_counts(IDEAL, NOISELESS, EQ, 10**6, DetectorBank(), seed=100)
    f1, f2 = fidelity_from_counts(record)
    sigma = estimator_sigma(F_PC, record.c_sum)
    assert abs(f1 - F_PC) < 3 * sigma
    assert abs(f2 - F_PC) < 3 * sigma


def test_success_rate_matches_binomial_expectation():
    n = 10**6
    record = simulate_counts(IDEAL, NOISELESS, EQ, n, DetectorBank(), seed=2)
    p = 1.0 / 3.0
    assert abs(success_probability_estimate(record) - p) < 3 * math.sqrt(
        p * (1 - p) / n
    )


def test_hybrid_success_rate():
    record = simulate_counts(
        HybridParams.ideal(), NOISELESS, EQ, 400_000, DetectorBank(), seed=4
    )
    estimate = success_probability_estimate(record)
    assert abs(estimate - 1.0 / 16.0) < 3 * math.sqrt((1 / 16) * (15 / 16) / 400_000)


def test_unit_efficiency_estimator_is_unbiased_analytically():
    # expected counts are proportional to the outcome distribution itself
    report = run_model(IDEAL, EQ)
    probs = outcome_distribution(report, EQ)
    f1, f2, _ = _estimates(probs, 1)
    assert f1 == pytest.approx(report.F1, abs=1e-12)
    assert f2 == pytest.approx(report.F2, abs=1e-12)


def chi2_tail(x, dof):
    """P(X > x) for X ~ chi^2 with an even number ``dof`` of degrees of freedom.

    The tail is the Poisson sum e^(-x/2) sum_(k < dof/2) (x/2)^k / k!; for 4
    degrees of freedom e^(-x/2) (1 + x/2).
    """
    half = x / 2.0
    term = total = math.exp(-half)
    for k in range(1, dof // 2):
        term *= half / k
        total += term
    return total


def test_chi2_tail_closed_forms():
    assert chi2_tail(0.0, 8) == 1.0
    for x in (0.5, 3.0, 9.49, 40.0):
        assert chi2_tail(x, 4) == pytest.approx(math.exp(-x / 2) * (1 + x / 2), rel=1e-14)
        assert chi2_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)
    # the 95th percentile of chi^2 with 4 and with 80 degrees of freedom
    assert chi2_tail(9.487729, 4) == pytest.approx(0.05, rel=1e-5)
    assert chi2_tail(101.879474, 80) == pytest.approx(0.05, rel=1e-5)


#: off-design static rows, each with an explicit analysis: (model, input,
#: overlap, analysis), every cell expecting at least 20 of ``LAW_PAIRS`` counts
STATIC_LAW_CASES = {
    "special_bs": (SpecialBSParams(R0=0.7, R1=0.25, comp_loss_r1=0.85),
                   Qubit(1.2, 0.4), 0.9, Qubit(1.0, 1.1)),
    "mach_zehnder": (MachZehnderParams(theta_V=1.0, theta_H=2.6, phase_offset_r0=0.3,
                                       phase_offset_r1=-0.4),
                     Qubit(1.9, 2.0), 1.0, (Qubit(1.5, 2.4), Qubit(2.0, 1.6))),
    "hybrid": (HybridParams(eta0=0.6, nu1=0.8), Qubit(0.8, 5.0), 0.7, Qubit(1.3, 4.6)),
    "fiber": (FiberParams(R_vrc0=0.7, R_vrc1=0.25, detection_ratio_1=0.4),
              Qubit(2.3, 3.1), 0.95, (Qubit(2.0, 3.5), Qubit(2.5, 2.9))),
}
#: unbalanced detectors, so that a wrong pattern order changes the law
LAW_DETECTORS = DetectorBank(eta_1p=0.9, eta_1m=0.6, eta_2p=0.75, eta_2m=0.45)
LAW_PAIRS = 10**6
LAW_SEEDS = range(32)
#: the chance that any case fails on a correct program
FAMILY_ALPHA = 1e-6


def exact_cells(model, input, overlap, analysis, d):
    """Probabilities of the patterns (++, +-, -+, --) and of no coincidence.

    The conditional pattern law is that of the circuit route's state; the
    pattern efficiencies are written out from the bank's four detectors.
    """
    report = run_model(model, input, via="circuit", overlap_M=overlap)
    eff = np.array([d.eta_1p * d.eta_2p, d.eta_1p * d.eta_2m,
                    d.eta_1m * d.eta_2p, d.eta_1m * d.eta_2m])
    registered = report.P_succ * outcome_distribution(report, analysis) * eff
    return np.append(registered, 1.0 - registered.sum())


@pytest.mark.parametrize("case", list(STATIC_LAW_CASES))
def test_static_counts_follow_their_exact_multinomial_law(case):
    # a static row's counts are Multinomial(n_pairs, p): Pearson's chi^2 of
    # each seed has 4 degrees of freedom and their sum over the seeds 4 S,
    # tested at one family-wise false-alarm rate over the cases
    model, input, overlap, analysis = STATIC_LAW_CASES[case]
    expected = LAW_PAIRS * exact_cells(model, input, overlap, analysis, LAW_DETECTORS)
    assert expected.min() >= 20
    statistic = 0.0
    for seed in LAW_SEEDS:
        r = simulate_counts(model, NoiseConfig(overlap_M=overlap), input, LAW_PAIRS,
                            LAW_DETECTORS, seed, analysis)
        observed = np.array([r.c_pp, r.c_pm, r.c_mp, r.c_mm, LAW_PAIRS - r.c_sum])
        statistic += float((((observed - expected) ** 2) / expected).sum())
    p_value = chi2_tail(statistic, 4 * len(LAW_SEEDS))
    assert p_value > FAMILY_ALPHA / len(STATIC_LAW_CASES), (statistic, p_value)


def test_simulate_counts_with_jitter_is_deterministic():
    noise = NoiseConfig(phase_jitter_sigma=0.03, jitter_reset_period=200)
    model = MachZehnderParams.ideal()
    record = simulate_counts(model, noise, EQ, 30_000, DetectorBank(), seed=12)
    again = simulate_counts(model, noise, EQ, 30_000, DetectorBank(), seed=12)
    assert record == again
    clean = simulate_counts(model, NOISELESS, EQ, 30_000, DetectorBank(), seed=12)
    f_jit = fidelity_from_counts(record)
    f_clean = fidelity_from_counts(clean)
    assert f_jit[0] < f_clean[0]


def whole_array_jitter_counts(model, noise, input, n_pairs, detectors, seed,
                              analysis=None):
    """Reference jitter kernel: stacked complex sector vectors for every trial,
    complex einsums to the pattern probabilities, then cumsum and argmax."""
    w = _pattern_vectors(model, input, analysis)[0]
    eff = detectors.pattern_efficiencies()
    seq_jitter, seq_outcome = np.random.SeedSequence(seed).spawn(2)
    phases = sample_phase_jitter(noise, seq_jitter, n_pairs)
    vectors = conditional_sector_vectors(model, input, noise.overlap_M, phases)
    amp = np.einsum("tsi,ai->tsa", vectors, w.conj())
    probs = np.einsum("tsa,tsa->ta", amp, amp.conj()).real
    reg = np.cumsum(probs * eff, axis=1)
    u = np.random.default_rng(seq_outcome).random(n_pairs)
    registered = u < reg[:, -1]
    pattern = np.argmax(u[:, None] < reg, axis=1)
    return np.bincount(pattern[registered], minlength=4)


JITTERED = {
    "mach_zehnder": MachZehnderParams(theta_V=1.09, theta_H=2.68, phase_offset_r0=0.03),
    "fiber": FiberParams(R_vrc0=0.8, R_vrc1=0.19, detection_ratio_1=0.46),
}


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(sorted(JITTERED)),
    overlap=st.one_of(st.just(1.0), st.floats(0.5, 0.99)),
    sigma=st.floats(0.01, 0.5),
    period=st.integers(1, 400),
    n_pairs=st.integers(1, 3000),
    chunk=st.integers(1, 700),
    etas=EDGE_ETAS,
    theta=st.floats(0.3, 2.8),
    phi=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
    analysis=ANALYSES,
)
def test_streamed_jitter_counts_equal_whole_array_kernel(
    variant, overlap, sigma, period, n_pairs, chunk, etas, theta, phi, seed, analysis
):
    # the streamed kernel settles trials drawn above the ceiling without the
    # polynomial; the reference evaluates every trial
    noise = NoiseConfig(overlap_M=overlap, phase_jitter_sigma=sigma,
                        jitter_reset_period=period)
    args = (JITTERED[variant], noise, Qubit(theta, phi), n_pairs,
            DetectorBank(*etas), seed, analysis)
    with mock.patch.object(noise_module, "_CHUNK", chunk):
        record = simulate_counts(*args)
    assert np.array_equal(record.counts(), whole_array_jitter_counts(*args))


@pytest.mark.parametrize("variant, overlap", [
    ("mach_zehnder", 1.0), ("mach_zehnder", 0.9), ("fiber", 1.0), ("fiber", 0.9),
])
def test_streamed_jitter_counts_equal_whole_array_kernel_across_chunks(variant, overlap):
    noise = NoiseConfig(overlap_M=overlap, phase_jitter_sigma=0.05,
                        jitter_reset_period=333)
    args = (JITTERED[variant], noise, Qubit.equatorial(0.6), 2 * _CHUNK + 3,
            DetectorBank(0.9, 0.75, 0.85, 0.95), 14)
    assert np.array_equal(simulate_counts(*args).counts(),
                          whole_array_jitter_counts(*args))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), input=QUBITS, analysis=ANALYSES, etas=EDGE_ETAS)
@pytest.mark.parametrize("partial", [False, True], ids=["M=1", "M<1"])
@pytest.mark.parametrize("variant", sorted(JITTERED))
def test_ceiling_bounds_every_running_sum(variant, partial, data, input, analysis, etas):
    model = data.draw(PARAMS[variant])
    overlap = data.draw(st.floats(0.0, 0.999)) if partial else 1.0
    degree = model.jitter_degree
    w = _pattern_vectors(model, input, analysis)[0]
    eff = DetectorBank(*etas).pattern_efficiencies()
    moment = _moment_polynomial(model, input, overlap)
    probabilities = np.einsum("ai,rij,aj->ar", w.conj(), moment, w).real
    coefficients = np.cumsum(probabilities * eff[:, None], axis=0)
    n = 2 * degree + 1
    delta = np.concatenate([
        np.linspace(-2.0 * np.pi, 2.0 * np.pi, 8001),
        2.0 * np.pi * np.arange(n) / n,
        [1e3, -7.5e4, 123456.789, -3e9, 1e15, 14e300, -14e300],
    ])
    reg = coefficients @ _harmonics(delta, degree)
    assert np.all(reg <= _ceiling(coefficients, degree))


def test_ceiling_settles_most_trials_without_the_polynomial():
    # with half-efficient detectors the ideal Mach-Zehnder's running sums,
    # and so its ceiling, stay near 1/8: only the trials drawn below the
    # ceiling reach the polynomial
    n_pairs = 3 * _CHUNK + 5
    args = (MachZehnderParams.ideal(), JITTER, EQ, n_pairs, DetectorBank.uniform(0.5), 9)
    with mock.patch.object(counting_module, "_harmonics",
                           wraps=counting_module._harmonics) as harmonics:
        record = simulate_counts(*args)
    assert harmonics.call_count == 4
    seen = sum(call.args[0].size for call in harmonics.call_args_list)
    assert 0 < seen <= 0.2 * n_pairs
    assert np.array_equal(record.counts(), whole_array_jitter_counts(*args))


@pytest.mark.parametrize("variant", sorted(JITTERED))
def test_zero_efficiency_jitter_run_counts_nothing(variant):
    n_pairs = 2 * _CHUNK + 7
    with mock.patch.object(counting_module, "_harmonics",
                           wraps=counting_module._harmonics) as harmonics:
        record = simulate_counts(JITTERED[variant], JITTER, EQ, n_pairs,
                                 DetectorBank.uniform(0.0), 5)
    assert record == CoincidenceRecord(0, 0, 0, 0, n_pairs, 5)
    assert [call.args[0].size for call in harmonics.call_args_list] == [0, 0, 0]


BAD_ANALYSES = [(EQ,), (EQ, EQ, EQ), "equator", (EQ, "equator"), 0.5]


@pytest.mark.parametrize("analysis", BAD_ANALYSES,
                         ids=["1-tuple", "3-tuple", "string", "pair-of-other", "number"])
def test_malformed_analysis_is_a_value_error(analysis):
    match = "analysis must be a Qubit or a pair of Qubits, got"
    model = MachZehnderParams.ideal()
    for noise in (NOISELESS, JITTER):
        with pytest.raises(ValueError, match=match):
            simulate_counts(model, noise, EQ, 100, DetectorBank(), 0, analysis)
    with pytest.raises(ValueError, match=match):
        _count_rows(model, NOISELESS, EQ, 100, DetectorBank(), [0],
                    run_model_batch(model, EQ), analysis)
    with pytest.raises(ValueError, match=match):
        CountingSetup(model, NOISELESS, EQ, 100, 0, analysis)


def test_jitter_kernel_memory_does_not_grow_with_n_pairs():
    noise = NoiseConfig(overlap_M=0.9, phase_jitter_sigma=0.05, jitter_reset_period=70)
    model = JITTERED["mach_zehnder"]
    peaks = []
    with mock.patch.object(noise_module, "_CHUNK", 512):
        for n_pairs in (2_048, 65_536):
            tracemalloc.start()
            try:
                simulate_counts(model, noise, EQ, n_pairs, DetectorBank(), seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_fiber_detection_ratio_biases_estimates():
    skewed = FiberParams(R_vrc0=0.79, R_vrc1=0.21,
                         detection_ratio_1=0.56, detection_ratio_2=0.5)
    record = simulate_counts(skewed, NOISELESS, EQ, 500_000, DetectorBank(), seed=3)
    f1, f2 = fidelity_from_counts(record)
    sigma = estimator_sigma(F_PC, record.c_sum)
    assert abs(f1 - f2) > 4 * sigma


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f_hat", [1.5, -0.1, 1.0 + 1e-12, math.nan, math.inf])
def test_estimator_sigma_rejects_impossible_estimates(f_hat):
    with pytest.raises(ValueError, match="f_hat must be a finite fraction"):
        estimator_sigma(f_hat, 10)


def test_estimator_sigma_edges():
    assert estimator_sigma(0.0, 10) == 0.0
    assert estimator_sigma(1.0, 10) == 0.0
    assert estimator_sigma(0.5, 100) == 0.05
    with pytest.raises(ValueError, match="coincidence"):
        estimator_sigma(0.5, 0)


def test_fidelity_from_counts_trivial_cases():
    assert fidelity_from_counts(CoincidenceRecord(100, 0, 0, 0, 100, 0)) == (1.0, 1.0)
    assert fidelity_from_counts(CoincidenceRecord(0, 0, 0, 100, 100, 0)) == (0.0, 0.0)
    f1, f2 = fidelity_from_counts(CoincidenceRecord(728, 125, 125, 22, 10_000, 0))
    assert f1 == pytest.approx(0.853, abs=1e-3)
    assert f2 == pytest.approx(0.853, abs=1e-3)


def test_fidelity_from_counts_no_data_marker():
    record = CoincidenceRecord(0, 0, 0, 0, 10, 0)
    assert fidelity_from_counts(record) is None
    assert success_probability_estimate(record) == 0.0


# ---------------------------------------------------------------------------
# detector balancing
# ---------------------------------------------------------------------------

BIASED_BANK = DetectorBank(1.0, 1.0, 0.8, 1.0)
#: frozen oracle: outcome distribution reweighted by the pattern efficiencies
F2_BIASED = 0.8234070962417627


def test_uncompensated_bias_oracle():
    report = run_model(IDEAL, EQ)
    probs = outcome_distribution(report, EQ) * BIASED_BANK.pattern_efficiencies()
    f1, f2, _ = _estimates(probs, 1)
    assert f2 == pytest.approx(F2_BIASED, abs=1e-12)
    assert f2 == pytest.approx(0.823, abs=1e-3)


def test_uncompensated_estimate_is_biased():
    record = simulate_counts(IDEAL, NOISELESS, EQ, 10**6, BIASED_BANK, seed=21)
    _, f2 = fidelity_from_counts(record)
    sigma = estimator_sigma(F2_BIASED, record.c_sum)
    assert abs(f2 - F2_BIASED) < 4 * sigma
    assert f2 < F_PC - 0.02


def test_rescale_restores_fidelity():
    record = simulate_counts(IDEAL, NOISELESS, EQ, 10**6, BIASED_BANK, seed=21)
    f1, f2 = balance_detectors("rescale", record, BIASED_BANK)
    sigma = estimator_sigma(F_PC, record.c_sum)
    assert abs(f1 - F_PC) < 4 * sigma
    assert abs(f2 - F_PC) < 4 * sigma


def test_add_loss_restores_fidelity():
    setup = CountingSetup(IDEAL, NOISELESS, EQ, 10**6, seed=21)
    f1, f2 = balance_detectors("add_loss", setup, BIASED_BANK)
    sigma = estimator_sigma(F_PC, int(10**6 * (1 / 3) * 0.64))
    assert abs(f1 - F_PC) < 4 * sigma
    assert abs(f2 - F_PC) < 4 * sigma


def test_basis_swap_restores_fidelity():
    setup = CountingSetup(IDEAL, NOISELESS, EQ, 10**6, seed=21)
    f1, f2 = balance_detectors("basis_swap", setup, BIASED_BANK)
    sigma = estimator_sigma(F_PC, int(10**6 * (1 / 3) * 0.8 / 4))
    assert abs(f1 - F_PC) < 4 * sigma
    assert abs(f2 - F_PC) < 4 * sigma


def four_call_basis_swap(setup, detectors):
    """basis_swap's (F1, F2) from its four analyzer settings as four
    simulate_counts calls, each with its own seed and a quarter of the pairs."""
    a1, a2 = setup.analysis or setup.model.analysis_states(setup.input)
    settings = [(s1, s2) for s1 in (a1, a1.orthogonal()) for s2 in (a2, a2.orthogonal())]
    counts = [simulate_counts(setup.model, setup.noise, setup.input, setup.n_pairs // 4,
                              detectors, child, analysis=setting).c_pp
              for setting, child in zip(settings, _row_seeds(setup.seed, 4))]
    return _estimates(counts, setup.n_pairs)[:2]


JITTER = NoiseConfig(overlap_M=0.95, phase_jitter_sigma=0.2)


@pytest.mark.parametrize("model, noise, input, analysis", [
    (SpecialBSParams.ideal(), NoiseConfig(overlap_M=0.9), EQ, None),
    (HybridParams.ideal(), NOISELESS, Qubit(0.8, 1.0), None),
    (MachZehnderParams.ideal(), JITTER, Qubit.equatorial(2.2), None),
    (FiberParams.ideal(), JITTER, EQ, (Qubit.equatorial(0.3), Qubit(1.1, 0.4))),
    (FiberParams(analysis_phases=(0.9, 2.0)), JITTER, Qubit(1.0, 0.3), None),
], ids=["special_bs", "hybrid", "mach_zehnder", "fiber", "fiber-blocks"])
@pytest.mark.parametrize("seed", [17, 18])
def test_basis_swap_counts_its_settings_as_four_rows(model, noise, input, analysis, seed):
    # one counting call of four rows draws what four calls of one row drew,
    # on a static device and under jitter
    setup = CountingSetup(model, noise, input, 40_000, seed=seed, analysis=analysis)
    assert balance_detectors("basis_swap", setup, BIASED_BANK) \
        == four_call_basis_swap(setup, BIASED_BANK)


@pytest.mark.parametrize("analysis", [None, (EQ, Qubit(1.1, 0.4))], ids=["input", "pair"])
@pytest.mark.parametrize("seed", [1, 2])
def test_methods_agree_pairwise_for_general_banks(seed, analysis):
    # with a pair, clone 2 is analyzed off the input (F2 ~ 0.904, F1 ~ F_PC)
    rng = np.random.default_rng(seed)
    bank = DetectorBank(*rng.uniform(0.5, 1.0, size=4))
    n = 10**6
    setup = CountingSetup(IDEAL, NOISELESS, EQ, n, seed=seed, analysis=analysis)
    record = simulate_counts(IDEAL, NOISELESS, EQ, n, bank, seed=seed, analysis=analysis)
    estimates = {
        "rescale": balance_detectors("rescale", record, bank),
        "add_loss": balance_detectors("add_loss", setup, bank),
        "basis_swap": balance_detectors("basis_swap", setup, bank),
    }
    sigma = estimator_sigma(F_PC, int(n * (1 / 3) * 0.25 / 4))
    values = list(estimates.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            for k in (0, 1):
                assert abs(values[i][k] - values[j][k]) < 4 * math.sqrt(2) * sigma


def test_equal_efficiencies_leave_raw_estimate():
    bank = DetectorBank.uniform(0.9)
    record = simulate_counts(IDEAL, NOISELESS, EQ, 200_000, bank, seed=6)
    raw = fidelity_from_counts(record)
    rescaled = balance_detectors("rescale", record, bank)
    assert rescaled[0] == pytest.approx(raw[0], abs=1e-12)
    assert rescaled[1] == pytest.approx(raw[1], abs=1e-12)
    setup = CountingSetup(IDEAL, NOISELESS, EQ, 200_000, seed=6)
    relossed = balance_detectors("add_loss", setup, bank)
    assert relossed == raw


def test_balance_rejects_bad_arguments():
    with pytest.raises(ValueError, match="positive"):
        balance_detectors(
            "rescale", CoincidenceRecord(1, 1, 1, 1, 10, 0), DetectorBank(eta_2p=0.0)
        )
    with pytest.raises(TypeError, match="CountingSetup"):
        balance_detectors("add_loss", CoincidenceRecord(1, 1, 1, 1, 10, 0),
                          DetectorBank())
    with pytest.raises(ValueError, match="method"):
        balance_detectors("other", CoincidenceRecord(1, 1, 1, 1, 10, 0),
                          DetectorBank())


#: fibers whose detection blocks measure off the input's basis: fixed
#: modulator phases, an input off the equator, an unbalanced block coupler
OFF_INPUT_FIBERS = [(FiberParams(analysis_phases=(0.9, 2.0)), EQ),
                    (FiberParams(), Qubit(1.0, 0.3)),
                    (FiberParams(detection_ratio_1=0.3), EQ)]


@pytest.mark.parametrize("model, input", OFF_INPUT_FIBERS, ids=["phases", "off-equator", "ratio"])
def test_basis_swap_measures_a_fiber_through_its_detection_blocks(model, input):
    # basis_swap cycles each block's own state, so it reads what rescale and
    # add_loss read through the blocks (at (0.9, 2.0) ~(0.72, 0.35), where
    # cycling the input's basis would read ~(0.854, 0.851)), and what the
    # blocks' exact pattern probabilities give
    bank = DetectorBank(0.9, 0.8, 0.7, 0.6)
    n = 400_000
    setup = CountingSetup(model, NOISELESS, input, n, seed=5)
    record = simulate_counts(model, NOISELESS, input, n, bank, seed=5)
    report = run_model(model, input)
    p_pp, p_pm, p_mp, _ = outcome_distribution(report, model.analysis_states(input))
    sigma = estimator_sigma(0.5, int(n * report.P_succ * 0.36 / 4))
    swapped = balance_detectors("basis_swap", setup, bank)
    for estimates in (balance_detectors("rescale", record, bank),
                      balance_detectors("add_loss", setup, bank), (p_pp + p_pm, p_pp + p_mp)):
        assert swapped == pytest.approx(estimates, abs=6 * sigma)
    if model.analysis_phases is not None:
        # the same blocks as an explicit analysis, one equatorial state per clone
        pair = tuple(map(Qubit.equatorial, model.analysis_phases))
        assert balance_detectors("basis_swap", replace(setup, analysis=pair), bank) \
            == pytest.approx(swapped, abs=6 * sigma)


@pytest.mark.parametrize("variant", sorted(ClonerParams.variants))
def test_basis_swap_runs_on_every_ideal_device(variant):
    model = ClonerParams.variants[variant].ideal()
    bank = DetectorBank(0.9, 0.8, 0.7, 0.6)
    n = 400_000
    for q in (EQ, Qubit.equatorial(2.2), Qubit(0.8, 1.0)):
        setup = CountingSetup(model, NOISELESS, q, n, seed=3)
        record = simulate_counts(model, NOISELESS, q, n, bank, seed=3)
        p = run_model(model, q).P_succ
        sigma = estimator_sigma(F_PC, int(n * p * 0.36 / 4))
        swapped = balance_detectors("basis_swap", setup, bank)
        rescaled = balance_detectors("rescale", record, bank)
        assert swapped == pytest.approx(rescaled, abs=6 * sigma)


def test_basis_swap_rejects_trials_not_divisible_by_four():
    setup = CountingSetup(IDEAL, NOISELESS, EQ, 7, seed=1)
    with pytest.raises(ValueError, match="n_pairs"):
        balance_detectors("basis_swap", setup, BIASED_BANK)


@pytest.mark.parametrize("analysis", [None, (EQ, Qubit(1.1, 0.4))], ids=["input", "pair"])
def test_basis_swap_refuses_a_batch_of_inputs(analysis):
    # the four settings are the rows of one count, so the input is one state
    setup = CountingSetup(IDEAL, NOISELESS, Qubit(np.array([1.0, 2.0])), 40, seed=1,
                          analysis=analysis)
    with pytest.raises(ValueError, match=r"input must be one state, got a batch of shape \(2,\)"):
        balance_detectors("basis_swap", setup, BIASED_BANK)


def test_basis_swap_raises_without_coincidences():
    blocked = SpecialBSParams(comp_loss_r0=0.0, comp_loss_r1=0.0)
    setup = CountingSetup(blocked, NOISELESS, EQ, 400, seed=2)
    with pytest.raises(ValueError, match="no coincidence"):
        balance_detectors("basis_swap", setup, BIASED_BANK)


def test_rescale_raises_without_coincidences():
    with pytest.raises(ValueError, match="no coincidence"):
        balance_detectors("rescale", CoincidenceRecord(0, 0, 0, 0, 10, 0), BIASED_BANK)


def test_add_loss_raises_without_coincidences():
    blocked = SpecialBSParams(comp_loss_r0=0.0, comp_loss_r1=0.0)
    setup = CountingSetup(blocked, NOISELESS, EQ, 400, seed=2)
    with pytest.raises(ValueError, match="no coincidence"):
        balance_detectors("add_loss", setup, BIASED_BANK)
