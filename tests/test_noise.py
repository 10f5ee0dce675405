import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloner_strategies import CLASS_NAMES, PARAMS, VARIANTS
from pcclone import noise
from pcclone.cloners import (
    MAX_PAIRS,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    R_OPTIMAL,
    run_model,
)
from pcclone.counting import DetectorBank, simulate_counts
from pcclone.fock import Qubit
from pcclone.noise import (
    _CHUNK,
    NoiseConfig,
    _jitter_walk,
    average_over_jitter,
    balanced_coincidence_probability,
    conditional_sector_vectors,
    evaluate,
    evaluate_batch,
    hom_visibility,
    report_from_sectors,
    sample_phase_jitter,
    with_distinguishability,
)

EQ = Qubit.equatorial(0.0)
F_PC = 0.8535533905932737


def sector_oracle_special_bs(R, m_squared):
    """Average fidelities of the ideal unbalanced splitter at overlap M.

    Direct enumeration of the three temporal detection sectors: both photons
    principal (full interference), or the ancilla-orthogonal photon landing
    in either output.
    """
    a = 2 * R - 1
    b = math.sqrt(R * (1 - R))
    mo2 = 1 - m_squared
    w_pp = m_squared * (a * a + 2 * b * b) / 2
    w_po = mo2 * (R**2 + b * b) / 2
    w_op = mo2 * ((1 - R) ** 2 + b * b) / 2
    f_pp = 0.5 + a * b / (a * a + 2 * b * b)
    f1_po = 0.5 + R * b / (R**2 + b * b)
    f2_op = 0.5 - (1 - R) * b / ((1 - R) ** 2 + b * b)
    p = w_pp + w_po + w_op
    f1 = (w_pp * f_pp + w_po * f1_po + w_op * 0.5) / p
    f2 = (w_pp * f_pp + w_po * 0.5 + w_op * f2_op) / p
    return f1, f2, p


def test_noise_config_validation():
    with pytest.raises(ValueError, match="overlap_M"):
        NoiseConfig(overlap_M=1.2)
    with pytest.raises(ValueError, match="phase_jitter_sigma"):
        NoiseConfig(phase_jitter_sigma=-0.1)
    with pytest.raises(ValueError, match="jitter_reset_period"):
        NoiseConfig(jitter_reset_period=0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_noise_config_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="phase_jitter_sigma"):
        NoiseConfig(phase_jitter_sigma=sigma)


@pytest.mark.parametrize("period", [2.5, 3.0, True])
def test_noise_config_rejects_non_integer_period(period):
    with pytest.raises(ValueError, match="jitter_reset_period"):
        NoiseConfig(jitter_reset_period=period)


def test_noise_config_bounds_the_walk_span():
    # beyond the bound a walk could overflow to +-inf and blank its trials
    with pytest.raises(ValueError, match="phase_jitter_sigma times jitter_reset"):
        NoiseConfig(phase_jitter_sigma=1e307, jitter_reset_period=1000)
    with pytest.raises(ValueError, match="phase_jitter_sigma"):
        NoiseConfig(phase_jitter_sigma=0.1, jitter_reset_period=10**400)
    NoiseConfig(phase_jitter_sigma=0.0, jitter_reset_period=10**400)
    # at the bound every walk value and every count stays finite
    at_bound = NoiseConfig(phase_jitter_sigma=noise.MAX_WALK_SPAN / 1000,
                           jitter_reset_period=1000)
    assert np.all(np.isfinite(sample_phase_jitter(at_bound, 4, 5000)))
    report = average_over_jitter(MachZehnderParams.ideal(), at_bound, Qubit(1.0, 0.3),
                                 4, 5000)
    assert 0.0 < report.P_succ <= 1.0
    record = simulate_counts(MachZehnderParams.ideal(), at_bound, Qubit(1.0, 0.3),
                             5000, DetectorBank(), seed=4)
    assert record.c_sum > 0


# ---------------------------------------------------------------------------
# distinguishability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "params",
    [SpecialBSParams.ideal(), MachZehnderParams.ideal(), HybridParams.ideal(),
     FiberParams.ideal()],
    ids=lambda p: type(p).__name__,
)
def test_perfect_overlap_equals_noiseless_model(params):
    q = Qubit.equatorial(0.8)
    noisy = with_distinguishability(params, 1.0, q)
    clean = run_model(params, q)
    assert abs(noisy.F1 - clean.F1) < 1e-10
    assert abs(noisy.F2 - clean.F2) < 1e-10
    assert abs(noisy.P_succ - clean.P_succ) < 1e-10
    assert np.max(np.abs(noisy.joint.rho - clean.joint.rho)) < 1e-10


def test_balanced_coupler_coincidence_extremes():
    assert balanced_coincidence_probability(1.0) < 1e-12
    assert balanced_coincidence_probability(0.0) == pytest.approx(0.5, abs=1e-12)


def test_visibility_is_overlap_squared():
    # oracle: P_coinc(M) = (1 - M^2)/2 on a balanced coupler
    for m in np.linspace(0.0, 1.0, 10):
        assert balanced_coincidence_probability(m) == pytest.approx(
            (1 - m * m) / 2, abs=1e-12
        )
        assert hom_visibility(m) == pytest.approx(m * m, abs=1e-10)
    assert hom_visibility(math.sqrt(0.98)) == pytest.approx(0.98, abs=1e-10)


def test_distinguishability_at_092_drops_below_universal_limit():
    report = with_distinguishability(SpecialBSParams.ideal(), math.sqrt(0.92), EQ)
    f1, f2, p = sector_oracle_special_bs(R_OPTIMAL, 0.92)
    assert report.F1 == pytest.approx(f1, abs=1e-12)
    assert report.F2 == pytest.approx(f2, abs=1e-12)
    assert report.P_succ == pytest.approx(p, abs=1e-12)
    average = (report.F1 + report.F2) / 2
    assert average == pytest.approx(0.8263569759322528, abs=1e-9)
    assert average < 5.0 / 6.0


def test_distinguishability_at_098_stays_above_universal_limit():
    report = with_distinguishability(FiberParams.ideal(), math.sqrt(0.98), EQ)
    average = (report.F1 + report.F2) / 2
    assert average > 5.0 / 6.0
    assert average < F_PC


def test_fidelity_monotone_in_overlap():
    previous = math.inf
    for m in np.linspace(1.0, 0.0, 10):
        report = with_distinguishability(SpecialBSParams.ideal(), m, EQ)
        average = (report.F1 + report.F2) / 2
        assert average <= previous + 1e-10
        previous = average


def test_distinguishability_preserves_phase_covariance():
    reference = with_distinguishability(SpecialBSParams.ideal(), 0.9, EQ)
    for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        report = with_distinguishability(
            SpecialBSParams.ideal(), 0.9, Qubit.equatorial(phi)
        )
        assert abs(report.F1 - reference.F1) < 1e-10
        assert abs(report.F2 - reference.F2) < 1e-10


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=st.floats(0.0, 0.999),
       thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=12),
       phis=st.lists(st.floats(0.0, 2 * math.pi), min_size=12, max_size=12))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_evaluate_batch_matches_circuit_at_partial_overlap(variant, data, m, thetas, phis):
    params = data.draw(PARAMS[variant])
    qubits = [Qubit(th, ph) for th, ph in zip(thetas, phis)]
    batch, joints = evaluate_batch(params, NoiseConfig(overlap_M=m), qubits)
    for qubit, (f1, f2, p), joint in zip(qubits, batch.rows(), joints):
        report = with_distinguishability(params, m, qubit)
        assert p == pytest.approx(report.P_succ, abs=1e-12)
        assert f1 == pytest.approx(report.F1, abs=1e-12)
        assert f2 == pytest.approx(report.F2, abs=1e-12)
        assert np.max(np.abs(joint - report.joint.rho)) < 1e-12


def test_with_distinguishability_validates_overlap():
    with pytest.raises(ValueError, match="overlap"):
        with_distinguishability(SpecialBSParams.ideal(), 1.5, EQ)


# ---------------------------------------------------------------------------
# phase jitter
# ---------------------------------------------------------------------------

def test_jitter_zero_sigma_is_all_zero():
    config = NoiseConfig(phase_jitter_sigma=0.0)
    assert np.all(sample_phase_jitter(config, 5, 500) == 0.0)


def test_jitter_is_deterministic_for_fixed_seed():
    config = NoiseConfig(phase_jitter_sigma=0.05, jitter_reset_period=100)
    first = sample_phase_jitter(config, 42, 1000)
    second = sample_phase_jitter(config, 42, 1000)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, sample_phase_jitter(config, 43, 1000))


def test_jitter_resets_each_period():
    config = NoiseConfig(phase_jitter_sigma=0.3, jitter_reset_period=25)
    errors = sample_phase_jitter(config, 9, 200)
    assert np.all(errors[::25] == 0.0)
    assert np.any(errors != 0.0)


def test_jitter_accumulates_between_resets():
    # random-walk variance grows linearly with steps since the last reset
    config = NoiseConfig(phase_jitter_sigma=1.0, jitter_reset_period=50)
    errors = sample_phase_jitter(config, 21, 50 * 400).reshape(400, 50)
    spread_early = np.std(errors[:, 1])
    spread_late = np.std(errors[:, 49])
    assert spread_late > 3 * spread_early


def test_jitter_requires_trials():
    with pytest.raises(ValueError, match="n_trials"):
        sample_phase_jitter(NoiseConfig(), 1, 0)


@pytest.mark.parametrize("n_trials", [2.5, 10.0, True, np.float64(3.0), "10"])
def test_jitter_requires_integer_trials(n_trials):
    config = NoiseConfig(phase_jitter_sigma=0.1)
    with pytest.raises(ValueError, match="n_trials must be an integer"):
        sample_phase_jitter(config, 0, n_trials)
    with pytest.raises(ValueError, match="n_trials must be an integer"):
        average_over_jitter(MachZehnderParams.ideal(), config, EQ, 0, n_trials)


def test_jitter_walk_is_capped():
    config = NoiseConfig(phase_jitter_sigma=0.1)
    # the check runs before the first draw; a walk at the cap yields its
    # first piece, and only that piece is drawn here
    with pytest.raises(ValueError, match=f"n_trials must lie in \\[1, {MAX_PAIRS}\\]"):
        next(_jitter_walk(config, 0, MAX_PAIRS + 1))
    assert next(_jitter_walk(config, 0, MAX_PAIRS)).size == _CHUNK
    assert next(_jitter_walk(config, 0, np.int64(5))).size == 5


def whole_array_walk(config, rng_seed, n_trials):
    """Reference walk: all steps drawn at once, padded to whole reset blocks."""
    rng = np.random.default_rng(rng_seed)
    period = config.jitter_reset_period
    steps = rng.normal(0.0, config.phase_jitter_sigma, size=n_trials)
    n_blocks = -(-n_trials // period)
    padded = np.zeros(n_blocks * period)
    padded[:n_trials] = steps
    blocks = padded.reshape(n_blocks, period)
    blocks[:, 0] = 0.0
    return np.cumsum(blocks, axis=1).reshape(-1)[:n_trials]


@pytest.mark.parametrize(
    "period, n_trials",
    [
        (1, 2 * _CHUNK + 5),
        (_CHUNK, 3 * _CHUNK - 11),
        (100_000, 150_001),
        (777, 500),
        (777, 200_003),
    ],
    ids=["period-1", "period-chunk", "period-above-chunk", "below-one-period",
         "not-a-multiple"],
)
def test_streamed_walk_is_bit_identical_to_whole_array_walk(period, n_trials):
    config = NoiseConfig(phase_jitter_sigma=0.07, jitter_reset_period=period)
    streamed = sample_phase_jitter(config, 11, n_trials)
    assert streamed.tobytes() == whole_array_walk(config, 11, n_trials).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    period=st.integers(1, 300),
    n_trials=st.integers(1, 2000),
    chunk=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_pieces_join_to_whole_array_walk(period, n_trials, chunk, seed):
    config = NoiseConfig(phase_jitter_sigma=0.2, jitter_reset_period=period)
    with mock.patch.object(noise, "_CHUNK", chunk):
        pieces = list(_jitter_walk(config, seed, n_trials))
    assert all(0 < piece.size <= chunk for piece in pieces)
    joined = np.concatenate(pieces)
    assert joined.tobytes() == whole_array_walk(config, seed, n_trials).tobytes()


def test_walk_memory_does_not_grow_with_reset_period():
    config = NoiseConfig(phase_jitter_sigma=0.1, jitter_reset_period=10**6)
    sample_phase_jitter(NoiseConfig(phase_jitter_sigma=0.1), 4, 10)  # one-time set-up
    tracemalloc.start()
    try:
        sample_phase_jitter(config, 4, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("overlap", [1.0, 0.85])
@pytest.mark.parametrize(
    "params",
    [MachZehnderParams(theta_V=1.08, theta_H=2.66, phase_offset_r1=0.05),
     FiberParams(R_vrc0=0.77)],
    ids=lambda p: type(p).__name__,
)
def test_chunked_jitter_average_matches_whole_array_pooling(params, overlap):
    config = NoiseConfig(overlap_M=overlap, phase_jitter_sigma=0.1,
                         jitter_reset_period=60)
    qubit = Qubit(1.3, 0.4)
    phases = sample_phase_jitter(config, 8, 4500)
    whole = report_from_sectors(
        conditional_sector_vectors(params, qubit, overlap, phases), qubit
    )
    with mock.patch.object(noise, "_CHUNK", 1000):
        chunked = average_over_jitter(params, config, qubit, 8, 4500)
    assert chunked.P_succ == pytest.approx(whole.P_succ, abs=1e-12)
    assert np.max(np.abs(chunked.joint.rho - whole.joint.rho)) < 1e-12


def test_jitter_average_reduces_mz_fidelity():
    config = NoiseConfig(phase_jitter_sigma=0.05, jitter_reset_period=100)
    clean = run_model(MachZehnderParams.ideal(), EQ)
    averaged = average_over_jitter(MachZehnderParams.ideal(), config, EQ, 3, 10_000)
    assert averaged.F1 < clean.F1
    assert averaged.F2 < clean.F2


def test_jitter_average_reduces_fiber_fidelity():
    config = NoiseConfig(phase_jitter_sigma=0.08, jitter_reset_period=50)
    averaged = average_over_jitter(FiberParams.ideal(), config, EQ, 3, 5_000)
    assert averaged.F1 < F_PC


def test_zero_jitter_leaves_report_unchanged():
    config = NoiseConfig(phase_jitter_sigma=0.0)
    clean = run_model(MachZehnderParams.ideal(), EQ)
    averaged = average_over_jitter(MachZehnderParams.ideal(), config, EQ, 3, 100)
    assert averaged.F1 == pytest.approx(clean.F1, abs=1e-12)
    assert averaged.F2 == pytest.approx(clean.F2, abs=1e-12)
    assert averaged.P_succ == pytest.approx(clean.P_succ, abs=1e-12)
    assert np.max(np.abs(averaged.joint.rho - clean.joint.rho)) < 1e-12


def test_evaluate_dispatches_on_overlap():
    clean = evaluate(SpecialBSParams.ideal(), NoiseConfig(), EQ)
    assert clean.F1 == pytest.approx(F_PC, abs=1e-10)
    noisy = evaluate(SpecialBSParams.ideal(), NoiseConfig(overlap_M=0.9), EQ)
    assert noisy.F1 < clean.F1
