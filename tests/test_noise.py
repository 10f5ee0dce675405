import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloner_strategies import CLASS_NAMES, PARAMS, VARIANTS, pool_sectors, stack
from pcclone import noise
from pcclone.cloners import (
    MAX_PAIRS,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    R_OPTIMAL,
    circuit_joint_state,
    run_model,
    run_model_batch,
)
from pcclone.counting import DetectorBank, simulate_counts
from pcclone.fock import Qubit, check_density, fidelity
from pcclone.noise import (
    _CHUNK,
    NoiseConfig,
    _jitter_walk,
    average_over_jitter,
    balanced_coincidence_probability,
    conditional_sector_vectors,
    hom_visibility,
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
    batch = run_model_batch(params, stack(qubits), m)
    for qubit, f1, f2, p, joint in zip(qubits, batch.F1.tolist(), batch.F2.tolist(),
                                       batch.P_succ.tolist(), batch.joint):
        report = with_distinguishability(params, m, qubit)
        assert p == pytest.approx(report.P_succ, abs=1e-12)
        assert f1 == pytest.approx(report.F1, abs=1e-12)
        assert f2 == pytest.approx(report.F2, abs=1e-12)
        assert np.max(np.abs(joint - report.joint.rho)) < 1e-12


@pytest.mark.parametrize("loss", [1e-160, 1e-155, 1e-150])
def test_vanishing_success_is_empty_on_every_route(loss):
    # P_succ ~ loss^2 / 3 is at most fock.MIN_SUCCESS, subnormal at 1e-160:
    # every route gives an empty report instead of a failed check or a row
    params = SpecialBSParams(comp_loss_r0=loss, comp_loss_r1=loss)
    pole = Qubit(0.0, 0.0)
    assert run_model(params, pole).is_empty
    assert run_model(params, pole, via="circuit").is_empty
    batch = run_model_batch(params, stack([pole, EQ]), 0.9)
    assert batch.P_succ[0] == 0.0 and np.isnan([batch.F1[0], batch.F2[0]]).all()
    assert run_model(params, pole, overlap_M=0.9).is_empty
    assert run_model(params, pole, via="circuit", overlap_M=0.9).is_empty
    assert with_distinguishability(params, 0.9, pole).is_empty


def test_with_distinguishability_validates_overlap():
    with pytest.raises(ValueError, match="overlap"):
        with_distinguishability(SpecialBSParams.ideal(), 1.5, EQ)


def test_single_input_entry_points_refuse_a_batch():
    # a batch of two would otherwise unpack as one state's (alpha, beta)
    pair = Qubit.equatorial(np.array([0.0, 1.0]))
    model = MachZehnderParams.ideal()
    jitter = NoiseConfig(phase_jitter_sigma=0.05)
    calls = [
        lambda: run_model(model, pair),
        lambda: run_model(model, pair, via="circuit"),
        lambda: circuit_joint_state(model, pair),
        lambda: fidelity(np.eye(2) / 2.0, pair),
        lambda: conditional_sector_vectors(model, pair),
        lambda: simulate_counts(model, NoiseConfig(), pair, 100, DetectorBank(), 0),
        lambda: simulate_counts(model, jitter, pair, 100, DetectorBank(), 0),
        lambda: average_over_jitter(model, NoiseConfig(), pair, 0, 100),
        lambda: average_over_jitter(model, jitter, pair, 0, 100),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"input must be one state, got a batch "
                                             r"of shape \(2,\)"):
            call()


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


@pytest.mark.parametrize("sigma", [0.1, 0.0])
@pytest.mark.parametrize("n_trials", [0, -5, MAX_PAIRS + 1, 2.5])
@pytest.mark.parametrize(
    "model",
    [SpecialBSParams.ideal(), MachZehnderParams.ideal(), HybridParams.ideal(),
     FiberParams.ideal()],
    ids=lambda p: type(p).__name__,
)
def test_jitter_average_checks_trials_on_every_device(model, n_trials, sigma):
    # also where the jitter does not reach the device and no walk is drawn
    with pytest.raises(ValueError, match="n_trials"):
        average_over_jitter(model, NoiseConfig(phase_jitter_sigma=sigma), EQ, 0, n_trials)


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
    # the pieces share one buffer, so each is copied as it is yielded
    with mock.patch.object(noise, "_CHUNK", chunk):
        pieces = [piece.copy() for piece in _jitter_walk(config, seed, n_trials)]
    assert all(0 < piece.size <= chunk for piece in pieces)
    joined = np.concatenate(pieces)
    assert joined.tobytes() == whole_array_walk(config, seed, n_trials).tobytes()


def test_walk_pieces_share_one_buffer():
    config = NoiseConfig(phase_jitter_sigma=0.2, jitter_reset_period=7)
    with mock.patch.object(noise, "_CHUNK", 100):
        pieces = list(_jitter_walk(config, 3, 250))
    assert [piece.size for piece in pieces] == [100, 100, 50]
    assert all(np.shares_memory(pieces[0], piece) for piece in pieces[1:])


@pytest.mark.parametrize("chunk", [100, _CHUNK])
def test_second_walk_leaves_the_first_sample_alone(chunk):
    config = NoiseConfig(phase_jitter_sigma=0.2, jitter_reset_period=7)
    with mock.patch.object(noise, "_CHUNK", chunk):
        first = sample_phase_jitter(config, 3, 250)
        kept = first.copy()
        second = sample_phase_jitter(config, 4, 250)
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
    assert first.tobytes() == whole_array_walk(config, 3, 250).tobytes()


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
    # the average reads the moment polynomial; the pooling of per-trial
    # sector vectors over the same walk is the independent route
    config = NoiseConfig(overlap_M=overlap, phase_jitter_sigma=0.1,
                         jitter_reset_period=60)
    qubit = Qubit(1.3, 0.4)
    phases = sample_phase_jitter(config, 8, 4500)
    p_succ, rho = pool_sectors(conditional_sector_vectors(params, qubit, overlap, phases))
    with mock.patch.object(noise, "_CHUNK", 1000):
        chunked = average_over_jitter(params, config, qubit, 8, 4500)
    assert chunked.P_succ == pytest.approx(p_succ, abs=1e-12)
    assert np.max(np.abs(chunked.joint.rho - rho)) < 1e-12
    check_density(chunked.joint.rho, "two-qubit state")


@pytest.mark.parametrize("params", [MachZehnderParams.ideal(), FiberParams.ideal()],
                         ids=lambda p: type(p).__name__)
def test_jitter_average_reads_the_device_at_its_nodes_only(params):
    config = NoiseConfig(overlap_M=0.9, phase_jitter_sigma=0.05)
    with mock.patch.object(noise, "conditional_sector_vectors",
                           wraps=noise.conditional_sector_vectors) as sectors:
        average_over_jitter(params, config, EQ, 2, 3 * _CHUNK + 1)
    (call,) = sectors.call_args_list
    assert len(call.args[3]) == 2 * params.jitter_degree + 1


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


def test_run_model_honours_overlap():
    clean = run_model(SpecialBSParams.ideal(), EQ)
    assert clean.F1 == pytest.approx(F_PC, abs=1e-10)
    noisy = run_model(SpecialBSParams.ideal(), EQ, overlap_M=0.9)
    assert noisy.F1 < clean.F1
