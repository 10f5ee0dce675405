import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcclone.cloners import (
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    R_OPTIMAL,
    circuit_joint_state,
    run_model,
)
from pcclone.fock import Qubit
from pcclone.noise import (
    NoiseConfig,
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


def test_sector_vectors_match_circuit():
    rng = np.random.default_rng(11)
    models = [
        SpecialBSParams(R0=0.72, comp_loss_r1=0.85),
        MachZehnderParams(theta_V=1.0, theta_H=2.45, phase_offset_r1=0.2),
        FiberParams(R_vrc0=0.79, R_vrc1=0.21),
    ]
    for params in models:
        for m in (1.0, 0.93, 0.4):
            qubit = Qubit(rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi))
            from_circuit = with_distinguishability(params, m, qubit)
            from_sectors = report_from_sectors(
                conditional_sector_vectors(params, qubit, m), qubit
            )
            assert abs(from_circuit.P_succ - from_sectors.P_succ) < 1e-12
            assert np.max(
                np.abs(from_circuit.joint.rho - from_sectors.joint.rho)
            ) < 1e-12


def random_hybrid(rng):
    a, a0, a1 = rng.uniform(0.3, 1.2), rng.uniform(0.55, 0.8), rng.uniform(0.55, 0.8)
    return HybridParams(
        r=math.cos(a), t=math.sin(a),
        r0=a0, t0=math.sqrt(1 - a0 * a0), r1=a1, t1=math.sqrt(1 - a1 * a1),
        eta0=rng.uniform(0.4, 1.0), eta1=rng.uniform(0.4, 1.0),
        nu0=rng.uniform(0.4, 1.0), nu1=rng.uniform(0.4, 1.0),
    )


def test_hybrid_sector_vectors_match_circuit():
    rng = np.random.default_rng(17)
    for _ in range(6):
        params = random_hybrid(rng)
        for m in (1.0, 0.93, 0.4, 0.0):
            qubit = Qubit(rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi))
            from_circuit = with_distinguishability(params, m, qubit)
            from_sectors = report_from_sectors(
                conditional_sector_vectors(params, qubit, m), qubit
            )
            assert abs(from_circuit.P_succ - from_sectors.P_succ) < 1e-12
            assert np.max(
                np.abs(from_circuit.joint.rho - from_sectors.joint.rho)
            ) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(["mach_zehnder", "fiber"]),
    delta=st.floats(-0.6, 0.6),
    m=st.one_of(st.just(1.0), st.floats(0.0, 0.999)),
    theta=st.floats(0.2, 2.9),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_jittered_sector_vectors_match_circuit(variant, delta, m, theta, phi):
    params = {
        "mach_zehnder": MachZehnderParams(theta_V=1.05, theta_H=2.7,
                                          phase_offset_r0=0.1, phase_offset_r1=0.3),
        "fiber": FiberParams(R_vrc0=0.76, R_vrc1=0.2),
    }[variant]
    qubit = Qubit(theta, phi)
    joint, prob = circuit_joint_state(params, qubit, m, arm_phase_error=delta)
    from_sectors = report_from_sectors(
        conditional_sector_vectors(params, qubit, m, [delta]), qubit
    )
    assert abs(prob - from_sectors.P_succ) < 1e-12
    assert np.max(np.abs(joint.rho - from_sectors.joint.rho)) < 1e-12


def test_phase_error_leaves_static_devices_unchanged():
    for params in (SpecialBSParams(R0=0.7), HybridParams.ideal()):
        assert not params.responds_to_jitter
        clean, p_clean = circuit_joint_state(params, EQ)
        shifted, p_shifted = circuit_joint_state(params, EQ, arm_phase_error=0.4)
        assert p_shifted == p_clean
        assert np.array_equal(shifted.rho, clean.rho)


@pytest.mark.parametrize(
    "params",
    [SpecialBSParams(R0=0.74, comp_loss_r0=0.9),
     MachZehnderParams(theta_V=1.0, theta_H=2.6, phase_offset_r1=0.2),
     HybridParams(eta0=0.65, nu1=0.9),
     FiberParams(R_vrc0=0.8)],
    ids=lambda p: type(p).__name__,
)
def test_evaluate_batch_matches_circuit_at_partial_overlap(params):
    rng = np.random.default_rng(5)
    qubits = [Qubit(th, ph) for th, ph in zip(rng.uniform(0.0, math.pi, 12),
                                              rng.uniform(0.0, 2 * math.pi, 12))]
    batch, joints = evaluate_batch(params, NoiseConfig(overlap_M=0.9), qubits)
    for qubit, (f1, f2, p), joint in zip(qubits, batch.rows(), joints):
        report = with_distinguishability(params, 0.9, qubit)
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
