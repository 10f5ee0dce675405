import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloner_strategies import (CLASS_NAMES, PARAMS, QUBITS, VARIANTS, oracle_batch,
                               oracle_sector_stack, stack)
from ideal_map import ideal_clone_report, ideal_pc_map
from pcclone import cloners
from pcclone.cloners import (
    F_PHASE_COVARIANT,
    ClonerParams,
    F_SEMICLASSICAL,
    F_UNIVERSAL,
    R_OPTIMAL,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    circuit_joint_state,
    conditional_sector_vectors,
    run_model,
    run_model_batch,
)
from pcclone.compensation import _float_fields, optimize_symmetry
from pcclone.experiment import parse_experiment, parse_model, run_experiment
from pcclone.fock import (Port, Qubit, check_density, fidelity, photon_pair,
                          postselect_coincidence)

F_PC = 0.8535533905932737
EQ = Qubit.equatorial(0.0)


def equatorial_fidelity_oracle(a, b1, b2):
    """F1, F2 for the conditional state a|00> + b1|10> + b2|01> on equator."""
    n2 = a * a + b1 * b1 + b2 * b2
    return 0.5 + a * b1 / n2, 0.5 + a * b2 / n2


# ---------------------------------------------------------------------------
# ideal map and limits
# ---------------------------------------------------------------------------

def test_ideal_map_basis_states():
    north0 = ideal_pc_map(Qubit(0.0, 0.0), "north")
    assert np.allclose(north0, [1, 0, 0, 0], atol=1e-12)
    north1 = ideal_pc_map(Qubit(math.pi, 0.0), "north")
    s = 1 / math.sqrt(2)
    assert np.allclose(north1, [0, s, s, 0], atol=1e-12)


def test_ideal_map_refuses_a_batch():
    with pytest.raises(ValueError, match="input must be one state"):
        ideal_pc_map(Qubit.equatorial(np.array([0.0, 1.0])))


def test_ideal_map_equatorial_fidelity():
    report = ideal_clone_report(Qubit.equatorial(0.9))
    assert report.F1 == pytest.approx(F_PC, abs=1e-10)
    assert report.F2 == pytest.approx(F_PC, abs=1e-10)


def test_ideal_map_output_is_normalized():
    for theta in np.linspace(0.0, math.pi, 7):
        vec = ideal_pc_map(Qubit(theta, 0.3))
        assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-12)


def test_ideal_map_rejects_unknown_hemisphere():
    with pytest.raises(ValueError, match="hemisphere"):
        ideal_pc_map(EQ, "equator")


def test_hemisphere_symmetry():
    for theta in np.linspace(0.0, math.pi, 9):
        for phi in (0.0, 1.1, 4.4):
            north = ideal_clone_report(Qubit(theta, phi), "north")
            south = ideal_clone_report(Qubit(math.pi - theta, phi), "south")
            assert abs(north.F1 - south.F1) < 1e-10
            assert abs(north.F2 - south.F2) < 1e-10


@pytest.mark.parametrize("via", ["closed_form", "circuit"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_ideal_devices_post_select_the_ideal_map(variant, via):
    # a device-free oracle: at its design setting every device keeps the
    # optimal phase-covariant map's state, poles included
    model = ClonerParams.variants[variant].ideal()
    for theta in (0.0, 0.3, math.pi / 2, 2.5, math.pi):
        q = Qubit(theta, 0.7)
        vec = ideal_pc_map(q)
        joint = run_model(model, q, via).joint.rho
        assert np.abs(joint - np.outer(vec, vec.conj())).max() <= 1e-15


def test_theoretical_limits():
    assert F_PHASE_COVARIANT == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-15)
    assert F_UNIVERSAL == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert F_SEMICLASSICAL == 0.75
    assert F_PHASE_COVARIANT > F_UNIVERSAL > F_SEMICLASSICAL


# ---------------------------------------------------------------------------
# special beam splitter
# ---------------------------------------------------------------------------

def test_special_bs_optimum():
    report = run_model(SpecialBSParams.ideal(), EQ)
    assert report.F1 == pytest.approx(F_PC, abs=1e-10)
    assert report.F2 == pytest.approx(F_PC, abs=1e-10)
    assert report.P_succ == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_special_bs_at_three_quarters():
    a = 2 * 0.75 - 1
    b = math.sqrt(0.75 * 0.25)
    f1_oracle, f2_oracle = equatorial_fidelity_oracle(a, b, b)
    report = run_model(SpecialBSParams(R0=0.75), EQ)
    assert report.F1 == pytest.approx(f1_oracle, abs=1e-12)
    assert report.F2 == pytest.approx(f2_oracle, abs=1e-12)
    assert report.F1 == pytest.approx(0.8464101615137755, abs=1e-9)
    assert report.P_succ == pytest.approx(0.3125, abs=1e-12)
    circuit = run_model(SpecialBSParams(R0=0.75), EQ, via="circuit")
    assert circuit.F1 == pytest.approx(report.F1, abs=1e-10)
    assert circuit.P_succ == pytest.approx(report.P_succ, abs=1e-10)


@pytest.mark.parametrize("r0", [0.6, 0.75, R_OPTIMAL, 1.0])
def test_special_bs_pole_input(r0):
    report = run_model(SpecialBSParams(R0=r0), Qubit(0.0, 0.0))
    assert report.F1 == pytest.approx(1.0, abs=1e-12)
    assert report.F2 == pytest.approx(1.0, abs=1e-12)
    assert report.P_succ == pytest.approx((2 * r0 - 1) ** 2, abs=1e-12)


def test_special_bs_zero_success_marker():
    report = run_model(SpecialBSParams(R0=0.5), Qubit(0.0, 0.0))
    assert report.is_empty
    assert report.P_succ == 0.0
    assert report.F1 is None


def test_special_bs_report_consistency():
    report = run_model(SpecialBSParams(R0=0.68), Qubit(1.0, 0.5))
    rho1, rho2 = (report.joint.reduced(port) for port in Port)
    assert report.F1 == pytest.approx(fidelity(rho1, report.input), abs=1e-10)
    assert report.F2 == pytest.approx(fidelity(rho2, report.input), abs=1e-10)


def test_special_bs_sign_convention_constraints():
    r0, t0, r1, t1 = SpecialBSParams.ideal().couplings()[:4]
    assert abs(r0 * r1 + t0 * t1) < 1e-12          # r0 r1 = -t0 t1
    assert abs((r0 * r0 - t0 * t0) - math.sqrt(2) * r0 * r1) < 1e-12


def test_special_bs_wrong_sign_breaks_symmetric_superposition():
    report = run_model(SpecialBSParams(R0=R_OPTIMAL, sign_convention=1), EQ)
    assert report.F2 < F_PC - 0.1
    assert abs(report.F1 - report.F2) > 0.1


def test_special_bs_parameter_validation():
    with pytest.raises(ValueError, match="R0"):
        SpecialBSParams(R0=1.5)
    with pytest.raises(ValueError, match="sign_convention"):
        SpecialBSParams(sign_convention=0)


# ---------------------------------------------------------------------------
# Mach-Zehnder emulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta_V", [math.pi / 4, 0.9, 1.3])
def test_mz_splits_like_a_reflectance_of_sin_squared(theta_V):
    # with theta_H = theta_V + pi/2 the interferometer is the special splitter
    # with R0 = sin^2(theta_V) and R1 = sin^2(theta_H) = 1 - R0
    mz = MachZehnderParams(theta_V=theta_V, theta_H=theta_V + math.pi / 2)
    bs = SpecialBSParams(R0=math.sin(theta_V) ** 2)
    for q in (EQ, Qubit(0.7, 2.1)):
        a, b = run_model(mz, q), run_model(bs, q)
        assert (a.F1, a.F2, a.P_succ) == pytest.approx((b.F1, b.F2, b.P_succ), abs=1e-12)
    theta_opt = math.asin(math.sqrt(R_OPTIMAL))
    assert theta_opt == pytest.approx(1.093138017732642, abs=1e-9)
    # the field defaults are the ideal angles
    assert MachZehnderParams() == MachZehnderParams(theta_opt, theta_opt + math.pi / 2.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_device_defaults_to_its_ideal_setting(variant):
    cls = ClonerParams.variants[variant]
    assert cls() == cls.ideal()


def test_mz_ideal_matches_special_bs():
    mz = run_model(MachZehnderParams.ideal(), EQ)
    bs = run_model(SpecialBSParams.ideal(), EQ)
    assert mz.F1 == pytest.approx(bs.F1, abs=1e-10)
    assert mz.F2 == pytest.approx(bs.F2, abs=1e-10)
    assert mz.P_succ == pytest.approx(bs.P_succ, abs=1e-10)


def test_mz_residual_phase_degrades_equatorial_fidelity():
    ideal = MachZehnderParams.ideal()
    skewed = MachZehnderParams(
        ideal.theta_V, ideal.theta_H, phase_offset_r0=0.0, phase_offset_r1=0.35
    )
    report = run_model(skewed, EQ)
    clean = run_model(ideal, EQ)
    assert report.F1 < clean.F1 - 1e-3
    assert report.F2 < clean.F2 - 1e-3
    # a pole state carries no coherence between rails and is unaffected
    pole = run_model(skewed, Qubit(0.0, 0.0))
    assert pole.F1 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# hybrid (bunching + filtering)
# ---------------------------------------------------------------------------

def test_hybrid_ideal():
    report = run_model(HybridParams.ideal(), EQ)
    assert report.F1 == pytest.approx(F_PC, abs=1e-10)
    assert report.F2 == pytest.approx(F_PC, abs=1e-10)
    assert report.P_succ == pytest.approx(1.0 / 16.0, abs=1e-10)


@pytest.mark.parametrize("eta", [1.0, 0.8, 0.5])
def test_hybrid_equal_filters_give_universal_fidelity(eta):
    report = run_model(HybridParams(eta0=eta, eta1=eta), EQ)
    assert report.F1 == pytest.approx(F_UNIVERSAL, abs=1e-10)
    assert report.F2 == pytest.approx(F_UNIVERSAL, abs=1e-10)


def test_hybrid_universal_constructor():
    report = run_model(HybridParams.universal(), Qubit.equatorial(2.0))
    assert report.F1 == pytest.approx(5.0 / 6.0, abs=1e-10)


def test_hybrid_pole_input():
    report = run_model(HybridParams.ideal(), Qubit(0.0, 0.0))
    assert report.F1 == pytest.approx(1.0, abs=1e-12)
    assert report.F2 == pytest.approx(1.0, abs=1e-12)


def test_hybrid_symmetry_conditions_property():
    # whenever nu0/nu1 = t1 r0/(t0 r1) and eta1/eta0 = sqrt(2) r0/r1,
    # the clones have identical fidelity for every equatorial input
    rng = np.random.default_rng(7)
    for _ in range(20):
        r0 = rng.uniform(0.6, 0.8)
        r1 = rng.uniform(0.6, 0.8)
        t0 = math.sqrt(1 - r0 * r0)
        t1 = math.sqrt(1 - r1 * r1)
        eta_ratio = math.sqrt(2) * r0 / r1
        eta1, eta0 = (1.0, 1.0 / eta_ratio) if eta_ratio >= 1 else (eta_ratio, 1.0)
        nu_ratio = t1 * r0 / (t0 * r1)
        nu0, nu1 = (1.0, 1.0 / nu_ratio) if nu_ratio >= 1 else (nu_ratio, 1.0)
        params = HybridParams(
            r0=r0, t0=t0, r1=r1, t1=t1, eta0=eta0, eta1=eta1, nu0=nu0, nu1=nu1
        )
        for phi in rng.uniform(0.0, 2 * math.pi, 3):
            report = run_model(params, Qubit.equatorial(phi))
            assert abs(report.F1 - report.F2) < 1e-10


def test_hybrid_parameter_validation():
    with pytest.raises(ValueError, match="r\\^2 \\+ t\\^2"):
        HybridParams(r=0.9, t=0.9)
    with pytest.raises(ValueError, match="eta0"):
        HybridParams(eta0=1.4)


@pytest.mark.parametrize("model, fields, bad, message", [
    (SpecialBSParams(), {"R0": [0.5, 1.25, 1.5]}, 1, "R0 must lie in [0, 1], got 1.25"),
    (SpecialBSParams(), {"comp_loss_r1": [1.0, math.nan]}, 1,
     "comp_loss_r1 must lie in [0, 1], got nan"),
    (HybridParams(), {"r0": [0.5, -1.5, 2.0]}, 1, "r0 must lie in [-1, 1], got -1.5"),
    (HybridParams(), {"r": [math.sqrt(0.5), 0.6, 0.0], "t": [math.sqrt(0.5), 0.6, 1.0]},
     1, "(r, t) must satisfy r^2 + t^2 = 1, got 0.72"),
    # a scalar partner (t1) broadcasts against the candidates
    (HybridParams(), {"r1": [math.sqrt(0.5), 0.5]}, 1,
     "(r1, t1) must satisfy r^2 + t^2 = 1, got 0.75"),
    (MachZehnderParams.ideal(), {"theta_H": [1.0, math.inf, math.nan]}, 1,
     "theta_H must be finite, got inf"),
    (FiberParams(), {"detection_ratio_2": [0.5, -0.25]}, 1,
     "detection_ratio_2 must lie in [0, 1], got -0.25"),
], ids=["unit", "unit-nan", "amplitude", "lossless", "lossless-broadcast", "finite",
        "fiber"])
def test_field_checks_name_the_first_bad_candidate(model, fields, bad, message):
    with pytest.raises(ValueError) as batch:
        replace(model, **{name: np.array(values) for name, values in fields.items()})
    with pytest.raises(ValueError) as scalar:
        replace(model, **{name: values[bad] for name, values in fields.items()})
    # the message of the first bad candidate alone, its value a number
    assert str(batch.value) == str(scalar.value)
    prefix, value = str(batch.value).rsplit(", got ", 1)
    expected_prefix, expected = message.rsplit(", got ", 1)
    assert prefix == expected_prefix
    assert float(value) == pytest.approx(float(expected), nan_ok=True)


def test_field_checks_accept_valid_candidates():
    model = replace(HybridParams(), eta0=np.linspace(0.0, 1.0, 5),
                    r0=np.array([0.6]), t0=np.array([0.8]))
    assert model.eta0.shape == (5,)


# ---------------------------------------------------------------------------
# fiber architecture
# ---------------------------------------------------------------------------

def test_fiber_ideal():
    report = run_model(FiberParams.ideal(), EQ)
    assert report.F1 == pytest.approx(F_PC, abs=1e-10)
    assert report.F2 == pytest.approx(F_PC, abs=1e-10)
    assert report.P_succ == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_fiber_analysis_phases_are_a_tuple():
    assert FiberParams(analysis_phases=(0.5, 2)).analysis_phases == (0.5, 2)
    with pytest.raises(ValueError, match=r"^analysis_phases must be a tuple of two "):
        FiberParams(analysis_phases=[0.5, 2.0])
    with pytest.raises(ValueError, match=r"^analysis_phases must be finite"):
        FiberParams(analysis_phases=(0.5, math.nan))
    # the configuration reader turns the JSON list into the tuple
    model = parse_model({"variant": "fiber", "analysis_phases": [0.5, 2.0]})
    assert model.analysis_phases == (0.5, 2.0)


def test_fiber_79_21_splitting():
    a = 2 * 0.79 - 1
    b = math.sqrt(0.79 * 0.21)
    f1_oracle, f2_oracle = equatorial_fidelity_oracle(a, b, b)
    report = run_model(FiberParams(R_vrc0=0.79, R_vrc1=0.21), EQ)
    assert report.F1 == pytest.approx(f1_oracle, abs=1e-12)
    assert report.F1 == pytest.approx(0.8535450127375471, abs=1e-9)
    assert report.F2 == pytest.approx(f2_oracle, abs=1e-12)
    assert report.P_succ == pytest.approx(0.3341, abs=1e-12)


def test_fiber_matched_analyzer_is_maximal():
    q = Qubit.equatorial(1.7)
    rho1 = run_model(FiberParams.ideal(), q).joint.reduced(Port.OUT1)
    matched = fidelity(rho1, Qubit.equatorial(q.phi))
    for phi_m in np.linspace(0.0, 2 * math.pi, 24, endpoint=False):
        other = fidelity(rho1, Qubit.equatorial(phi_m))
        assert other <= matched + 1e-12
    assert matched == pytest.approx(F_PC, abs=1e-10)


def test_run_model_dispatch():
    assert run_model(SpecialBSParams.ideal(), EQ).P_succ == pytest.approx(1 / 3)
    assert run_model(HybridParams.ideal(), EQ).P_succ == pytest.approx(1 / 16)
    with pytest.raises(TypeError):
        run_model(object(), EQ)


# ---------------------------------------------------------------------------
# shared behavior
# ---------------------------------------------------------------------------

IDEAL_MODELS = [
    SpecialBSParams.ideal(),
    MachZehnderParams.ideal(),
    HybridParams.ideal(),
    FiberParams.ideal(),
]


@pytest.mark.parametrize("params", IDEAL_MODELS, ids=lambda p: type(p).__name__)
def test_phase_covariance(params):
    reference = run_model(params, Qubit.equatorial(0.0))
    for phi in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
        report = run_model(params, Qubit.equatorial(phi))
        assert abs(report.F1 - reference.F1) < 1e-9
        assert abs(report.F2 - reference.F2) < 1e-9


def test_latitude_monotonicity():
    thetas = np.linspace(0.0, math.pi / 2, 10)
    values = [run_model(SpecialBSParams.ideal(), Qubit(t, 0.0)).F1 for t in thetas]
    assert values[0] == pytest.approx(1.0, abs=1e-10)
    assert values[-1] == pytest.approx(F_PC, abs=1e-10)
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("params,delta", [
    (SpecialBSParams.ideal(), 0.0),
    (MachZehnderParams(theta_V=0.4, theta_H=2.1, phase_offset_r0=0.3,
                       phase_offset_r1=-1.2), 0.7),
    (FiberParams(R_vrc0=0.6, R_vrc1=0.2), -1.1),
])
def test_lossless_devices_have_unitary_transfer_matrices(params, delta):
    u = params.transfer_matrix(delta)
    assert u.shape == (4, 4)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_conditional_triple_matches_report_probability():
    params = SpecialBSParams(R0=0.7)
    vectors = conditional_sector_vectors(params, EQ)
    assert vectors.shape == (1, 1, 4)
    a00, a01, a10, a11 = vectors[0, 0]
    assert a11 == 0.0
    p = abs(a00) ** 2 + abs(a10) ** 2 + abs(a01) ** 2
    assert p == pytest.approx(run_model(params, EQ).P_succ, abs=1e-12)


# ---------------------------------------------------------------------------
# batched closed form
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=st.data(), thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=24),
       phis=st.lists(st.floats(0.0, 2 * math.pi), min_size=24, max_size=24),
       m=st.sampled_from([1.0, 0.999, 0.9, 0.5, 0.0]))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_batch_matches_run_model(variant, data, thetas, phis, m):
    # run_model is the one-row call of the batch: its report, rebuilt from
    # the row's joint state alone, keeps every bit of the row at any overlap
    params = data.draw(PARAMS[variant])
    thetas = thetas + [0.0, math.pi]
    phis = phis[:len(thetas) - 2] + [0.0, 1.0]
    batch = run_model_batch(params, Qubit(np.array(thetas), np.array(phis)), m)
    assert batch.F1.shape == batch.F2.shape == batch.P_succ.shape == (len(thetas),)
    assert_rows_equal(batch, [run_model(params, Qubit(th, ph), overlap_M=m)
                              for th, ph in zip(thetas, phis)])


#: per variant, its design setting and a device far from it
DEVICES = {
    "special_bs": [SpecialBSParams.ideal(),
                   SpecialBSParams(R0=0.8, R1=0.2, comp_loss_r1=0.7)],
    "mach_zehnder": [MachZehnderParams.ideal(),
                     MachZehnderParams(theta_V=1.0, theta_H=2.6, phase_offset_r0=0.3,
                                       phase_offset_r1=-0.4)],
    "hybrid": [HybridParams.ideal(), HybridParams(eta0=0.6, nu1=0.8)],
    "fiber": [FiberParams.ideal(), FiberParams(R_vrc0=0.7, R_vrc1=0.25)],
}


@pytest.mark.parametrize("m", [1.0, 0.9, 0.0])
@pytest.mark.parametrize("variant", VARIANTS)
def test_run_model_fidelities_are_those_of_its_clone_states(variant, m):
    # the closed form takes F1 and F2 from its kernel row: they keep every
    # bit of fidelity() on the report's own clone states, at the poles too
    thetas = np.linspace(0.0, math.pi, 8).tolist()
    phis = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False).tolist()
    for model in DEVICES[variant]:
        for q in (Qubit(th, ph) for th in thetas for ph in phis):
            report = run_model(model, q, overlap_M=m)
            assert not report.is_empty
            assert report.F1 == fidelity(report.joint.reduced(Port.OUT1), q)
            assert report.F2 == fidelity(report.joint.reduced(Port.OUT2), q)


@pytest.mark.parametrize("m", [1.0, 0.9, 0.0])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sector_vectors_of_one_input_are_its_batch_row(variant, m):
    # one input without phase errors is a one-element row: its vectors keep
    # the bits of its row in a batch, where numpy's array loops round the
    # complex products, and not those of numpy's scalar arithmetic
    rng = np.random.default_rng(3)
    thetas = np.concatenate([np.linspace(0.0, math.pi, 8), np.arccos(rng.uniform(-1, 1, 64))])
    phis = np.concatenate([np.linspace(0.0, 6.0, 8), rng.uniform(0.0, 2.0 * math.pi, 64)])
    psi = Qubit(thetas, phis).amplitudes()
    for model in DEVICES[variant]:
        rows = oracle_sector_stack(model, psi[:, 0], psi[:, 1], m, 0.0)
        for row, theta, phi in zip(rows, thetas.tolist(), phis.tolist()):
            vectors = conditional_sector_vectors(model, Qubit(theta, phi), m)
            assert vectors.tobytes() == row.tobytes()


def stacked(model, names, candidates):
    """``model`` with each field in ``names`` holding its candidates' values."""
    return replace(model, **{n: np.array([getattr(c, n) for c in candidates])
                             for n in names})


def assert_stack_matches_run_model(model, names, candidates, qubit):
    batch = run_model_batch(stacked(model, names, candidates), qubit)
    assert batch.P_succ.shape == (len(candidates),)
    assert_rows_equal(batch, [run_model(c, qubit) for c in candidates])


def assert_rows_equal(batch, reports):
    """Every batch row bit-identical to its scalar report."""
    for f1, f2, p, joint, report in zip(batch.F1.tolist(), batch.F2.tolist(),
                                        batch.P_succ.tolist(), batch.joint, reports,
                                        strict=True):
        assert p == report.P_succ
        if report.is_empty:
            assert math.isnan(f1) and math.isnan(f2)
            continue
        assert (f1, f2) == (report.F1, report.F2)
        assert np.array_equal(joint, report.joint.rho)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_stacked_candidates_match_run_model(variant, data):
    # the optimizer's grid: float fields as arrays of candidates, one input
    model = data.draw(PARAMS[variant])
    draws = data.draw(st.lists(PARAMS[variant], min_size=1, max_size=8))
    names = sorted(n for n in _float_fields(type(model))
                   if all(getattr(p, n) is not None for p in [model, *draws]))
    candidates = [replace(model, **{n: getattr(p, n) for n in names}) for p in draws]
    assert_stack_matches_run_model(model, names, candidates, data.draw(QUBITS))


MZ_OFFSETS = np.linspace(-1.1, 0.9, 9)


@pytest.mark.parametrize("model, axes", [
    # complex phases on every row: numpy's scalar complex product differs
    # from its array loop in the last bit of many of these
    (MachZehnderParams(theta_V=0.9, theta_H=2.5, phase_offset_r0=0.2,
                       phase_offset_r1=-0.7),
     {"theta_V": [0.4, 0.9, 1.3], "phase_offset_r0": MZ_OFFSETS,
      "phase_offset_r1": MZ_OFFSETS}),
    # a dense plate axis: libm's pow(x, 2) and numpy's array square differ
    # in the last bit for about one value in a thousand
    (HybridParams(), {"eta0": np.linspace(0.4, 1.0, 3001)}),
], ids=["MachZehnderParams", "HybridParams"])
def test_dense_grids_match_run_model(model, axes):
    names = list(axes)
    candidates = [replace(model, **dict(zip(names, map(float, point))))
                  for point in itertools.product(*axes.values())]
    for qubit in (EQ, Qubit(0.7, 2.1)):
        assert_stack_matches_run_model(model, names, candidates, qubit)


@pytest.mark.parametrize("overlap", [1.5, -0.1, math.nan])
def test_circuit_joint_state_validates_overlap(overlap):
    with pytest.raises(ValueError, match="overlap M"):
        circuit_joint_state(SpecialBSParams.ideal(), EQ, overlap)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), input=QUBITS,
       delta=st.sampled_from([0.0, 0.37, -1.2]) | st.floats(-7.0, 7.0))
@pytest.mark.parametrize("variant", VARIANTS)
def test_one_bin_circuit_equals_the_kronecker_build(variant, data, input, delta):
    # at M = 1 the circuit applies the transfer matrix itself, with no
    # Kronecker product over one bin; the bytes stay those of that product
    params = data.draw(PARAMS[variant])
    signal = np.zeros(4, dtype=complex)
    signal[:2] = input.amplitudes()
    u = np.kron(np.eye(1), params.transfer_matrix(delta))
    expected, p_expected = postselect_coincidence(
        u @ photon_pair(signal, np.eye(4)[2]) @ u.T)
    joint, prob = circuit_joint_state(params, input, 1.0, delta)
    assert prob == p_expected
    assert (joint is None) == (expected is None)
    if joint is not None:
        assert joint.rho.tobytes() == expected.rho.tobytes()


def test_batch_zero_success_rows_are_empty():
    blocked = SpecialBSParams(comp_loss_r0=0.0, comp_loss_r1=0.0)
    qubits = [Qubit(0.3, 0.1), EQ, Qubit(math.pi, 0.0)]
    assert all(run_model(blocked, q).is_empty for q in qubits)
    batch = run_model_batch(blocked, stack(qubits))
    assert batch.P_succ.tolist() == [0.0] * 3
    assert np.isnan(batch.F1).all() and np.isnan(batch.F2).all()
    # a 50:50 splitter cancels only the |0> input: one empty row in the batch
    batch = run_model_batch(SpecialBSParams(R0=0.5), stack([Qubit(0.0, 0.0), EQ]))
    assert batch.P_succ[0] == 0.0 and np.isnan([batch.F1[0], batch.F2[0]]).all()
    assert batch.P_succ[1] == pytest.approx(run_model(SpecialBSParams(R0=0.5), EQ).P_succ)
    assert not np.isnan([batch.F1[1], batch.F2[1]]).any()


def assert_oracle_bits(batch, oracle):
    """P_succ, F1, F2 and joint byte-equal to the oracle's, NaN positions included."""
    for got, want in zip((batch.P_succ, batch.F1, batch.F2, batch.joint), oracle,
                         strict=True):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


#: the overlaps the kernel oracle is held at: three sectors below M = 1
ORACLE_OVERLAPS = st.sampled_from([0.0, 0.3, 0.9, 1.0])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=ORACLE_OVERLAPS,
       thetas=st.lists(st.floats(0.0, math.pi), max_size=12),
       phis=st.lists(st.floats(0.0, 2 * math.pi), min_size=14, max_size=14))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_kernel_keeps_the_bits_of_the_stacked_joint(variant, data, m, thetas, phis):
    # the marginals come from the sector vectors, not from the joint states:
    # every bit stays that of the partial traces of the stacked joint
    params = data.draw(PARAMS[variant])
    thetas = thetas + [0.0, math.pi]
    inputs = Qubit(np.array(thetas), np.array(phis[:len(thetas)]))
    assert_oracle_bits(run_model_batch(params, inputs, m), oracle_batch(params, inputs, m))


def numpy_sector_amplitudes(params, alpha, beta, m, m_orth, delta):
    """Each device's sector amplitudes as first written: numpy's sqrt and exp
    on every value, and every hybrid product in full.  The kernel may skip
    numpy on numbers and share a product only where these bits stay."""
    if isinstance(params, HybridParams):
        p = params
        a00 = alpha * 2.0 * p.r * p.t * (p.eta0 * p.eta0) * p.t0 * p.nu0 * p.r0
        a10 = beta * p.r * p.t * p.eta0 * p.eta1 * p.t1 * p.nu1 * p.r0
        a01 = beta * p.r * p.t * p.eta0 * p.eta1 * p.t0 * p.nu0 * p.r1
        sectors = [(m * a00, m * a10, m * a01)]
        if m_orth > 0.0:
            c = m_orth * p.r * p.t * p.eta0
            sectors.append((c * (alpha * p.eta0 * p.t0 * p.nu0 * p.r0),
                            c * (beta * p.eta1 * p.t1 * p.nu1 * p.r0), 0.0))
            sectors.append((c * (alpha * p.eta0 * p.r0 * p.t0 * p.nu0), 0.0,
                            c * (beta * p.eta1 * p.r1 * p.t0 * p.nu0)))
        return sectors
    if isinstance(params, MachZehnderParams):
        r0, t0, r1, t1, loss0, loss1, phase0, phase1 = params.couplings(delta)
    else:
        if isinstance(params, SpecialBSParams):
            R0, R1, sign = params.R0, params.R1, params.sign_convention
            loss0, loss1, phase0, phase1 = params.comp_loss_r0, params.comp_loss_r1, 0.0, 0.0
        else:
            R0, R1, sign = params.R_vrc0, params.R_vrc1, -1
            loss0, loss1, phase0, phase1 = 1.0, 1.0, 0.0, delta
        R1 = (1.0 - R0) if R1 is None else R1
        r0, t0, r1, t1 = np.sqrt(R0), np.sqrt(1.0 - R0), np.sqrt(R1), sign * np.sqrt(1.0 - R1)
    phase = np.exp(1j * (phase1 - phase0))
    a00 = alpha * (r0 * r0 - t0 * t0) * loss0
    a10 = beta * (r0 * r1) * loss1 * phase
    a01 = -beta * (t0 * t1) * loss0 * phase
    sectors = [(m * a00, m * a10, m * a01)]
    if m_orth > 0.0:
        sectors.append((m_orth * alpha * r0**2 * loss0, m_orth * a10, 0.0))
        sectors.append((-m_orth * alpha * t0**2 * loss0, 0.0, m_orth * a01))
    return sectors


#: per variant, fields a candidate column may replace, and their values
AMPLITUDE_COLUMNS = {
    "special_bs": (["R0", "R1", "comp_loss_r0", "comp_loss_r1"], st.floats(0.0, 1.0)),
    "mach_zehnder": (["theta_V", "theta_H", "phase_offset_r0", "phase_offset_r1"],
                     st.floats(-3.5, 3.5)),
    "hybrid": (["eta0", "eta1", "nu0", "nu1"], st.floats(0.0, 1.0)),
    "fiber": (["R_vrc0", "R_vrc1"], st.floats(0.0, 1.0)),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=ORACLE_OVERLAPS,
       input=QUBITS | st.sampled_from([Qubit(0.0, 0.0), Qubit(math.pi, 0.0), Qubit(0.0, 2.0)]))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_sector_amplitudes_keep_the_bits_of_their_numpy_formulas(variant, data, m, input):
    params = data.draw(PARAMS[variant])
    names, values = AMPLITUDE_COLUMNS[variant]
    n = data.draw(st.integers(1, 5))
    free = data.draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    params = replace(params, **{name: np.array(data.draw(st.lists(values, min_size=n,
                                                                  max_size=n)))
                                for name in free})
    delta = data.draw(st.sampled_from([0.0, -0.0]) | st.just(np.linspace(-0.3, 0.4, n)))
    m_orth = math.sqrt(max(0.0, 1.0 - m * m))
    psi = input.amplitudes()
    # the input as two numbers (the jitter kernels) and as one row (the batch kernel)
    for alpha, beta in ((psi[0], psi[1]), (psi[None, 0], psi[None, 1])):
        got = params.sector_amplitudes(alpha, beta, m, m_orth, delta)
        want = numpy_sector_amplitudes(params, alpha, beta, m, m_orth, delta)
        assert len(got) == len(want)
        for a, b in zip(itertools.chain(*got), itertools.chain(*want), strict=True):
            assert type(a) is type(b) and np.shape(a) == np.shape(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


#: candidate columns as the optimizer stacks them, each drawn around a base
#: device; the detection ratio is a field the amplitudes never read (one row)
CANDIDATE_COLUMNS = {
    "special_bs-R0": (SpecialBSParams(), {"R0": st.floats(0.0, 1.0)}),
    "hybrid-eta0-nu0": (HybridParams(), {"eta0": st.floats(0.0, 1.0),
                                         "nu0": st.floats(0.0, 1.0)}),
    "fiber-detection_ratio_1": (FiberParams(R_vrc0=0.7),
                                {"detection_ratio_1": st.floats(0.0, 1.0)}),
}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=ORACLE_OVERLAPS, n=st.integers(1, 12),
       input=QUBITS | st.sampled_from([Qubit(0.0, 0.0), Qubit(math.pi, 0.0)]))
@pytest.mark.parametrize("case", list(CANDIDATE_COLUMNS))
def test_kernel_keeps_the_bits_on_candidate_columns(case, data, m, n, input):
    model, columns = CANDIDATE_COLUMNS[case]
    params = replace(model, **{name: np.array(data.draw(st.lists(values, min_size=n,
                                                                 max_size=n)))
                               for name, values in columns.items()})
    batch = run_model_batch(params, input, m)
    assert len(batch.P_succ) == (1 if case.startswith("fiber") else n)
    assert_oracle_bits(batch, oracle_batch(params, input, m))


#: batches with empty and non-empty rows, and the overlaps at which they have both
MIXED_EMPTY = {
    # a 50:50 splitter cancels the |0> input, by interference: at M = 1 only
    "splitter": (SpecialBSParams(R0=0.5),
                 Qubit(np.array([0.0, 1.0, 0.0, math.pi]), np.zeros(4)), [1.0]),
    # the closed r0 plate blocks the |0> input at any overlap
    "plate": (SpecialBSParams(comp_loss_r0=0.0),
              Qubit(np.array([0.0, 0.4, 0.0, math.pi]), np.array([0.0, 2.0, 1.0, 0.5])),
              [0.0, 0.3, 0.9, 1.0]),
    # candidates against the |0> input, every third plate closed
    "candidates": (SpecialBSParams(R0=np.linspace(0.0, 1.0, 9),
                                   comp_loss_r0=np.resize([0.0, 1.0, 1.0], 9)),
                   Qubit(0.0, 0.0), [0.0, 0.3, 0.9, 1.0]),
}


@pytest.mark.parametrize("case, m", [(case, m) for case, (*_, overlaps) in MIXED_EMPTY.items()
                                     for m in overlaps])
def test_kernel_keeps_the_bits_of_mixed_empty_batches(case, m):
    model, inputs, _ = MIXED_EMPTY[case]
    batch = run_model_batch(model, inputs, m)
    assert 0 < np.count_nonzero(batch.P_succ == 0.0) < len(batch.P_succ)
    assert_oracle_bits(batch, oracle_batch(model, inputs, m))


# ---------------------------------------------------------------------------
# joint states on read
# ---------------------------------------------------------------------------

@pytest.fixture
def joint_builds(monkeypatch):
    """The row counts of every joint-state build, in order."""
    builds = []
    build = cloners._joint_states

    def spy(v):
        builds.append(len(v))
        return build(v)

    monkeypatch.setattr(cloners, "_joint_states", spy)
    return builds


def test_joint_is_built_once_on_read_and_read_only(joint_builds):
    batch = run_model_batch(SpecialBSParams(R0=0.5), Qubit(np.array([0.0, 1.0, 2.0]), 0.3))
    assert joint_builds == []
    joint = batch.joint
    assert batch.joint is joint and joint_builds == [3]
    assert not joint.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        joint[0, 0, 0] = 1.0
    assert not joint[0].any()  # the |0> row is empty


SWEEP = {"model": {"variant": "hybrid"}, "noise": {"overlap_M": 0.9},
         "sweep": {"theta": {"start": 0.0, "stop": math.pi, "count": 5},
                   "phi": [0.0, 1.0]}}


def test_uncounted_sweeps_never_build_the_joint(joint_builds):
    run_experiment(parse_experiment(SWEEP))
    assert joint_builds == []


def test_counted_sweeps_build_the_joint_once(joint_builds):
    run_experiment(parse_experiment(dict(SWEEP, counting={"n_pairs": 1000, "seed": 4})))
    assert joint_builds == [10]


def test_run_model_builds_its_one_row(joint_builds):
    assert not run_model(HybridParams(), EQ, overlap_M=0.9).is_empty
    assert joint_builds == [1]


@pytest.mark.parametrize("model, free", [
    (HybridParams(eta0=0.6), {"eta0": (0.4, 1.0), "nu0": (0.5, 1.0)}),
    (FiberParams(R_vrc0=0.7), {"detection_ratio_1": (0.4, 0.6)}),
])
def test_optimizer_builds_only_its_report_row(joint_builds, model, free):
    # no search batch builds its joint states; the report builds its own row
    assert not optimize_symmetry(model, free, grid_points=9).report.is_empty
    assert joint_builds == [1]


def test_stacked_validator_rejects_one_bad_matrix():
    good = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    stack = np.stack([good, good, good])
    check_density(stack, "density matrix")

    non_hermitian = stack.copy()
    non_hermitian[1, 0, 1] = 0.5 + 0.1j
    with pytest.raises(ValueError, match="density matrix is not Hermitian"):
        check_density(non_hermitian, "density matrix")

    negative = stack.copy()
    negative[2] = [[1.5, 0.0], [0.0, -0.5]]
    with pytest.raises(ValueError, match="density matrix has a negative eigenvalue"):
        check_density(negative, "density matrix")

    bad_trace = stack.copy()
    bad_trace[0] = [[0.7, 0.0], [0.0, 0.7]]
    with pytest.raises(ValueError, match="trace must be 1"):
        check_density(bad_trace, "density matrix")

    for bad in (np.nan, np.inf):
        non_finite = stack.copy()
        non_finite[1] = bad
        with pytest.raises(ValueError, match="density matrix must be finite, got "):
            check_density(non_finite, "density matrix")
    with pytest.raises(ValueError, match="density matrix must be finite, got "):
        check_density(np.full((3, 2, 2), np.nan), "density matrix")
