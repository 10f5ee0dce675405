import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcclone.fock import (
    MODES_4,
    BasisSet,
    DensityMatrix,
    Mode,
    Port,
    Qubit,
    Rail,
    StateVector,
    Temporal,
    TwoQubitState,
    apply_attenuator,
    apply_two_mode_coupler,
    fidelity,
    postselect_coincidence,
    two_photon_basis,
)

M1R0 = Mode(Port.OUT1, Rail.R0, Temporal.PRINCIPAL)
M1R1 = Mode(Port.OUT1, Rail.R1, Temporal.PRINCIPAL)
M2R0 = Mode(Port.OUT2, Rail.R0, Temporal.PRINCIPAL)
M2R1 = Mode(Port.OUT2, Rail.R1, Temporal.PRINCIPAL)
HALF = math.sqrt(0.5)


def pair_state(basis, mode_x, mode_y, amplitude=1.0):
    if mode_x == mode_y:
        return StateVector.from_terms(basis, [(amplitude, {mode_x: 2})])
    return StateVector.from_terms(basis, [(amplitude, {mode_x: 1, mode_y: 1})])


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "mode_count,expected", [(2, 3), (4, 10), (8, 36)]
)
def test_enumerate_basis_sizes(mode_count, expected):
    assert len(two_photon_basis(mode_count).states) == expected


def test_enumerate_basis_two_modes_content():
    assert two_photon_basis(2).states == ((2, 0), (1, 1), (0, 2))


def test_enumerate_basis_order_is_stable():
    first = two_photon_basis(8).states
    again = BasisSet(two_photon_basis(8).modes).states
    assert first == again
    assert len(set(first)) == len(first)
    assert all(sum(occ) == 2 for occ in first)


def test_enumerate_basis_rejects_other_photon_numbers():
    three_photons = StateVector.zero(BasisSet(MODES_4, photon_count=3))
    with pytest.raises(ValueError, match="two-photon"):
        postselect_coincidence(three_photons)


# ---------------------------------------------------------------------------
# couplers
# ---------------------------------------------------------------------------

def test_coupler_single_photon_reflectance():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R1)  # second photon parked on rail r1
    out = apply_two_mode_coupler(state, M1R0, M2R0, math.sqrt(0.789), math.sqrt(0.211))
    stay = out.amplitude(
        tuple(1 if m in (M1R0, M2R1) else 0 for m in basis.modes)
    )
    assert abs(stay) ** 2 == pytest.approx(0.789, abs=1e-12)


def test_coupler_hom_cancellation():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    out = apply_two_mode_coupler(state, M1R0, M2R0, HALF, HALF)
    _, prob = postselect_coincidence(out)
    assert prob < 1e-12


def test_coupler_distinguishable_photons_coincide_half_the_time():
    # independent classical paths: P_coinc = (r^2)^2 + (t^2)^2
    r2 = t2 = 0.5
    oracle = r2 * r2 + t2 * t2
    basis = two_photon_basis(8)
    orth = Mode(Port.OUT2, Rail.R0, Temporal.ORTHOGONAL)
    state = pair_state(basis, M1R0, orth)
    state = apply_two_mode_coupler(state, M1R0, M2R0, HALF, HALF)
    state = apply_two_mode_coupler(
        state, Mode(Port.OUT1, Rail.R0, Temporal.ORTHOGONAL), orth, HALF, HALF
    )
    _, prob = postselect_coincidence(state)
    assert prob == pytest.approx(oracle, abs=1e-12)
    assert oracle == 0.5


def test_coupler_rejects_lossy_pair():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    with pytest.raises(ValueError, match="r\\^2 \\+ t\\^2"):
        apply_two_mode_coupler(state, M1R0, M2R0, 0.9, 0.9)


def test_coupler_rejects_identical_modes():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    with pytest.raises(ValueError, match="distinct"):
        apply_two_mode_coupler(state, M1R0, M1R0, 1.0, 0.0)


@st.composite
def random_two_photon_state(draw):
    basis = two_photon_basis(4)
    values = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False),
            min_size=2 * len(basis),
            max_size=2 * len(basis),
        )
    )
    amps = np.array(values[: len(basis)]) + 1j * np.array(values[len(basis):])
    norm = np.linalg.norm(amps)
    if norm < 1e-6:
        amps = np.zeros(len(basis), complex)
        amps[0] = 1.0
    else:
        amps = amps / norm
    return StateVector(basis, amps)


@settings(max_examples=60, deadline=None)
@given(random_two_photon_state(), st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_coupler_preserves_norm(state, angle):
    r, t = math.cos(angle), math.sin(angle)
    out = apply_two_mode_coupler(state, M1R0, M2R1, r, t)
    assert abs(out.norm_squared - state.norm_squared) < 1e-12


@settings(max_examples=60, deadline=None)
@given(random_two_photon_state(), st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_coupler_inverse_restores_input(state, angle):
    r, t = math.cos(angle), math.sin(angle)
    out = apply_two_mode_coupler(state, M1R0, M2R0, r, t)
    back = apply_two_mode_coupler(out, M1R0, M2R0, r, -t)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10


def test_probability_completeness_for_lossless_circuit():
    basis = two_photon_basis(4)
    q = Qubit.equatorial(0.4)
    alpha, beta = q.amplitudes()
    state = StateVector.from_terms(
        basis, [(alpha, {M1R0: 1, M2R0: 1}), (beta, {M1R1: 1, M2R0: 1})]
    )
    state = apply_two_mode_coupler(state, M1R0, M2R0, math.sqrt(0.7), math.sqrt(0.3))
    state = apply_two_mode_coupler(state, M1R1, M2R1, math.sqrt(0.3), -math.sqrt(0.7))
    _, p_coinc = postselect_coincidence(state)
    probs = np.abs(state.amplitudes) ** 2
    p_both_1 = probs[basis.port_counts[:, Port.OUT1] == 2].sum()
    p_both_2 = probs[basis.port_counts[:, Port.OUT2] == 2].sum()
    assert p_coinc + p_both_1 + p_both_2 == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# attenuators
# ---------------------------------------------------------------------------

def test_attenuator_identity():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    out = apply_attenuator(state, M1R0, 1.0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_attenuator_full_absorption():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    out = apply_attenuator(state, M1R0, 0.0)
    assert out.norm_squared == 0.0


def test_attenuator_two_photon_scaling():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M1R0)
    out = apply_attenuator(state, M1R0, HALF)
    occ = tuple(2 if m == M1R0 else 0 for m in basis.modes)
    assert out.amplitude(occ) == pytest.approx(0.5, abs=1e-12)


def test_attenuator_never_increases_norm():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    out = apply_attenuator(state, M2R0, 0.37)
    assert out.norm_squared <= state.norm_squared + 1e-12


def test_attenuator_rejects_out_of_range():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    with pytest.raises(ValueError, match="transmittance"):
        apply_attenuator(state, M1R0, 1.2)


# ---------------------------------------------------------------------------
# post-selection and reduction
# ---------------------------------------------------------------------------

def test_postselect_zero_probability_marker():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M1R1)  # both photons in port 1
    joint, prob = postselect_coincidence(state)
    assert joint is None
    assert prob == 0.0


def test_postselect_normalizes_kept_component():
    basis = two_photon_basis(4)
    q = Qubit.equatorial(1.1)
    alpha, beta = q.amplitudes()
    state = StateVector.from_terms(
        basis, [(alpha, {M1R0: 1, M2R0: 1}), (beta, {M1R1: 1, M2R0: 1})]
    )
    r = math.sqrt(0.7886751345948129)
    t = math.sqrt(1 - 0.7886751345948129)
    state = apply_two_mode_coupler(state, M1R0, M2R0, r, t)
    state = apply_two_mode_coupler(state, M1R1, M2R1, t, -r)
    joint, prob = postselect_coincidence(state)
    assert prob == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert np.trace(joint.rho).real == pytest.approx(1.0, abs=1e-12)


def test_reduced_product_state():
    q = Qubit(0.9, 2.2)
    chi = Qubit(2.0, 5.0)
    joint = TwoQubitState.from_pure(np.kron(q.amplitudes(), chi.amplitudes()))
    rho1 = joint.reduced(Port.OUT1)
    assert fidelity(rho1, q) == pytest.approx(1.0, abs=1e-12)
    rho2 = joint.reduced(Port.OUT2)
    assert fidelity(rho2, chi) == pytest.approx(1.0, abs=1e-12)


def test_reduced_singlet_is_maximally_mixed():
    vec = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    joint = TwoQubitState.from_pure(vec)
    for port in Port:
        rho = joint.reduced(port)
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2.0)) < 1e-12


def test_reduced_ideal_clone_state_fidelity():
    # oracle: for a|00> + b(|10> + |01>), F = 1/2 + a*b/(a^2 + 2 b^2)
    a, b = HALF, 0.5
    oracle = 0.5 + a * b / (a * a + 2 * b * b)
    q = Qubit.equatorial(0.0)
    joint = TwoQubitState.from_pure(np.array([a, b, b, 0.0]))
    rho = joint.reduced(Port.OUT1)
    assert fidelity(rho, q) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(0.8535533905932737, abs=1e-12)


def test_reduced_requires_two_qubit_state():
    # the reduction is a method of the validated 4x4 state; a qubit-sized
    # matrix cannot become one
    with pytest.raises(ValueError, match="4x4"):
        TwoQubitState(np.eye(2) / 2.0).reduced(Port.OUT1)


@settings(max_examples=40, deadline=None)
@given(random_two_photon_state(), st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_reduced_matrices_are_valid_density_matrices(state, angle):
    r, t = math.cos(angle), math.sin(angle)
    out = apply_two_mode_coupler(state, M1R0, M2R0, r, t)
    joint, prob = postselect_coincidence(out)
    if joint is None:
        return
    for port in Port:
        rho = joint.reduced(port).matrix
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


# ---------------------------------------------------------------------------
# fidelity and validation
# ---------------------------------------------------------------------------

def test_fidelity_pure_state_is_one():
    q = Qubit(1.234, 0.77)
    psi = q.amplitudes()
    assert fidelity(np.outer(psi, psi.conj()), q) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_maximally_mixed_is_half():
    assert fidelity(np.eye(2) / 2.0, Qubit.equatorial(1.0)) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.9, 0.3], [0.1, 0.1]]),          # not Hermitian
        np.array([[0.9, 0.0], [0.0, 0.9]]),          # trace != 1
        np.array([[1.2, 0.0], [0.0, -0.2]]),         # negative eigenvalue
    ],
)
def test_fidelity_rejects_invalid_density_matrix(bad):
    with pytest.raises(ValueError):
        fidelity(bad, Qubit.equatorial(0.0))


def test_density_matrix_accepts_valid_input():
    rho = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]]))
    assert rho.matrix.shape == (2, 2)


def test_qubit_validation_and_orthogonality():
    with pytest.raises(ValueError, match="theta"):
        Qubit(-0.1, 0.0)
    q = Qubit(0.8, 1.3)
    overlap = np.vdot(q.orthogonal().amplitudes(), q.amplitudes())
    assert abs(overlap) < 1e-12
    assert Qubit.equatorial(7.0).phi == pytest.approx(7.0 - 2.0 * math.pi)


def test_state_vector_is_immutable():
    basis = two_photon_basis(4)
    state = pair_state(basis, M1R0, M2R0)
    with pytest.raises(AttributeError):
        state.amplitudes = np.zeros(len(basis))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5.0
