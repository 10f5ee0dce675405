import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcclone.cloners import MachZehnderParams, SpecialBSParams, run_model
from pcclone.fock import (
    DensityMatrix,
    Port,
    Qubit,
    TwoQubitState,
    attenuator,
    coupler,
    fidelity,
    photon_pair,
    postselect_coincidence,
)
from pcclone.noise import NoiseConfig, average_over_jitter

# modes of the principal bin, index 2 * port + rail
M1R0, M1R1, M2R0, M2R1 = 0, 1, 2, 3
HALF = math.sqrt(0.5)
E = np.eye(4)


def propagate(u, state):
    return u @ state @ u.T


def norm_squared(state):
    return 2.0 * float(np.sum(np.abs(state) ** 2))


def block_norm(state, modes):
    """Norm of the component with both photons in ``modes``."""
    return norm_squared(state[np.ix_(modes, modes)])


# ---------------------------------------------------------------------------
# couplers
# ---------------------------------------------------------------------------

def test_coupler_single_photon_reflectance():
    state = photon_pair(E[M1R0], E[M2R1])  # second photon parked
    out = propagate(coupler(M1R0, M2R0, math.sqrt(0.789), math.sqrt(0.211)), state)
    stay = 2.0 * out[M1R0, M2R1]
    assert abs(stay) ** 2 == pytest.approx(0.789, abs=1e-12)


def test_coupler_sign_convention():
    # a -> r a + t b,  b -> r b - t a, as columns of the transfer matrix
    u = coupler(M1R0, M2R0, 0.6, 0.8)
    assert np.array_equal(u[:, M1R0], [0.6, 0.0, 0.8, 0.0])
    assert np.array_equal(u[:, M2R0], [-0.8, 0.0, 0.6, 0.0])
    assert np.array_equal(u[:, [M1R1, M2R1]], np.eye(4)[:, [M1R1, M2R1]])


def test_coupler_hom_cancellation():
    state = photon_pair(E[M1R0], E[M2R0])
    _, prob = postselect_coincidence(propagate(coupler(M1R0, M2R0, HALF, HALF), state))
    assert prob < 1e-12


def test_coupler_distinguishable_photons_coincide_half_the_time():
    # independent classical paths: P_coinc = (r^2)^2 + (t^2)^2
    r2 = t2 = 0.5
    oracle = r2 * r2 + t2 * t2
    modes = np.eye(8)
    state = photon_pair(modes[M1R0], modes[4 + M2R0])  # ancilla in the other bin
    u = np.kron(np.eye(2), coupler(M1R0, M2R0, HALF, HALF))
    _, prob = postselect_coincidence(propagate(u, state))
    assert prob == pytest.approx(oracle, abs=1e-12)
    assert oracle == 0.5


def test_coupler_rejects_lossy_pair():
    with pytest.raises(ValueError, match="r\\^2 \\+ t\\^2"):
        coupler(M1R0, M2R0, 0.9, 0.9)


def test_coupler_rejects_identical_modes():
    with pytest.raises(ValueError, match="distinct"):
        coupler(M1R0, M1R0, 1.0, 0.0)


@st.composite
def random_two_photon_state(draw):
    values = draw(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=32, max_size=32)
    )
    t = np.reshape(values[:16], (4, 4)) + 1j * np.reshape(values[16:], (4, 4))
    t = t + t.T
    if np.linalg.norm(t) < 1e-6:
        t = photon_pair(E[M1R0], E[M2R0])
    return t / math.sqrt(norm_squared(t))


@settings(max_examples=60, deadline=None)
@given(random_two_photon_state(), st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_coupler_preserves_norm(state, angle):
    r, t = math.cos(angle), math.sin(angle)
    out = propagate(coupler(M1R0, M2R1, r, t), state)
    assert abs(norm_squared(out) - norm_squared(state)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(random_two_photon_state(), st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_coupler_inverse_restores_input(state, angle):
    r, t = math.cos(angle), math.sin(angle)
    out = propagate(coupler(M1R0, M2R0, r, t), state)
    back = propagate(coupler(M1R0, M2R0, r, -t), out)
    assert np.max(np.abs(back - state)) < 1e-10


@st.composite
def random_unitary(draw):
    values = draw(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=32, max_size=32)
    )
    z = np.reshape(values[:16], (4, 4)) + 1j * np.reshape(values[16:], (4, 4))
    q, _ = np.linalg.qr(z)
    return q


@settings(max_examples=60, deadline=None)
@given(random_unitary(), st.permutations(range(4)))
def test_coincidence_amplitudes_are_two_by_two_permanents(u, modes):
    i, j = modes[:2]  # two distinct input modes
    out = propagate(u, photon_pair(E[i], E[j]))
    for k in range(4):
        for l in range(4):
            if k != l:
                permanent = u[k, i] * u[l, j] + u[k, j] * u[l, i]
                assert abs(2.0 * out[k, l] - permanent) < 1e-12
    _, prob = postselect_coincidence(out)
    expected = sum(
        abs(u[k, i] * u[l, j] + u[k, j] * u[l, i]) ** 2
        for k in (M1R0, M1R1) for l in (M2R0, M2R1)
    )
    assert prob == pytest.approx(expected, abs=1e-12)


def test_probability_completeness_for_lossless_circuit():
    q = Qubit.equatorial(0.4)
    signal = np.concatenate([q.amplitudes(), [0.0, 0.0]])
    state = photon_pair(signal, E[M2R0])
    u = (coupler(M1R1, M2R1, math.sqrt(0.3), -math.sqrt(0.7))
         @ coupler(M1R0, M2R0, math.sqrt(0.7), math.sqrt(0.3)))
    state = propagate(u, state)
    _, p_coinc = postselect_coincidence(state)
    p_both_1 = block_norm(state, [M1R0, M1R1])
    p_both_2 = block_norm(state, [M2R0, M2R1])
    assert p_coinc + p_both_1 + p_both_2 == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# attenuators
# ---------------------------------------------------------------------------

def test_attenuator_identity():
    state = photon_pair(E[M1R0], E[M2R0])
    out = propagate(attenuator([1.0, 1.0, 1.0, 1.0]), state)
    assert np.array_equal(out, state)


def test_attenuator_full_absorption():
    state = photon_pair(E[M1R0], E[M2R0])
    out = propagate(attenuator([0.0, 1.0, 1.0, 1.0]), state)
    assert norm_squared(out) == 0.0


def test_attenuator_two_photon_scaling():
    state = photon_pair(E[M1R0], E[M1R0])  # |2> in mode M1R0
    out = propagate(attenuator([HALF, 1.0, 1.0, 1.0]), state)
    assert out[M1R0, M1R0] / state[M1R0, M1R0] == pytest.approx(0.5, abs=1e-12)


def test_attenuator_never_increases_norm():
    state = photon_pair(E[M1R0], E[M2R0])
    out = propagate(attenuator([1.0, 1.0, 0.37, 1.0]), state)
    assert norm_squared(out) <= norm_squared(state) + 1e-12


def test_attenuator_rejects_out_of_range():
    with pytest.raises(ValueError, match="transmittance"):
        attenuator([1.2, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="transmittance"):
        attenuator([1.0, float("nan"), 1.0, 1.0])


# ---------------------------------------------------------------------------
# post-selection and reduction
# ---------------------------------------------------------------------------

def test_postselect_zero_probability_marker():
    state = photon_pair(E[M1R0], E[M1R1])  # both photons in port 1
    joint, prob = postselect_coincidence(state)
    assert joint is None
    assert prob == 0.0


def test_postselect_normalizes_kept_component():
    q = Qubit.equatorial(1.1)
    signal = np.concatenate([q.amplitudes(), [0.0, 0.0]])
    r = math.sqrt(0.7886751345948129)
    t = math.sqrt(1 - 0.7886751345948129)
    u = coupler(M1R1, M2R1, t, -r) @ coupler(M1R0, M2R0, r, t)
    joint, prob = postselect_coincidence(propagate(u, photon_pair(signal, E[M2R0])))
    assert prob == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert np.trace(joint.rho).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "shape",
    [(0, 0), (4,), (3, 3), (4, 8), (6, 6), (2, 4, 4)],
    ids=["empty", "vector", "three-modes", "not-square", "six-modes", "stack"],
)
def test_postselect_rejects_non_mode_matrix(shape):
    with pytest.raises(ValueError, match="multiple of 4 modes"):
        postselect_coincidence(np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_postselect_rejects_non_finite_amplitudes(bad):
    # the kept state is built unchecked, so a bad amplitude must not reach it
    state = photon_pair(E[M1R0], E[M2R0])
    state[M1R0, M2R0] = state[M2R0, M1R0] = bad
    with pytest.raises(ValueError, match="amplitude matrix must be finite"):
        postselect_coincidence(state)


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
    joint, prob = postselect_coincidence(propagate(coupler(M1R0, M2R0, r, t), state))
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


def test_qubit_drops_the_sign_of_a_zero_theta():
    q = Qubit(-0.0, -0.0)
    assert math.copysign(1.0, q.theta) == 1.0
    assert math.copysign(1.0, q.phi) == 1.0
    assert q == Qubit(0.0, 0.0)
    assert Qubit(1.25, 0.5).theta == 1.25


def test_a_qubit_of_arrays_holds_one_state_per_entry():
    theta = np.array([0.0, -0.0, 1.0, math.pi, 2.0, 0.3])
    phi = np.array([-0.0, -1e-300, 7.0, 2 * math.pi, -2.5, 1e300])
    batch = Qubit(theta, phi)
    rows = [Qubit(t, p) for t, p in zip(theta.tolist(), phi.tolist())]
    assert [x.hex() for x in batch.theta.tolist()] == [q.theta.hex() for q in rows]
    assert [x.hex() for x in batch.phi.tolist()] == [q.phi.hex() for q in rows]
    assert batch.amplitudes().tobytes() == np.array([q.amplitudes() for q in rows]).tobytes()
    orthogonal = batch.orthogonal()
    assert orthogonal.amplitudes().tobytes() == np.array(
        [q.orthogonal().amplitudes() for q in rows]).tobytes()
    # a scalar field broadcasts against an array one; the arrays are read-only
    assert Qubit.equatorial(phi).theta.tolist() == [math.pi / 2] * 6
    with pytest.raises(ValueError):
        batch.theta[0] = 1.0
    # an error names the first bad entry
    with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\], got 3.5"):
        Qubit(np.array([0.5, 3.5, -1.0]), 0.0)
    with pytest.raises(ValueError, match="phi must be finite, got nan"):
        Qubit(1.0, np.array([0.0, np.nan, np.inf]))


def test_qubit_equality_is_one_bool_and_only_single_states_hash():
    phi = np.array([0.0, 1.0, 2.0])
    batch = Qubit.equatorial(phi)
    assert (batch == Qubit.equatorial(phi.copy())) is True
    assert (batch != Qubit.equatorial(phi.copy())) is False
    assert (batch == Qubit.equatorial(np.array([0.0, 1.0, 2.5]))) is False
    assert (batch == Qubit.equatorial(phi[:2])) is False
    assert (Qubit.equatorial(phi[:1]) == Qubit.equatorial(0.0)) is False
    assert (batch == Qubit(phi, 0.0)) is False
    assert batch != "equator"
    with pytest.raises(TypeError, match="batch of Qubit states .* is unhashable"):
        hash(batch)
    # a single state keeps the dataclass's equality and hash of its fields
    q = Qubit(1.25, 7.0)
    assert q == Qubit(1.25, 7.0) and q != Qubit(1.25, 0.5)
    assert hash(q) == hash((q.theta, q.phi)) == hash(Qubit(1.25, 7.0))
    assert len({q, Qubit(1.25, 7.0), Qubit(0.5, 7.0)}) == 2


def test_amplitudes_keep_the_bits_of_scalar_libm_cos_and_sin():
    # the analyzer vectors, and so the counts, depend on these bits: numpy's
    # array cos and sin must give math.cos's and math.sin's, entry by entry
    rng = np.random.default_rng(11)
    theta = np.concatenate([rng.uniform(0.0, math.pi, 200_000),
                            [0.0, 5e-324, math.pi / 2, math.pi]])
    phi = rng.uniform(-10.0, 10.0, theta.size)
    half = (theta / 2.0).tolist()
    cos = np.array([math.cos(x) for x in half])
    sin = np.array([math.sin(x) for x in half])
    assert np.cos(theta / 2.0).tobytes() == cos.tobytes()
    assert np.sin(theta / 2.0).tobytes() == sin.tobytes()
    batch = Qubit(theta, phi)
    expected = np.stack([cos + 0j, sin * np.exp(1j * batch.phi)], axis=-1)
    assert batch.amplitudes().tobytes() == expected.tobytes()
    # a single Qubit keeps the bits of the scalar formula
    for t, p in zip(theta[-2000:].tolist(), phi[-2000:].tolist()):
        q = Qubit(t, p)
        scalar = np.array([math.cos(q.theta / 2.0),
                           math.sin(q.theta / 2.0) * np.exp(1j * q.phi)], dtype=complex)
        assert q.amplitudes().tobytes() == scalar.tobytes()


def fresh_amplitudes(q):
    """The amplitudes of ``q``'s fields, computed apart from any Qubit."""
    half = np.ravel(q.theta) / 2.0
    psi = np.stack([np.cos(half) + 0j, np.sin(half) * np.exp(1j * np.ravel(q.phi))], -1)
    return psi.reshape(np.shape(q.theta) + (2,))


def test_amplitudes_are_computed_once_and_read_only():
    batch = Qubit(np.array([0.0, 1.0, math.pi]), np.array([0.5, -1.0, 7.0]))
    single = Qubit(1.25, 7.0)
    states = [single, batch, single.orthogonal(), batch.orthogonal(),
              Qubit._trusted(1.25, single.phi), replace(single, theta=0.5),
              replace(batch, phi=np.array([2.0, 3.0, 4.0]))]
    for q in states:
        psi = q.amplitudes()
        assert q.amplitudes() is psi
        assert psi.tobytes() == fresh_amplitudes(q).tobytes()
        with pytest.raises(ValueError):
            psi[0] = 1.0
    # a state built from a memoised one computes its own amplitudes
    assert replace(single, theta=0.5).amplitudes().tobytes() \
        == fresh_amplitudes(Qubit(0.5, 7.0)).tobytes()
    # equality, hash and repr read the fields only
    memoised, bare = Qubit(0.75, 2.0), Qubit(0.75, 2.0)
    memoised.amplitudes()
    assert memoised == bare and hash(memoised) == hash(bare)
    assert repr(memoised) == repr(bare) == "Qubit(theta=0.75, phi=2.0)"
    assert batch == Qubit(batch.theta.copy(), batch.phi.copy())


def test_two_qubit_state_is_immutable():
    state = photon_pair(E[M1R0], E[M2R0])
    joint, _ = postselect_coincidence(state)
    with pytest.raises(AttributeError):
        joint.rho = np.eye(4) / 4.0
    with pytest.raises(ValueError):
        joint.rho[0, 0] = 5.0
    # the states the kernels build unchecked are read-only too
    q = Qubit.equatorial(0.3)
    jitter = NoiseConfig(overlap_M=0.9, phase_jitter_sigma=0.1)
    reports = [
        run_model(SpecialBSParams.ideal(), q),
        run_model(SpecialBSParams.ideal(), q, overlap_M=0.9),
        average_over_jitter(MachZehnderParams.ideal(), jitter, q, 0, 100),
    ]
    for report in reports:
        for array in (report.joint.rho, report.rho1.matrix, report.rho2.matrix):
            with pytest.raises(ValueError):
                array[0, 0] = 5.0
