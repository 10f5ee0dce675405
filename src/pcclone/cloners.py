"""The four cloner architectures as parameterized conditional maps.

Each architecture interferes a signal photon with a rail-r0 ancilla photon
and keeps runs with one photon per output port.  Every model is evaluated
two ways:

* ``via="closed_form"`` -- the conditional output amplitudes written down
  directly (the default, exact and fast), and
* ``via="circuit"``     -- the same device built from two-mode couplers and
  attenuators in the Fock module and post-selected.

Both routes must agree to high precision; the tests enforce it.

Sign convention: couplers use signed real (r, t) with a -> r a + t b,
b -> r b - t a.  The relative minus sign required between the rail-r0 and
rail-r1 paths (r0*r1 = -t0*t1) is carried by a signed rail-r1 transmittance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .fock import (
    CHECK_TOL,
    BUILD_TOL,
    DensityMatrix,
    Mode,
    Port,
    Qubit,
    Rail,
    StateVector,
    Temporal,
    TwoQubitState,
    apply_attenuator,
    apply_rail_phase,
    apply_two_mode_coupler,
    check_density,
    fidelity,
    postselect_coincidence,
    two_photon_basis,
)

#: intensity reflectance of the optimal unbalanced splitter, (1 + 1/sqrt(3))/2
R_OPTIMAL = 0.5 * (1.0 + 1.0 / math.sqrt(3.0))
#: equatorial fidelity of the optimal phase-covariant cloner, (1 + 1/sqrt(2))/2
F_PHASE_COVARIANT = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
#: fidelity of the optimal universal cloner
F_UNIVERSAL = 5.0 / 6.0
#: best measure-and-prepare fidelity for equatorial states
F_SEMICLASSICAL = 0.75


def theoretical_limits() -> dict:
    """The three benchmark fidelities as closed forms."""
    return {
        "F_pc": F_PHASE_COVARIANT,
        "F_univ": F_UNIVERSAL,
        "F_sc": F_SEMICLASSICAL,
    }


def _check_unit_interval(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_amplitude(name, value):
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [-1, 1], got {value}")


def _check_lossless(name_r, r, name_t, t):
    if abs(r * r + t * t - 1.0) > BUILD_TOL:
        raise ValueError(
            f"({name_r}, {name_t}) must satisfy r^2 + t^2 = 1, got {r * r + t * t!r}"
        )


@dataclass(frozen=True)
class SpecialBSParams:
    """Unbalanced beam splitter with rail-dependent splitting ratio.

    ``R0`` is the intensity reflectance seen by rail r0; rail r1 sees ``R1``
    (defaults to the complementary ratio 1 - R0).  ``sign_convention`` puts
    the required relative minus sign on the rail-r1 transmittance; -1 yields
    the symmetric cloner.  ``comp_loss_r0``/``comp_loss_r1`` are amplitude
    transmittances of a compensation attenuator on the corresponding rail of
    output port 1 (1.0 means no plate).
    """

    R0: float = R_OPTIMAL
    R1: float | None = None
    sign_convention: int = -1
    comp_loss_r0: float = 1.0
    comp_loss_r1: float = 1.0

    def __post_init__(self):
        _check_unit_interval("R0", self.R0)
        if self.R1 is not None:
            _check_unit_interval("R1", self.R1)
        if self.sign_convention not in (-1, 1):
            raise ValueError(
                f"sign_convention must be +1 or -1, got {self.sign_convention}"
            )
        _check_unit_interval("comp_loss_r0", self.comp_loss_r0)
        _check_unit_interval("comp_loss_r1", self.comp_loss_r1)

    @classmethod
    def ideal(cls) -> "SpecialBSParams":
        return cls(R0=R_OPTIMAL)

    def rail_amplitudes(self):
        r1_intensity = (1.0 - self.R0) if self.R1 is None else self.R1
        r0 = math.sqrt(self.R0)
        t0 = math.sqrt(1.0 - self.R0)
        r1 = math.sqrt(r1_intensity)
        t1 = self.sign_convention * math.sqrt(1.0 - r1_intensity)
        return r0, t0, r1, t1


@dataclass(frozen=True)
class MachZehnderParams:
    """Interferometer emulating the unbalanced splitter.

    ``theta_V``/``theta_H`` are the arm phase differences for the rail-r0 and
    rail-r1 components; the effective splitting is R_j = sin^2(theta_j).  The
    signed amplitudes (sin, cos) carry the relative sign automatically, so the
    symmetric setting is theta_H = theta_V + pi/2.  ``phase_offset_r0``/``_r1``
    model residual uncompensated rail-dependent phase shifts applied before
    post-selection.
    """

    theta_V: float
    theta_H: float
    phase_offset_r0: float = 0.0
    phase_offset_r1: float = 0.0

    def __post_init__(self):
        for name in ("theta_V", "theta_H", "phase_offset_r0", "phase_offset_r1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def ideal(cls) -> "MachZehnderParams":
        theta_v = math.asin(math.sqrt(R_OPTIMAL))
        return cls(theta_V=theta_v, theta_H=theta_v + math.pi / 2.0)

    def rail_amplitudes(self, arm_phase_error: float = 0.0):
        tv = self.theta_V + arm_phase_error
        th = self.theta_H + arm_phase_error
        return math.sin(tv), math.cos(tv), math.sin(th), math.cos(th)

    @property
    def relative_phase(self) -> float:
        return self.phase_offset_r1 - self.phase_offset_r0


def mz_splitting(theta_V: float, theta_H: float):
    """Effective intensity reflectances (R_V, R_H) = (sin^2, sin^2)."""
    return math.sin(theta_V) ** 2, math.sin(theta_H) ** 2


@dataclass(frozen=True)
class HybridParams:
    """Photon bunching on a balanced splitter followed by state filtering.

    ``r``/``t`` belong to the bunching splitter BS1, ``r0, t0, r1, t1`` to the
    separating splitter BS2 (rail-dependent), ``eta0``/``eta1`` to the filter
    plate ahead of BS2 and ``nu0``/``nu1`` to the compensation plate on output
    port 1.  All glass-plate values are amplitude transmittances.
    """

    r: float = math.sqrt(0.5)
    t: float = math.sqrt(0.5)
    r0: float = math.sqrt(0.5)
    t0: float = math.sqrt(0.5)
    r1: float = math.sqrt(0.5)
    t1: float = math.sqrt(0.5)
    eta0: float = math.sqrt(0.5)
    eta1: float = 1.0
    nu0: float = 1.0
    nu1: float = 1.0

    def __post_init__(self):
        for name in ("r", "t", "r0", "t0", "r1", "t1"):
            _check_amplitude(name, getattr(self, name))
        _check_lossless("r", self.r, "t", self.t)
        _check_lossless("r0", self.r0, "t0", self.t0)
        _check_lossless("r1", self.r1, "t1", self.t1)
        for name in ("eta0", "eta1", "nu0", "nu1"):
            _check_unit_interval(name, getattr(self, name))

    @classmethod
    def ideal(cls) -> "HybridParams":
        return cls()

    @classmethod
    def universal(cls) -> "HybridParams":
        """Filter plate removed: the device copies every state equally well."""
        return cls(eta0=1.0, eta1=1.0)


@dataclass(frozen=True)
class FiberParams:
    """All-fiber cloner: two variable-ratio couplers on dual-rail qubits.

    ``R_vrc0``/``R_vrc1`` are the intensity coupling ratios of the couplers
    joining the rail-r0 and rail-r1 fiber pairs (``R_vrc1`` defaults to the
    complementary ratio).  ``analysis_phases`` optionally fixes the detection
    block phase modulators; ``None`` means each block projects onto the input
    state.  ``detection_ratio_1``/``_2`` are the splitting ratios of the
    detection-block couplers (0.5 = balanced).
    """

    R_vrc0: float = R_OPTIMAL
    R_vrc1: float | None = None
    analysis_phases: tuple[float, float] | None = None
    detection_ratio_1: float = 0.5
    detection_ratio_2: float = 0.5

    def __post_init__(self):
        _check_unit_interval("R_vrc0", self.R_vrc0)
        if self.R_vrc1 is not None:
            _check_unit_interval("R_vrc1", self.R_vrc1)
        if self.analysis_phases is not None:
            phases = tuple(float(p) for p in self.analysis_phases)
            if len(phases) != 2 or not all(math.isfinite(p) for p in phases):
                raise ValueError("analysis_phases must be two finite angles")
            object.__setattr__(self, "analysis_phases", phases)
        _check_unit_interval("detection_ratio_1", self.detection_ratio_1)
        _check_unit_interval("detection_ratio_2", self.detection_ratio_2)

    @classmethod
    def ideal(cls) -> "FiberParams":
        return cls(R_vrc0=R_OPTIMAL)

    def rail_amplitudes(self):
        rv1 = (1.0 - self.R_vrc0) if self.R_vrc1 is None else self.R_vrc1
        r0 = math.sqrt(self.R_vrc0)
        t0 = math.sqrt(1.0 - self.R_vrc0)
        r1 = math.sqrt(rv1)
        t1 = -math.sqrt(1.0 - rv1)
        return r0, t0, r1, t1


ClonerParams = Union[SpecialBSParams, MachZehnderParams, HybridParams, FiberParams]


@dataclass(frozen=True)
class CloneReport:
    """Fidelities, success probability and clone states for one evaluation.

    ``joint`` is the post-selected two-clone state; ``rho1``/``rho2`` are its
    marginals.  A zero-success evaluation leaves all state fields ``None``.
    """

    input: Qubit
    P_succ: float
    F1: float | None
    F2: float | None
    rho1: DensityMatrix | None
    rho2: DensityMatrix | None
    joint: TwoQubitState | None

    @property
    def is_empty(self) -> bool:
        return self.joint is None

    @classmethod
    def empty(cls, input: Qubit) -> "CloneReport":
        return cls(input=input, P_succ=0.0, F1=None, F2=None,
                   rho1=None, rho2=None, joint=None)

    @classmethod
    def from_joint(cls, joint, p_succ: float, input: Qubit) -> "CloneReport":
        if joint is None or p_succ <= 0.0:
            return cls.empty(input)
        rho1 = joint.reduced(Port.OUT1)
        rho2 = joint.reduced(Port.OUT2)
        return cls(
            input=input,
            P_succ=float(p_succ),
            F1=fidelity(rho1, input),
            F2=fidelity(rho2, input),
            rho1=rho1,
            rho2=rho2,
            joint=joint,
        )


# ---------------------------------------------------------------------------
# ideal phase-covariant map
# ---------------------------------------------------------------------------

def ideal_pc_map(input: Qubit, hemisphere: str = "north") -> np.ndarray:
    """Optimal symmetric phase-covariant map as a pure two-qubit vector.

    North: |0> -> |00>,  |1> -> (|10> + |01>)/sqrt(2); the southern variant
    swaps the roles of |0> and |1>.  The output is normalized and indexed
    |q1 q2> -> 2*q1 + q2.
    """
    alpha, beta = input.amplitudes()
    s = 1.0 / math.sqrt(2.0)
    if hemisphere == "north":
        vec = np.array([alpha, beta * s, beta * s, 0.0], dtype=complex)
    elif hemisphere == "south":
        vec = np.array([0.0, alpha * s, alpha * s, beta], dtype=complex)
    else:
        raise ValueError(f"hemisphere must be 'north' or 'south', got {hemisphere!r}")
    return vec


def ideal_clone_report(input: Qubit, hemisphere: str = "north") -> CloneReport:
    """CloneReport for the abstract (deterministic) optimal map."""
    joint = TwoQubitState.from_pure(ideal_pc_map(input, hemisphere))
    return CloneReport.from_joint(joint, 1.0, input)


# ---------------------------------------------------------------------------
# closed-form conditional amplitudes
# ---------------------------------------------------------------------------

def _bs_family_triple(params, alpha, beta):
    """Unnormalized (a00, a10, a01) for the splitter-type architectures.

    ``alpha``/``beta`` are input amplitudes, scalars or arrays of equal shape.
    """
    if isinstance(params, SpecialBSParams):
        r0, t0, r1, t1 = params.rail_amplitudes()
        loss0, loss1 = params.comp_loss_r0, params.comp_loss_r1
        rel_phase = 0.0
    elif isinstance(params, MachZehnderParams):
        r0, t0, r1, t1 = params.rail_amplitudes()
        loss0 = loss1 = 1.0
        rel_phase = params.relative_phase
    elif isinstance(params, FiberParams):
        r0, t0, r1, t1 = params.rail_amplitudes()
        loss0 = loss1 = 1.0
        rel_phase = 0.0
    else:
        raise TypeError(f"not a splitter-type parameter set: {type(params).__name__}")
    phase = np.exp(1j * rel_phase)
    a00 = alpha * (r0 * r0 - t0 * t0) * loss0
    a10 = beta * (r0 * r1) * loss1 * phase
    a01 = -beta * (t0 * t1) * loss0 * phase
    return a00, a10, a01


def _hybrid_triple(params: HybridParams, alpha, beta):
    p = params
    a00 = alpha * 2.0 * p.r * p.t * p.eta0**2 * p.t0 * p.nu0 * p.r0
    a10 = beta * p.r * p.t * p.eta0 * p.eta1 * p.t1 * p.nu1 * p.r0
    a01 = beta * p.r * p.t * p.eta0 * p.eta1 * p.t0 * p.nu0 * p.r1
    return a00, a10, a01


def _amplitude_triple(params: ClonerParams, alpha, beta):
    if isinstance(params, HybridParams):
        return _hybrid_triple(params, alpha, beta)
    return _bs_family_triple(params, alpha, beta)


def conditional_triple(params: ClonerParams, input: Qubit):
    """Closed-form unnormalized amplitudes on (|00>, |10>, |01>)."""
    return _amplitude_triple(params, *input.amplitudes())


def _report_from_triple(a00, a10, a01, input: Qubit) -> CloneReport:
    vec = np.array([a00, a01, a10, 0.0], dtype=complex)
    p = float(np.vdot(vec, vec).real)
    if p <= 0.0:
        return CloneReport.empty(input)
    return CloneReport.from_joint(TwoQubitState.from_pure(vec), p, input)


class CloneBatch(NamedTuple):
    """F1, F2 and P_succ for a sequence of inputs, one array entry per input.

    Empty rows (P_succ <= 0) carry P_succ 0.0 and NaN fidelities.
    """

    P_succ: np.ndarray
    F1: np.ndarray
    F2: np.ndarray

    def rows(self) -> list[tuple]:
        """(F1, F2, P_succ) per input as floats; empty rows give F1 = F2 = None."""
        return [
            (None, None, 0.0) if p <= 0.0 else (f1, f2, p)
            for f1, f2, p in zip(self.F1.tolist(), self.F2.tolist(),
                                 self.P_succ.tolist())
        ]


def run_model_batch(params: ClonerParams, inputs) -> CloneBatch:
    """Closed-form evaluation of many inputs at once.

    Gives the numbers of ``run_model(params, q)`` for every ``q`` in
    ``inputs`` (up to rounding), with the joint states and marginals built
    as stacked arrays and validated once per batch.
    """
    half = np.array([q.theta for q in inputs], dtype=float) / 2.0
    phi = np.array([q.phi for q in inputs], dtype=float)
    psi = np.stack([np.cos(half).astype(complex), np.sin(half) * np.exp(1j * phi)],
                   axis=-1)
    a00, a10, a01 = _amplitude_triple(params, psi[:, 0], psi[:, 1])
    n = len(psi)
    vec = np.zeros((n, 4), dtype=complex)
    vec[:, 0], vec[:, 1], vec[:, 2] = a00, a01, a10
    p_succ = np.einsum("ni,ni->n", vec.conj(), vec).real
    keep = p_succ > 0.0
    v = vec[keep] / np.sqrt(p_succ[keep])[:, None]
    joint = v[:, :, None] * v.conj()[:, None, :]
    check_density(joint, "two-qubit state", imag_trace=False)
    r = joint.reshape(len(v), 2, 2, 2, 2)
    marginals = np.stack([np.einsum("nijkj->nik", r), np.einsum("nijil->njl", r)])
    check_density(marginals, "density matrix")
    psi = psi[keep]
    fidelities = np.full((2, n), np.nan)
    fidelities[:, keep] = np.einsum("ni,mnij,nj->mn", psi.conj(), marginals, psi).real
    return CloneBatch(P_succ=np.where(keep, p_succ, 0.0),
                      F1=fidelities[0], F2=fidelities[1])


# ---------------------------------------------------------------------------
# circuit evaluation
# ---------------------------------------------------------------------------

def _initial_state(basis, input: Qubit, ancilla_overlap: float = 1.0) -> StateVector:
    """Signal photon in port OUT1, ancilla photon on rail r0 of port OUT2.

    ``ancilla_overlap`` is the temporal-mode amplitude overlap M; the ancilla
    occupies M * principal + sqrt(1 - M^2) * orthogonal.
    """
    alpha, beta = input.amplitudes()
    m = float(ancilla_overlap)
    m_orth = math.sqrt(max(0.0, 1.0 - m * m))
    sig0 = Mode(Port.OUT1, Rail.R0, Temporal.PRINCIPAL)
    sig1 = Mode(Port.OUT1, Rail.R1, Temporal.PRINCIPAL)
    anc_p = Mode(Port.OUT2, Rail.R0, Temporal.PRINCIPAL)
    anc_o = Mode(Port.OUT2, Rail.R0, Temporal.ORTHOGONAL)
    terms = []
    for amp_sig, sig in ((alpha, sig0), (beta, sig1)):
        if amp_sig == 0:
            continue
        terms.append((amp_sig * m, {sig: 1, anc_p: 1}))
        if m_orth > 0.0 and anc_o in basis._mode_index:
            terms.append((amp_sig * m_orth, {sig: 1, anc_o: 1}))
    return StateVector.from_terms(basis, terms)


def _temporal_bins(basis):
    bins = {m.temporal for m in basis.modes}
    return sorted(bins)


def _bs_family_circuit(params, input: Qubit, ancilla_overlap: float = 1.0,
                       arm_phase_error: float = 0.0):
    if isinstance(params, SpecialBSParams):
        r0, t0, r1, t1 = params.rail_amplitudes()
        loss0, loss1 = params.comp_loss_r0, params.comp_loss_r1
        phase0 = phase1 = 0.0
    elif isinstance(params, MachZehnderParams):
        r0, t0, r1, t1 = params.rail_amplitudes(arm_phase_error)
        loss0 = loss1 = 1.0
        phase0, phase1 = params.phase_offset_r0, params.phase_offset_r1
    elif isinstance(params, FiberParams):
        r0, t0, r1, t1 = params.rail_amplitudes()
        loss0 = loss1 = 1.0
        phase0, phase1 = 0.0, arm_phase_error
    else:
        raise TypeError(f"not a splitter-type parameter set: {type(params).__name__}")
    basis = two_photon_basis(8 if ancilla_overlap < 1.0 else 4)
    state = _initial_state(basis, input, ancilla_overlap)
    for tau in _temporal_bins(basis):
        state = apply_two_mode_coupler(
            state, Mode(Port.OUT1, Rail.R0, tau), Mode(Port.OUT2, Rail.R0, tau), r0, t0
        )
        state = apply_two_mode_coupler(
            state, Mode(Port.OUT1, Rail.R1, tau), Mode(Port.OUT2, Rail.R1, tau), r1, t1
        )
    for tau in _temporal_bins(basis):
        if loss0 != 1.0:
            state = apply_attenuator(state, Mode(Port.OUT1, Rail.R0, tau), loss0)
        if loss1 != 1.0:
            state = apply_attenuator(state, Mode(Port.OUT1, Rail.R1, tau), loss1)
    if phase0 != 0.0:
        state = apply_rail_phase(state, Rail.R0, phase0)
    if phase1 != 0.0:
        state = apply_rail_phase(state, Rail.R1, phase1)
    return postselect_coincidence(state)


def _hybrid_circuit(params: HybridParams, input: Qubit, ancilla_overlap: float = 1.0):
    basis = two_photon_basis(8 if ancilla_overlap < 1.0 else 4)
    state = _initial_state(basis, input, ancilla_overlap)
    bins = _temporal_bins(basis)
    # BS1: bunch signal and ancilla; keep the pair that leaves through port 1
    for tau in bins:
        for rail in Rail:
            state = apply_two_mode_coupler(
                state,
                Mode(Port.OUT1, rail, tau),
                Mode(Port.OUT2, rail, tau),
                params.r,
                params.t,
            )
    for tau in bins:
        for rail in Rail:
            state = apply_attenuator(state, Mode(Port.OUT2, rail, tau), 0.0)
    # GP_eta filter on the bunched pair
    for tau in bins:
        state = apply_attenuator(state, Mode(Port.OUT1, Rail.R0, tau), params.eta0)
        state = apply_attenuator(state, Mode(Port.OUT1, Rail.R1, tau), params.eta1)
    # BS2 separates the photons; the transmitted path is output port 1
    for tau in bins:
        state = apply_two_mode_coupler(
            state,
            Mode(Port.OUT1, Rail.R0, tau),
            Mode(Port.OUT2, Rail.R0, tau),
            params.t0,
            params.r0,
        )
        state = apply_two_mode_coupler(
            state,
            Mode(Port.OUT1, Rail.R1, tau),
            Mode(Port.OUT2, Rail.R1, tau),
            params.t1,
            params.r1,
        )
    # GP_nu compensation plate on output port 1
    for tau in bins:
        state = apply_attenuator(state, Mode(Port.OUT1, Rail.R0, tau), params.nu0)
        state = apply_attenuator(state, Mode(Port.OUT1, Rail.R1, tau), params.nu1)
    return postselect_coincidence(state)


def circuit_joint_state(params: ClonerParams, input: Qubit,
                        ancilla_overlap: float = 1.0):
    """Amplitude-level Fock evaluation; returns (TwoQubitState | None, prob)."""
    if isinstance(params, HybridParams):
        return _hybrid_circuit(params, input, ancilla_overlap)
    return _bs_family_circuit(params, input, ancilla_overlap)


# ---------------------------------------------------------------------------
# architecture runners
# ---------------------------------------------------------------------------

def _run(params: ClonerParams, input: Qubit, via: str) -> CloneReport:
    if via == "closed_form":
        return _report_from_triple(*conditional_triple(params, input), input)
    if via == "circuit":
        joint, p = circuit_joint_state(params, input)
        return CloneReport.from_joint(joint, p, input)
    raise ValueError(f"via must be 'closed_form' or 'circuit', got {via!r}")


def run_special_bs(params: SpecialBSParams, input: Qubit,
                   via: str = "closed_form") -> CloneReport:
    """Clone on the special unbalanced beam splitter."""
    if not isinstance(params, SpecialBSParams):
        raise TypeError("run_special_bs expects SpecialBSParams")
    return _run(params, input, via)


def run_mach_zehnder(params: MachZehnderParams, input: Qubit,
                     via: str = "closed_form") -> CloneReport:
    """Clone on the interferometric emulation of the unbalanced splitter."""
    if not isinstance(params, MachZehnderParams):
        raise TypeError("run_mach_zehnder expects MachZehnderParams")
    return _run(params, input, via)


def run_hybrid(params: HybridParams, input: Qubit,
               via: str = "closed_form") -> CloneReport:
    """Clone by bunching plus state filtering."""
    if not isinstance(params, HybridParams):
        raise TypeError("run_hybrid expects HybridParams")
    return _run(params, input, via)


def run_fiber(params: FiberParams, input: Qubit,
              via: str = "closed_form") -> CloneReport:
    """Clone on the all-fiber variable-ratio-coupler pair."""
    if not isinstance(params, FiberParams):
        raise TypeError("run_fiber expects FiberParams")
    return _run(params, input, via)


def run_model(params: ClonerParams, input: Qubit,
              via: str = "closed_form") -> CloneReport:
    """Dispatch to the architecture matching the parameter type."""
    if isinstance(params, SpecialBSParams):
        return run_special_bs(params, input, via)
    if isinstance(params, MachZehnderParams):
        return run_mach_zehnder(params, input, via)
    if isinstance(params, HybridParams):
        return run_hybrid(params, input, via)
    if isinstance(params, FiberParams):
        return run_fiber(params, input, via)
    raise TypeError(f"unknown cloner parameter type: {type(params).__name__}")


def analyzer_projection(report: CloneReport, which_port: Port,
                        analysis: Qubit) -> float:
    """Probability that the given clone passes a projection onto ``analysis``."""
    if report.is_empty:
        raise ValueError("cannot project an empty report")
    rho = report.rho1 if which_port == Port.OUT1 else report.rho2
    return fidelity(rho, analysis)
