"""The four cloner architectures as parameterized conditional maps.

Each architecture interferes a signal photon with a rail-r0 ancilla photon
and keeps runs with one photon per output port.  Each parameter class
describes its device once, in two independent forms:

* ``sector_amplitudes`` -- the conditional output amplitudes written down
  directly, per temporal detection sector.  :func:`run_model_batch`, the one
  closed-form kernel, evaluates them at any ancilla overlap for a batch of
  inputs held as one :class:`Qubit` of arrays: fidelities and marginals at
  once, joint states on first read, with unchanged bits.  :func:`run_model`
  (``via="closed_form"``, the default) is its one-row call at the same
  overlap.  Under phase jitter :func:`conditional_sector_vectors` gives
  them per trial.
* ``transfer_matrix`` -- the same device as the 4x4 single-photon transfer
  matrix of one temporal bin, built from the couplers and attenuators of the
  Fock module; :func:`circuit_joint_state` propagates the photon pair
  through it and post-selects (``run_model(..., via="circuit")``).

Both routes must agree to high precision; the tests enforce it.  Their
states are density matrices by construction and skip the check that the
public ``TwoQubitState`` constructor and :func:`fock.fidelity` run on a
caller's matrix.

Sign convention: couplers use signed real (r, t) with a -> r a + t b,
b -> r b - t a.  The relative minus sign required between the rail-r0 and
rail-r1 paths (r0*r1 = -t0*t1) is carried by a signed rail-r1 transmittance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    BUILD_TOL,
    MIN_SUCCESS,
    Port,
    Qubit,
    TwoQubitState,
    _check_single,
    _fidelity,
    _require,
    attenuator,
    coupler,
    photon_pair,
    postselect_coincidence,
)

#: intensity reflectance of the optimal unbalanced splitter, (1 + 1/sqrt(3))/2:
#: the root of 6 R^2 - 6 R + 1 = 0 in (1/2, 1]; the other root is 1 - R_OPTIMAL
R_OPTIMAL = 0.5 * (1.0 + 1.0 / math.sqrt(3.0))
#: equatorial fidelity of the optimal phase-covariant cloner, (1 + 1/sqrt(2))/2
F_PHASE_COVARIANT = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
#: fidelity of the optimal universal cloner
F_UNIVERSAL = 5.0 / 6.0
#: best measure-and-prepare fidelity for equatorial states
F_SEMICLASSICAL = 0.75
#: most rows one closed-form batch may have: a sweep per axis and in all, an
#: optimizer grid in all (~2 kB of memory each)
MAX_ROWS = 10**5
#: most photon pairs one counting run, and trials one jitter walk, may hold
#: (the samplers count in int64)
MAX_PAIRS = 10**12


def _check_real(name, value):
    """Raise ValueError unless ``value`` is a real number or an array of them
    (the optimizer's candidates), which the range checks can compare."""
    if not (isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, np.ndarray) and value.dtype.kind in "biuf"):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_unit_interval(name, value):
    _check_real(name, value)
    _require((0.0 <= value) & (value <= 1.0), value, f"{name} must lie in [0, 1]")


def _check_integer(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_pairs(name, value):
    """Raise ValueError unless ``value`` is an integer in [1, ``MAX_PAIRS``]."""
    _check_integer(name, value)
    if not 1 <= value <= MAX_PAIRS:
        raise ValueError(f"{name} must lie in [1, {MAX_PAIRS}], got {value}")


def _check_amplitude(name, value):
    _check_real(name, value)
    _require((-1.0 <= value) & (value <= 1.0), value, f"{name} must lie in [-1, 1]")


def _check_unit_interval_or_none(name, value):
    if value is not None:
        _check_unit_interval(name, value)


def _check_finite(name, value):
    _check_real(name, value)
    # a Python int is finite, and may be too large for numpy
    _require(isinstance(value, int) or np.isfinite(value), value, f"{name} must be finite")


def _check_sign(name, value):
    if value not in (-1, 1):
        raise ValueError(f"{name} must be +1 or -1, got {value}")


def _check_lossless(name_r, name_t, r, t):
    norm = r * r + t * t
    _require(abs(norm - 1.0) <= BUILD_TOL, norm,
             f"({name_r}, {name_t}) must satisfy r^2 + t^2 = 1")


def _check_phase_pair(name, value):
    if value is not None and not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise ValueError(f"{name} must be two finite angles, got {value!r}")
    for phase in value or ():
        _check_finite(name, phase)


def _run_checks(checks, values):
    """Run each ``(check, *fields)`` of ``checks`` in order on the field ``values``,
    as ``check(*fields, *their values)``."""
    for check, *names in checks:
        check(*names, *[values[name] for name in names])


def _standard_basis(analysis: Qubit):
    """(plus, minus) click vectors of an analyzer set to ``analysis``, per state."""
    return analysis.amplitudes(), analysis.orthogonal().amplitudes()


def _rail_couplings(R0: float, R1: float | None, sign: int):
    """Signed (r0, t0, r1, t1) for intensity reflectances R0 and R1.

    The reflectances may be arrays of candidates.  ``R1`` defaults to the
    complementary ratio 1 - R0; ``sign`` is carried by the rail-r1
    transmittance.
    """
    R1 = (1.0 - R0) if R1 is None else R1
    return _sqrt(R0), _sqrt(1.0 - R0), _sqrt(R1), sign * _sqrt(1.0 - R1)


def _sqrt(x):
    """np.sqrt of an array, math.sqrt of a number: both round correctly, so
    their bits agree, and a number skips numpy's scalar call."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


class ClonerParams:
    """Parameters of one cloner architecture and its description of itself.

    A subclass gives ``sector_amplitudes(alpha, beta, m, m_orth, delta)``,
    the unnormalized (a00, a10, a01) of each temporal detection sector for
    input amplitudes (alpha, beta), ancilla overlap m = M with
    m_orth = sqrt(1 - M^2) and interferometer phase error ``delta``, and
    ``transfer_matrix(delta)``, the same device as the single-photon transfer
    matrix of one temporal bin over the modes 2 * port + rail.
    ``jitter_degree`` is the degree K in ``delta`` of the device's pattern
    probabilities: each is a trigonometric polynomial in ``delta`` with
    harmonics up to cos(K delta) and sin(K delta), and K = 0 means that
    ``delta`` does not reach the device at all.
    ``_checks`` lists the field checks, ``(check, *fields)``, in the order
    ``__post_init__`` runs them.  A numeric field may also hold an array of
    candidates (the optimizer's batches), which the amplitudes broadcast
    over: the optimizer runs only the checks that read a candidate column,
    on every entry, and holds the columns with :meth:`_trusted`.

    A subclass that names a ``variant`` in its class statement enters
    ``variants``, the registry under which the experiment schema reads it.
    """

    variants: dict = {}
    jitter_degree = 0
    _checks = ()

    def __init_subclass__(cls, variant: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if variant is not None:
            ClonerParams.variants[variant] = cls

    def __post_init__(self):
        _run_checks(self._checks, vars(self))

    @classmethod
    def _trusted(cls, values):
        """A model of the field ``values``, unchecked: their checks have passed."""
        model = object.__new__(cls)
        vars(model).update(values)
        return model

    @classmethod
    def ideal(cls):
        """The design setting: every field at its default."""
        return cls()

    def analyzer_bases(self, input: Qubit):
        """Click vectors of both clones' analyzers when no analysis state is set.

        Returns (clone 1, clone 2), each a (plus, minus) pair of vectors
        shaped like ``input.amplitudes()``, or of one shape (2,) when they
        do not depend on the input.  By default each clone is analyzed in
        the basis of the input state.
        """
        basis = _standard_basis(input)
        return basis, basis


class _Splitter(ClonerParams):
    """A signal and an ancilla photon meeting on one splitter per rail.

    Subclasses give ``couplings(delta)``: the signed rail couplings
    (r0, t0, r1, t1), the amplitude transmittances (loss0, loss1) of the
    compensation plates on the r0 and r1 rails of output port 1 and the
    phases (phase0, phase1) each photon picks up on rail r0 and r1, at
    interferometer phase error ``delta`` (a scalar or an array of trials).
    """

    def sector_amplitudes(self, alpha, beta, m, m_orth, delta):
        r0, t0, r1, t1, loss0, loss1, phase0, phase1 = self.couplings(delta)
        turn = phase1 - phase0
        # exp(+-0i) is exactly 1 + 0i: no numpy call for rails in phase
        phase = np.exp(1j * turn) if isinstance(turn, np.ndarray) or turn else 1 + 0j
        a00 = alpha * (r0 * r0 - t0 * t0) * loss0
        a10 = beta * (r0 * r1) * loss1 * phase
        a01 = -beta * (t0 * t1) * loss0 * phase
        sectors = [(m * a00, m * a10, m * a01)]
        if m_orth > 0.0:
            # an orthogonal-bin ancilla does not interfere with the signal, so
            # the r0^2 and t0^2 paths to |00> land in different sectors
            sectors.append((m_orth * alpha * r0**2 * loss0, m_orth * a10, 0.0))
            sectors.append((-m_orth * alpha * t0**2 * loss0, 0.0, m_orth * a01))
        return sectors

    def transfer_matrix(self, delta=0.0):
        """One splitter per rail, then the plates on port 1, then the phases."""
        r0, t0, r1, t1, loss0, loss1, phase0, phase1 = self.couplings(delta)
        phases = np.diag(np.exp(1j * np.array([phase0, phase1, phase0, phase1])))
        return (phases @ attenuator([loss0, loss1, 1.0, 1.0])
                @ coupler(1, 3, r1, t1) @ coupler(0, 2, r0, t0))


@dataclass(frozen=True)
class SpecialBSParams(_Splitter, variant="special_bs"):
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

    _checks = ((_check_unit_interval, "R0"), (_check_unit_interval_or_none, "R1"),
               (_check_sign, "sign_convention"), (_check_unit_interval, "comp_loss_r0"),
               (_check_unit_interval, "comp_loss_r1"))

    def couplings(self, delta=0.0):
        """No stabilized interference path: ``delta`` does not enter."""
        return (*_rail_couplings(self.R0, self.R1, self.sign_convention),
                self.comp_loss_r0, self.comp_loss_r1, 0.0, 0.0)


@dataclass(frozen=True)
class MachZehnderParams(_Splitter, variant="mach_zehnder"):
    """Interferometer emulating the unbalanced splitter.

    ``theta_V``/``theta_H`` are the arm phase differences for the rail-r0 and
    rail-r1 components; the effective splitting is R_j = sin^2(theta_j).  The
    signed amplitudes (sin, cos) carry the relative sign automatically, so the
    symmetric setting is theta_H = theta_V + pi/2.  ``phase_offset_r0``/``_r1``
    model residual uncompensated rail-dependent phase shifts applied before
    post-selection.
    """

    # the couplings are sines and cosines of theta + delta, so the amplitudes
    # have degree 2 in delta and their squared moduli degree 4
    jitter_degree = 4

    theta_V: float
    theta_H: float
    phase_offset_r0: float = 0.0
    phase_offset_r1: float = 0.0

    _checks = tuple((_check_finite, name) for name in
                    ("theta_V", "theta_H", "phase_offset_r0", "phase_offset_r1"))

    @classmethod
    def ideal(cls) -> "MachZehnderParams":
        theta_v = math.asin(math.sqrt(R_OPTIMAL))
        return cls(theta_V=theta_v, theta_H=theta_v + math.pi / 2.0)

    def couplings(self, delta=0.0):
        """A phase error ``delta`` shifts both arm phase differences."""
        tv = self.theta_V + delta
        th = self.theta_H + delta
        return (np.sin(tv), np.cos(tv), np.sin(th), np.cos(th), 1.0, 1.0,
                self.phase_offset_r0, self.phase_offset_r1)


@dataclass(frozen=True)
class HybridParams(ClonerParams, variant="hybrid"):
    """Photon bunching on a balanced splitter followed by state filtering.

    ``r``/``t`` belong to the bunching splitter BS1, ``r0, t0, r1, t1`` to the
    separating splitter BS2 (rail-dependent), ``eta0``/``eta1`` to the filter
    plate ahead of BS2 and ``nu0``/``nu1`` to the compensation plate on output
    port 1.  All glass-plate values are amplitude transmittances.  The device
    has no stabilized interference path, so phase jitter does not reach it.
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

    _checks = (*((_check_amplitude, name) for name in ("r", "t", "r0", "t0", "r1", "t1")),
               (_check_lossless, "r", "t"), (_check_lossless, "r0", "t0"),
               (_check_lossless, "r1", "t1"),
               *((_check_unit_interval, name) for name in ("eta0", "eta1", "nu0", "nu1")))

    @classmethod
    def universal(cls) -> "HybridParams":
        """Filter plate removed: the device copies every state equally well."""
        return cls(eta0=1.0, eta1=1.0)

    def sector_amplitudes(self, alpha, beta, m, m_orth, delta):
        p = self
        a00 = alpha * 2.0 * p.r * p.t * (p.eta0 * p.eta0) * p.t0 * p.nu0 * p.r0
        bunched = beta * p.r * p.t * p.eta0 * p.eta1  # both |1> paths, up to BS2
        a10 = bunched * p.t1 * p.nu1 * p.r0
        a01 = bunched * p.t0 * p.nu0 * p.r1
        sectors = [(m * a00, m * a10, m * a01)]
        if m_orth > 0.0:
            # a bunched pair in different temporal bins leaves BS2 one photon
            # per port without two-photon interference: the ancilla, on rail
            # r0, is reflected into port 2 or transmitted into port 1
            c = m_orth * p.r * p.t * p.eta0
            sectors.append((c * (alpha * p.eta0 * p.t0 * p.nu0 * p.r0),
                            c * (beta * p.eta1 * p.t1 * p.nu1 * p.r0), 0.0))
            sectors.append((c * (alpha * p.eta0 * p.r0 * p.t0 * p.nu0), 0.0,
                            c * (beta * p.eta1 * p.r1 * p.t0 * p.nu0)))
        return sectors

    def transfer_matrix(self, delta=0.0):
        # BS1 bunches signal and ancilla; only the pair leaving port 1 is kept
        bs1 = coupler(0, 2, self.r, self.t) @ coupler(1, 3, self.r, self.t)
        # GP_eta filter on the bunched pair
        eta = attenuator([self.eta0, self.eta1, 0.0, 0.0])
        # BS2 separates the photons; the transmitted path is output port 1
        bs2 = coupler(0, 2, self.t0, self.r0) @ coupler(1, 3, self.t1, self.r1)
        # GP_nu compensation plate on output port 1
        nu = attenuator([self.nu0, self.nu1, 1.0, 1.0])
        return nu @ bs2 @ eta @ bs1


def _ratio_basis(phi, ratio: float):
    """Click basis of a detection block: coupler ratio + phase modulator(s) ``phi``."""
    a = math.sqrt(ratio)
    b = math.sqrt(1.0 - ratio)
    phase = np.exp(1j * phi)
    plus = np.stack([np.full_like(phase, a), b * phase], axis=-1)
    minus = np.stack([np.full_like(phase, b), -a * phase], axis=-1)
    return plus, minus


@dataclass(frozen=True)
class FiberParams(_Splitter, variant="fiber"):
    """All-fiber cloner: two variable-ratio couplers on dual-rail qubits.

    ``R_vrc0``/``R_vrc1`` are the intensity coupling ratios of the couplers
    joining the rail-r0 and rail-r1 fiber pairs (``R_vrc1`` defaults to the
    complementary ratio).  ``analysis_phases`` optionally fixes the detection
    block phase modulators; ``None`` means each block projects onto the input
    state.  ``detection_ratio_1``/``_2`` are the splitting ratios of the
    detection-block couplers (0.5 = balanced).
    """

    # delta is a phase on rail r1 only: the amplitudes are a + b exp(i delta)
    jitter_degree = 1

    R_vrc0: float = R_OPTIMAL
    R_vrc1: float | None = None
    analysis_phases: tuple[float, float] | None = None
    detection_ratio_1: float = 0.5
    detection_ratio_2: float = 0.5

    _checks = ((_check_unit_interval, "R_vrc0"), (_check_unit_interval_or_none, "R_vrc1"),
               (_check_phase_pair, "analysis_phases"),
               (_check_unit_interval, "detection_ratio_1"),
               (_check_unit_interval, "detection_ratio_2"))

    def __post_init__(self):
        super().__post_init__()
        if self.analysis_phases is not None:
            object.__setattr__(self, "analysis_phases",
                               tuple(float(p) for p in self.analysis_phases))

    def couplings(self, delta=0.0):
        """A phase error ``delta`` drifts the phase of rail r1 against r0."""
        return (*_rail_couplings(self.R_vrc0, self.R_vrc1, -1), 1.0, 1.0, 0.0, delta)

    def analyzer_bases(self, input: Qubit):
        """The detection blocks: coupler ratios and phase modulators."""
        phases = self.analysis_phases
        if phases is None:
            phases = (input.phi, input.phi)
        return (
            _ratio_basis(phases[0], self.detection_ratio_1),
            _ratio_basis(phases[1], self.detection_ratio_2),
        )


@dataclass(frozen=True)
class CloneReport:
    """Fidelities, success probability and clone state for one evaluation.

    ``joint`` is the post-selected two-clone state; ``joint.reduced(port)``
    reads one clone.  A zero-success evaluation leaves F1, F2 and ``joint``
    ``None``.
    """

    input: Qubit
    P_succ: float
    F1: float | None
    F2: float | None
    joint: TwoQubitState | None

    @property
    def is_empty(self) -> bool:
        return self.joint is None

    @classmethod
    def empty(cls, input: Qubit) -> "CloneReport":
        return cls(input=input, P_succ=0.0, F1=None, F2=None, joint=None)

    @classmethod
    def from_joint(cls, joint, p_succ: float, input: Qubit) -> "CloneReport":
        """The report of ``joint``, post-selected with probability ``p_succ``."""
        if joint is None or p_succ <= MIN_SUCCESS:
            return cls.empty(input)
        F1, F2 = (_fidelity(joint.reduced(port), input) for port in Port)
        return cls(input=input, P_succ=float(p_succ), F1=F1, F2=F2, joint=joint)


# ---------------------------------------------------------------------------
# closed-form sector kernel
# ---------------------------------------------------------------------------

def _sector_stack(params: ClonerParams, alpha, beta, overlap_M: float, delta):
    """Sector vectors of shape (..., n_sectors, 4) over |00>, |01>, |10>, |11>.

    The leading shape broadcasts the input amplitudes against ``delta`` and
    against any field of ``params`` that holds an array of candidates.
    """
    m_orth = math.sqrt(max(0.0, 1.0 - overlap_M * overlap_M))
    sectors = params.sector_amplitudes(alpha, beta, overlap_M, m_orth, delta)
    shape = np.broadcast(alpha, delta, *(a for sector in sectors for a in sector)).shape
    out = np.zeros(shape + (len(sectors), 4), dtype=complex)
    for s, (a00, a10, a01) in enumerate(sectors):
        out[..., s, 0] = a00
        out[..., s, 1] = a01
        out[..., s, 2] = a10
    return out


def conditional_sector_vectors(
    params: ClonerParams,
    input: Qubit,
    overlap_M: float = 1.0,
    phase_errors=None,
) -> np.ndarray:
    """Unnormalized two-clone sector vectors, one row set per trial.

    Returns an array of shape (n_trials, n_sectors, 4) over the basis
    |00>, |01>, |10>, |11>.  Sectors are the temporal patterns of the two
    detected photons and mix incoherently: one at ``overlap_M`` = 1, three
    below.  ``phase_errors`` feeds per-trial jitter into the architectures
    that respond to it; without it there is one trial.  The input is read as
    the one-element row of :func:`_input_rows`, so that one trial keeps the
    bits of its row in :func:`run_model_batch`.
    """
    _check_single(input)
    _check_unit_interval("overlap M", overlap_M)
    alpha, beta = _input_rows(input)[:2]
    delta = 0.0 if phase_errors is None else np.asarray(phase_errors, float)
    vectors = _sector_stack(params, alpha, beta, overlap_M, delta)
    return vectors.reshape((-1,) + vectors.shape[-2:])


#: [clone, traced rail c, kept rail a] -> the flat sector position 2 q1 + q2
_TRACE_INDEX = np.array([[[0, 2], [1, 3]], [[0, 1], [2, 3]]])


def _joint_states(v: np.ndarray) -> np.ndarray:
    """(n, 4, 4) joint states of normalised sector vectors ``v`` (n, n_sectors, 4)."""
    if v.shape[1] == 1:  # one sector (M = 1): the joint state is a projector
        return v[:, 0, :, None] * v[:, 0, None, :].conj()
    return (v[:, :, :, None] * v.conj()[:, :, None, :]).sum(axis=1)


class CloneBatch:
    """F1, F2 and P_succ, one entry per input, and the joint states on read.

    The kernel builds the three columns; ``joint``, the (n, 4, 4) states, is
    built from its sector vectors when first read, with the bits an eager
    build gives, and kept read-only.  ``report(input, row)`` builds one row's state only.
    Empty rows (P_succ <= ``MIN_SUCCESS``) carry P_succ 0.0, NaN fidelities
    and a zero joint state.
    """

    def __init__(self, P_succ, F1, F2, vectors):
        self.P_succ, self.F1, self.F2, self._vectors = P_succ, F1, F2, vectors
        self._joint = None

    @property
    def joint(self) -> np.ndarray:
        if self._joint is None:
            keep = self.P_succ[:, None, None] > 0.0
            self._joint = np.where(keep, _joint_states(self._vectors), 0.0)
            self._joint.flags.writeable = False
        return self._joint

    def report(self, input: Qubit, row: int = 0) -> CloneReport:
        """Row ``row`` as the report of its input ``input``."""
        if self.P_succ[row] <= 0.0:
            return CloneReport.empty(input)
        joint = TwoQubitState._trusted(_joint_states(self._vectors[row:row + 1])[0])
        return CloneReport(input, *(float(c[row]) for c in (self.P_succ, self.F1, self.F2)),
                           joint)


def _input_rows(inputs: Qubit):
    """(alpha, beta, bra, ket) of ``inputs``, one row per state, kept in the
    instance: an optimizer's batches all read one input."""
    rows = vars(inputs).get("_rows")
    if rows is None:
        psi = inputs.amplitudes().reshape(-1, 2)
        rows = vars(inputs)["_rows"] = (psi[:, 0], psi[:, 1], psi.conj()[:, None, :],
                                         psi[:, :, None])
    return rows


def run_model_batch(params: ClonerParams, inputs: Qubit,
                    overlap_M: float = 1.0) -> CloneBatch:
    """The closed-form kernel: many inputs at ancilla overlap ``overlap_M``.

    ``inputs`` is one :class:`Qubit`, one row per entry of its fields (a
    Qubit of two floats is one row); :func:`run_model` is the one-row call,
    at any overlap.  Fields of ``params`` may hold arrays of candidates,
    which broadcast against the inputs: one input against n candidates
    gives n rows, unless the amplitudes never read that field (a detection
    ratio).  P_succ, the marginals and the fidelities come from the sector
    vectors, by the products and sums of the joint's partial traces in their
    order (the bits are unchanged); the joint states (success-weighted over
    the temporal sectors) are built on first read (:class:`CloneBatch`).
    """
    _check_unit_interval("overlap M", overlap_M)
    alpha, beta, bra, ket = _input_rows(inputs)
    vectors = _sector_stack(params, alpha, beta, overlap_M, 0.0)
    # stacked (1 x k) @ (k x 1) products give np.vdot's bits
    flat = vectors.reshape(len(vectors), -1)
    p_succ = (flat.conj()[:, None, :] @ flat[:, :, None])[:, 0, 0].real
    keep = p_succ > MIN_SUCCESS
    empty = np.count_nonzero(keep) < len(keep)
    # an empty row is divided by 1, not by its vanishing norm, and masked last
    v = vectors / np.sqrt(np.where(keep, p_succ, 1.0) if empty else p_succ)[:, None, None]
    # u[sector, clone, c, a, row]: the joint's products v_i conj(v_j) summed
    # over the sectors, then over the traced rail c, as the partial traces add
    u = v.transpose(1, 2, 0).take(_TRACE_INDEX, axis=1)
    products = u[:, :, :, :, None, :] * u.conj()[:, :, :, None, :, :]
    terms = products[0] if len(products) == 1 else products.sum(axis=0)
    # contiguous (clone, row, 2, 2): other layouts may move numpy's last bits
    marginals = (terms[:, 0] + terms[:, 1]).transpose(0, 3, 1, 2).copy()
    # (psi^dagger rho) psi, in the order of fock.fidelity
    fidelities = ((bra @ marginals) @ ket)[..., 0, 0].real
    if empty:
        p_succ, fidelities = np.where(keep, p_succ, 0.0), np.where(keep, fidelities, np.nan)
    return CloneBatch(p_succ, fidelities[0], fidelities[1], v)


# ---------------------------------------------------------------------------
# circuit evaluation
# ---------------------------------------------------------------------------

def circuit_joint_state(params: ClonerParams, input: Qubit,
                        ancilla_overlap: float = 1.0, arm_phase_error: float = 0.0):
    """Amplitude-level Fock evaluation; returns (TwoQubitState | None, prob).

    The signal photon enters port OUT1 in the principal bin, the ancilla
    rail r0 of port OUT2 as M * principal + sqrt(1 - M^2) * orthogonal with
    M = ``ancilla_overlap``; the device acts on each temporal bin alike.
    ``arm_phase_error`` is the interferometer phase error of one trial; it
    reaches only the devices that respond to jitter.
    """
    _check_single(input)
    _check_unit_interval("overlap M", ancilla_overlap)
    m = float(ancilla_overlap)
    bins = 2 if m < 1.0 else 1
    signal = np.zeros(4 * bins, dtype=complex)
    signal[:2] = input.amplitudes()
    ancilla = np.zeros(4 * bins)
    ancilla[2] = m
    if bins == 2:
        ancilla[6] = math.sqrt(max(0.0, 1.0 - m * m))
    u = params.transfer_matrix(arm_phase_error)
    if bins == 2:
        u = np.kron(np.eye(2), u)
    return postselect_coincidence(u @ photon_pair(signal, ancilla) @ u.T)


# ---------------------------------------------------------------------------
# single-input evaluation
# ---------------------------------------------------------------------------

def run_model(params: ClonerParams, input: Qubit, via: str = "closed_form",
              overlap_M: float = 1.0) -> CloneReport:
    """Clone ``input`` on the architecture that ``params`` describes.

    ``overlap_M`` is the ancilla's temporal-mode overlap with the signal.
    The closed form is the one-row call of :func:`run_model_batch`, whose
    row gives the report's fidelities too; the circuit route is
    :func:`circuit_joint_state`.
    """
    if not isinstance(params, ClonerParams):
        raise TypeError(f"unknown cloner parameter type: {type(params).__name__}")
    _check_single(input)
    if via == "closed_form":
        return run_model_batch(params, input, overlap_M).report(input)
    if via == "circuit":
        return CloneReport.from_joint(*circuit_joint_state(params, input, overlap_M), input)
    raise ValueError(f"via must be 'closed_form' or 'circuit', got {via!r}")
