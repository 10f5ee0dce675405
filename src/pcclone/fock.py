"""Two-photon Fock-state machinery for linear-optical cloning circuits.

The state space is spanned by all placements of exactly two photons over a
small set of optical modes.  A mode is the triple (port, rail, temporal):

* ``port``     -- spatial arm of the device (OUT1 or OUT2); the coincidence
                  condition is one photon per port,
* ``rail``     -- logical qubit rail carried by that arm (V/H polarization
                  in the bulk setups, fiber index in the all-fiber one),
* ``temporal`` -- principal or orthogonal wavepacket bin, used to model
                  partial distinguishability of signal and ancilla photons.

Mode order is lexicographic over (port, rail, temporal), and the two-photon
basis enumerates unordered photon placements (i <= j) in that mode order, so
basis indices are stable across runs.

All operations are pure: they return new ``StateVector`` instances and never
mutate their inputs.  Amplitude arrays are marked read-only on construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

import numpy as np

#: tolerance used when validating derived objects (density matrices, norms)
CHECK_TOL = 1e-10
#: tolerance used for construction-time preconditions (lossless couplers)
BUILD_TOL = 1e-12


class Port(IntEnum):
    OUT1 = 0
    OUT2 = 1


class Rail(IntEnum):
    R0 = 0
    R1 = 1


class Temporal(IntEnum):
    PRINCIPAL = 0
    ORTHOGONAL = 1


class Mode(NamedTuple):
    port: Port
    rail: Rail
    temporal: Temporal


MODES_8 = tuple(Mode(p, r, t) for p in Port for r in Rail for t in Temporal)
MODES_4 = tuple(m for m in MODES_8 if m.temporal == Temporal.PRINCIPAL)
MODES_2 = tuple(m for m in MODES_4 if m.rail == Rail.R0)

_MODE_SETS = {2: MODES_2, 4: MODES_4, 8: MODES_8}


def _occupation_tuples(photon_count: int, mode_count: int):
    placements = []
    states = []
    for placement in itertools.combinations_with_replacement(
        range(mode_count), photon_count
    ):
        occ = [0] * mode_count
        for i in placement:
            occ[i] += 1
        placements.append(placement)
        states.append(tuple(occ))
    return tuple(states), tuple(placements)


class BasisSet:
    """Canonical two-photon occupation basis over a fixed tuple of modes."""

    def __init__(self, modes: Iterable[Mode], photon_count: int = 2):
        self.modes = tuple(modes)
        self.photon_count = int(photon_count)
        self.states, self.placements = _occupation_tuples(
            self.photon_count, len(self.modes)
        )
        self._index = {occ: k for k, occ in enumerate(self.states)}
        self._mode_index = {m: k for k, m in enumerate(self.modes)}
        self.occupations = np.array(self.states, dtype=np.int64)
        port_of = np.array([m.port for m in self.modes])
        self.port_counts = np.stack(
            [self.occupations[:, port_of == p].sum(axis=1) for p in Port], axis=1
        )

    def __len__(self) -> int:
        return len(self.states)

    def index(self, occupation) -> int:
        return self._index[tuple(occupation)]

    def mode_index(self, mode: Mode) -> int:
        return self._mode_index[mode]


@lru_cache(maxsize=None)
def two_photon_basis(mode_count: int) -> BasisSet:
    """Shared basis over the canonical 2-, 4- or 8-mode sets."""
    if mode_count not in _MODE_SETS:
        raise ValueError(
            f"mode_count must be one of {sorted(_MODE_SETS)}, got {mode_count}"
        )
    return BasisSet(_MODE_SETS[mode_count])


class StateVector:
    """Complex amplitudes over a :class:`BasisSet`.

    Instances are immutable; every operation returns a new vector.
    """

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: BasisSet, amplitudes):
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (len(basis),):
            raise ValueError(
                f"amplitude vector must have length {len(basis)}, got {amps.shape}"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @classmethod
    def zero(cls, basis: BasisSet) -> "StateVector":
        return cls(basis, np.zeros(len(basis), dtype=complex))

    @classmethod
    def from_terms(cls, basis: BasisSet, terms) -> "StateVector":
        """Build from (amplitude, {mode: occupation}) pairs."""
        amps = np.zeros(len(basis), dtype=complex)
        for amplitude, occupation in terms:
            occ = [0] * len(basis.modes)
            for mode, count in occupation.items():
                occ[basis.mode_index(mode)] = count
            amps[basis.index(tuple(occ))] += amplitude
        return cls(basis, amps)

    def amplitude(self, occupation) -> complex:
        return complex(self.amplitudes[self.basis.index(occupation)])


def apply_two_mode_coupler(
    state: StateVector,
    mode_a: Mode,
    mode_b: Mode,
    reflectance_amplitude: float,
    transmittance_amplitude: float,
) -> StateVector:
    """Mix two modes with signed real amplitudes (r, t).

    Creation operators transform as  a -> r a + t b,  b -> r b - t a,
    which is unitary exactly when r^2 + t^2 = 1.
    """
    r = float(reflectance_amplitude)
    t = float(transmittance_amplitude)
    if abs(r * r + t * t - 1.0) > BUILD_TOL:
        raise ValueError(
            f"lossless coupler requires r^2 + t^2 = 1, got {r * r + t * t!r}"
        )
    if mode_a == mode_b:
        raise ValueError("coupler requires two distinct modes")
    basis = state.basis
    ia = basis.mode_index(mode_a)
    ib = basis.mode_index(mode_b)
    out = np.zeros(len(basis), dtype=complex)
    for k, occ in enumerate(basis.states):
        c = state.amplitudes[k]
        if c == 0:
            continue
        na, nb = occ[ia], occ[ib]
        if na == 0 and nb == 0:
            out[k] += c
            continue
        base = c / math.sqrt(math.factorial(na) * math.factorial(nb))
        for p in range(na + 1):
            for q in range(nb + 1):
                coeff = (
                    math.comb(na, p)
                    * r**p
                    * t ** (na - p)
                    * math.comb(nb, q)
                    * r**q
                    * (-t) ** (nb - q)
                )
                if coeff == 0.0:
                    continue
                new_a = p + (nb - q)
                new_b = (na - p) + q
                new_occ = list(occ)
                new_occ[ia] = new_a
                new_occ[ib] = new_b
                j = basis.index(tuple(new_occ))
                out[j] += base * coeff * math.sqrt(
                    math.factorial(new_a) * math.factorial(new_b)
                )
    return StateVector(basis, out)


def apply_attenuator(
    state: StateVector, mode: Mode, amplitude_transmittance: float
) -> StateVector:
    """Scale each term by transmittance^occupation of the given mode.

    Keeping only the no-photon-lost component is valid under coincidence
    post-selection with no dark counts; the result is sub-normalized.
    """
    t = float(amplitude_transmittance)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"amplitude transmittance must be in [0, 1], got {t}")
    occ = state.basis.occupations[:, state.basis.mode_index(mode)]
    return StateVector(state.basis, state.amplitudes * t**occ)


def apply_rail_phase(state: StateVector, rail: Rail, phase: float) -> StateVector:
    """Multiply each term by exp(i * phase) per photon occupying ``rail``."""
    rail_of = np.array([m.rail for m in state.basis.modes])
    counts = state.basis.occupations[:, rail_of == rail].sum(axis=1)
    return StateVector(state.basis, state.amplitudes * np.exp(1j * phase * counts))


@dataclass(frozen=True)
class Qubit:
    """Pure single-qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in [0, pi]; phi is stored modulo 2 pi.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    @classmethod
    def equatorial(cls, phi: float) -> "Qubit":
        return cls(math.pi / 2.0, phi)

    def amplitudes(self) -> np.ndarray:
        return np.array(
            [
                math.cos(self.theta / 2.0),
                math.sin(self.theta / 2.0) * np.exp(1j * self.phi),
            ],
            dtype=complex,
        )

    def orthogonal(self) -> "Qubit":
        return Qubit(math.pi - self.theta, self.phi + math.pi)


def check_density(m: np.ndarray, name: str, imag_trace: bool = True) -> None:
    """Raise ValueError unless every matrix of ``m`` is a density matrix.

    ``m`` is one (d, d) matrix or a stack (..., d, d).  Each must be
    Hermitian, have trace 1 (real part only when ``imag_trace`` is False)
    and no eigenvalue below -CHECK_TOL; ``name`` opens the error message.
    """
    if m.size == 0:
        return
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > CHECK_TOL:
        raise ValueError(f"{name} is not Hermitian")
    trace = m.trace(axis1=-2, axis2=-1)
    off = np.abs(trace.real - 1.0)
    if imag_trace:
        off = np.maximum(off, np.abs(trace.imag))
    if off.max() > CHECK_TOL:
        raise ValueError(
            f"{name} trace must be 1, got {np.ravel(trace)[np.argmax(off)]}"
        )
    if np.linalg.eigvalsh(m).min() < -CHECK_TOL:
        raise ValueError(f"{name} has a negative eigenvalue")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated 2x2 density matrix over the rail basis {|0>, |1>}."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {m.shape}")
        check_density(m, "density matrix")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


class TwoQubitState:
    """Post-selected two-clone state over rail (x) rail.

    Basis order is |q1 q2> with index 2*q1 + q2, where q1 is the rail of the
    OUT1 photon and q2 the rail of the OUT2 photon.  The state may be mixed
    (incoherent over temporal sectors) and is stored as a 4x4 density matrix.
    """

    __slots__ = ("rho",)

    def __init__(self, rho):
        m = np.array(rho, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"two-qubit state must be 4x4, got {m.shape}")
        check_density(m, "two-qubit state", imag_trace=False)
        m.flags.writeable = False
        object.__setattr__(self, "rho", m)

    def __setattr__(self, name, value):
        raise AttributeError("TwoQubitState is immutable")

    @classmethod
    def from_pure(cls, vector) -> "TwoQubitState":
        v = np.asarray(vector, dtype=complex)
        n2 = float(np.vdot(v, v).real)
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        v = v / math.sqrt(n2)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def from_sector_vectors(cls, vectors) -> "TwoQubitState":
        """Incoherent mixture of unnormalized pure sector vectors."""
        rho = np.zeros((4, 4), dtype=complex)
        total = 0.0
        for v in vectors:
            v = np.asarray(v, dtype=complex)
            rho += np.outer(v, v.conj())
            total += float(np.vdot(v, v).real)
        if total <= 0.0:
            raise ValueError("sector vectors carry zero total weight")
        return cls(rho / total)

    def reduced(self, which_port: Port) -> DensityMatrix:
        r = self.rho.reshape(2, 2, 2, 2)
        if which_port == Port.OUT1:
            return DensityMatrix(np.einsum("ijkj->ik", r))
        return DensityMatrix(np.einsum("ijil->jl", r))


def postselect_coincidence(state: StateVector):
    """Project onto one photon in each port; temporal sectors mix incoherently.

    Returns ``(two_qubit_state, probability)``.  When the kept component has
    zero norm the state slot is ``None`` and the probability 0.0.
    """
    basis = state.basis
    if basis.photon_count != 2:
        raise ValueError("post-selection requires a two-photon state")
    sectors: dict[tuple, np.ndarray] = {}
    prob = 0.0
    for k, placement in enumerate(basis.placements):
        amp = state.amplitudes[k]
        if amp == 0:
            continue
        if basis.port_counts[k, Port.OUT1] != 1 or basis.port_counts[k, Port.OUT2] != 1:
            continue
        m_first = basis.modes[placement[0]]
        m_second = basis.modes[placement[1]]
        if m_first.port == Port.OUT1:
            m1, m2 = m_first, m_second
        else:
            m1, m2 = m_second, m_first
        key = (m1.temporal, m2.temporal)
        vec = sectors.setdefault(key, np.zeros(4, dtype=complex))
        vec[2 * m1.rail + m2.rail] += amp
        prob += abs(amp) ** 2
    if prob <= 1e-200:
        return None, 0.0
    joint = TwoQubitState.from_sector_vectors(sectors.values())
    return joint, float(prob)


def fidelity(rho, target: Qubit) -> float:
    """Overlap <psi| rho |psi> between a clone state and the target qubit."""
    if isinstance(rho, DensityMatrix):
        m = rho.matrix
    else:
        m = DensityMatrix(np.asarray(rho, dtype=complex)).matrix
    psi = target.amplitudes()
    return float(np.real(psi.conj() @ m @ psi))
