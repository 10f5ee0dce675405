"""Two-photon linear optics as a symmetric amplitude matrix over the modes.

A mode is the triple (temporal, port, rail) with integer index
``4 * temporal + 2 * port + rail``:

* ``temporal`` -- principal (0) or orthogonal (1) wavepacket bin, used to
                  model partial distinguishability of signal and ancilla,
* ``port``     -- spatial arm of the device (OUT1 = 0, OUT2 = 1); the
                  coincidence condition is one photon per port,
* ``rail``     -- logical qubit rail carried by that arm (V/H polarization
                  in the bulk setups, fiber index in the all-fiber one).

A two-photon state is a symmetric matrix T, the state
sum_ij T_ij a_i^+ a_j^+ |0> of norm 2 ||T||_F^2.  An element with
single-photon transfer matrix U (a_j^+ -> sum_i U_ij a_i^+) maps
T -> U T U^T, the two-photon case of the permanent rule.  The elements
below act on the four modes of one temporal bin; ``np.kron(np.eye(bins), U)``
applies one to every bin.

A :class:`Qubit` is one input state, or a batch of them held as arrays (a
sweep), which the closed-form kernel evaluates in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

#: tolerance used when validating derived objects (density matrices, norms)
CHECK_TOL = 1e-10
#: tolerance used for construction-time preconditions (lossless couplers)
BUILD_TOL = 1e-12
#: every route reports a success probability at or below this as none
MIN_SUCCESS = 1e-200


class Port(IntEnum):
    OUT1 = 0
    OUT2 = 1


def coupler(a: int, b: int, r: float, t: float) -> np.ndarray:
    """Mix modes ``a`` and ``b`` of one bin with signed real amplitudes (r, t).

    Creation operators transform as  a -> r a + t b,  b -> r b - t a,
    which is unitary exactly when r^2 + t^2 = 1.
    """
    r = float(r)
    t = float(t)
    if abs(r * r + t * t - 1.0) > BUILD_TOL:
        raise ValueError(
            f"lossless coupler requires r^2 + t^2 = 1, got {r * r + t * t!r}"
        )
    if a == b:
        raise ValueError("coupler requires two distinct modes")
    u = np.eye(4)
    u[[a, b, b, a], [a, b, a, b]] = r, r, t, -t
    return u


def attenuator(transmittances) -> np.ndarray:
    """Diagonal transfer matrix of per-mode amplitude transmittances.

    Keeping only the no-photon-lost component is valid under coincidence
    post-selection with no dark counts; the result is sub-normalized.
    """
    t = np.asarray(transmittances, dtype=float)
    outside = ~((t >= 0.0) & (t <= 1.0))
    if outside.any():
        raise ValueError(
            f"amplitude transmittance must be in [0, 1], got {t[outside][0]}"
        )
    return np.diag(t)


def photon_pair(x, y) -> np.ndarray:
    """Amplitude matrix of one photon in mode vector ``x`` and one in ``y``."""
    t = np.outer(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    return (t + t.T) / 2.0


def _require(ok, value, message):
    """Raise ``ValueError(f"{message}, got {bad}")`` unless ``ok`` holds.

    ``ok`` and ``value`` are scalars, or arrays of one shape when a field
    holds an array (a batch of inputs or of candidates); ``bad`` is then the
    first entry of ``value`` where ``ok`` fails, as a Python number.
    """
    if isinstance(ok, np.ndarray):
        if np.count_nonzero(ok) == ok.size:
            return
        value = np.extract(~ok, value)[0].item()
    elif ok:
        return
    raise ValueError(f"{message}, got {value}")


@dataclass(frozen=True)
class Qubit:
    """Pure single-qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in [0, pi], stored without the sign of a zero; phi is stored
    modulo 2 pi.  The fields are two floats, or two arrays of one shape
    that hold a batch of inputs (a sweep), one state per entry; each entry
    follows the scalar rules, and an error names the first bad value.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        _require((0.0 <= theta) & (theta <= math.pi), self.theta,
                 "theta must lie in [0, pi]")
        _require(np.isfinite(phi), self.phi, "phi must be finite")
        theta, phi = np.broadcast_arrays(theta, phi)
        theta = theta + 0.0  # -0.0 + 0.0 is 0.0
        phi = np.remainder(phi, 2.0 * math.pi)  # rounds as Python's float % does
        if theta.ndim == 0:
            theta, phi = theta.item(), phi.item()
        else:
            theta.flags.writeable = phi.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def __eq__(self, other):
        """One bool: the same shape and every entry equal."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.theta, other.theta)
                and np.array_equal(self.phi, other.phi))

    def __hash__(self):
        if np.ndim(self.theta):
            raise TypeError("a batch of Qubit states (array fields) is unhashable")
        return hash((self.theta, self.phi))

    @classmethod
    def _trusted(cls, theta, phi) -> "Qubit":
        """Hold fields that a Qubit already validated and reduced, unchecked."""
        state = object.__new__(cls)
        state.__dict__.update(theta=theta, phi=phi)
        return state

    @classmethod
    def equatorial(cls, phi) -> "Qubit":
        return cls(math.pi / 2.0, phi)

    def amplitudes(self) -> np.ndarray:
        """(cos(theta/2), e^{i phi} sin(theta/2)) along a last axis of length 2.

        A single state is computed as a batch of one, so that it keeps the
        bits of its row in a batch: numpy's scalar arithmetic can differ
        from its array loops in the sign of a zero.  The array is computed
        once per instance and returned read-only on every call.
        """
        if "_amplitudes" not in self.__dict__:
            half = np.ravel(self.theta) / 2.0
            phase = np.exp(1j * np.ravel(self.phi))
            psi = np.stack([np.cos(half) + 0j, np.sin(half) * phase], axis=-1)
            psi = psi.reshape(np.shape(self.theta) + (2,))
            psi.flags.writeable = False
            self.__dict__["_amplitudes"] = psi
        return self.__dict__["_amplitudes"]

    def orthogonal(self) -> "Qubit":
        return Qubit(math.pi - self.theta, self.phi + math.pi)


def _check_single(input: Qubit):
    """Raise ValueError when ``input`` holds a batch of states, not one."""
    if np.ndim(input.theta):
        raise ValueError(f"input must be one state, got a batch of shape "
                         f"{np.shape(input.theta)}")


def check_density(m: np.ndarray, name: str, imag_trace: bool = True) -> None:
    """Raise ValueError unless every matrix of ``m`` is a density matrix.

    ``m`` is one (d, d) matrix or a stack (..., d, d).  Each must be
    Hermitian, have trace 1 (real part only when ``imag_trace`` is False)
    and no eigenvalue below -CHECK_TOL; ``name`` opens the error message.
    """
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

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "DensityMatrix":
        """Hold a kernel's own complex 2x2 density matrix read-only, unchecked."""
        state = object.__new__(cls)
        m.flags.writeable = False
        object.__setattr__(state, "matrix", m)
        return state


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
    def _trusted(cls, rho: np.ndarray) -> "TwoQubitState":
        """Hold a kernel's own complex 4x4 density matrix read-only, unchecked."""
        state = object.__new__(cls)
        rho.flags.writeable = False
        object.__setattr__(state, "rho", rho)
        return state

    @classmethod
    def from_pure(cls, vector) -> "TwoQubitState":
        v = np.asarray(vector, dtype=complex)
        n2 = float(np.vdot(v, v).real)
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        v = v / math.sqrt(n2)
        return cls(np.outer(v, v.conj()))

    def reduced(self, which_port: Port) -> DensityMatrix:
        r = self.rho.reshape(2, 2, 2, 2)
        if which_port == Port.OUT1:
            return DensityMatrix._trusted(np.einsum("ijkj->ik", r))
        return DensityMatrix._trusted(np.einsum("ijil->jl", r))


def postselect_coincidence(amplitudes):
    """Project onto one photon in each port; temporal sectors mix incoherently.

    ``amplitudes`` is the symmetric matrix of a two-photon state over whole
    temporal bins of four modes.  Returns ``(two_qubit_state, probability)``.
    When the kept component's squared norm is at most ``MIN_SUCCESS`` the
    state slot is ``None`` and the probability 0.0.
    """
    t = np.asarray(amplitudes)
    n = t.shape[0] if t.ndim == 2 else 0
    if t.shape != (n, n) or n == 0 or n % 4:
        raise ValueError(
            f"amplitude matrix must be square over a multiple of 4 modes, got {t.shape}"
        )
    bins = n // 4
    # the |1_k 1_l> amplitude of ports OUT1 x OUT2 is T_kl + T_lk = 2 T_kl;
    # the factor 2 goes on the norm only, so no arithmetic touches a
    # non-finite amplitude before it is rejected
    block = t.reshape(bins, 2, 2, bins, 2, 2)[:, Port.OUT1, :, :, Port.OUT2, :]
    sectors = block.transpose(0, 2, 1, 3).reshape(bins * bins, 4)
    norm = float(np.vdot(sectors, sectors).real)
    if not math.isfinite(norm):
        raise ValueError(f"amplitude matrix must be finite, got norm {norm}")
    prob = 4.0 * norm
    if prob <= MIN_SUCCESS:
        return None, 0.0
    rho = np.einsum("si,sj->ij", sectors, sectors.conj()) / norm
    return TwoQubitState._trusted(rho), prob


def fidelity(rho, target: Qubit) -> float:
    """Overlap <psi| rho |psi> between a clone state and the target qubit."""
    if isinstance(rho, DensityMatrix):
        m = rho.matrix
    else:
        m = DensityMatrix(np.asarray(rho, dtype=complex)).matrix
    _check_single(target)
    psi = target.amplitudes()
    return float(np.real(psi.conj() @ m @ psi))
