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
sweep), which the closed-form kernel evaluates in one call.  The checks of
every value class and document (see :class:`_Checked`), of the JSON readers
and of the elements above live here, below the rest: one word per rule.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

#: tolerance used when validating derived objects (density matrices, norms)
CHECK_TOL = 1e-10
#: tolerance used for construction-time preconditions (lossless couplers)
BUILD_TOL = 1e-12
#: every route reports a success probability at or below this as none
MIN_SUCCESS = 1e-200
#: most photon pairs one counting run, and trials one jitter walk, may hold
#: (the samplers count in int64)
MAX_PAIRS = 10**12


class Port(IntEnum):
    OUT1 = 0
    OUT2 = 1


def coupler(a: int, b: int, r: float, t: float) -> np.ndarray:
    """Mix modes ``a`` and ``b`` of one bin with signed real amplitudes (r, t).

    Creation operators transform as  a -> r a + t b,  b -> r b - t a,
    which is unitary exactly when r^2 + t^2 = 1.
    """
    _check_lossless("r", "t", r, t)
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
    t = np.asarray(transmittances)
    _check_unit_interval("amplitude transmittance", t)
    return np.diag(t.astype(float))


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


def _check_real(name, value, batch=True):
    """Raise ValueError unless ``value`` is a real number or, if ``batch``, a
    non-empty array of them (a batch), which the range checks can compare.
    A bool, Python's or numpy's, is not a number here, nor an array of them."""
    if isinstance(value, (int, float, np.integer, np.floating)) and value.__class__ is not bool:
        return
    if not (batch and isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not value.size:
        raise ValueError(f"{name} must hold one or more values, got an empty array")


def _or_none(check):
    """``check``, which also passes None (a field whose None is its default rule)."""
    return lambda name, value: value is None or check(name, value)


def _check_within(name, value, low, high, shown):
    """Raise ValueError unless ``value`` lies in [``low``, ``high``], written [``shown``]."""
    _check_real(name, value)
    _require((low <= value) & (value <= high), value, f"{name} must lie in [{shown}]")


_check_unit_interval = functools.partial(_check_within, low=0.0, high=1.0, shown="0, 1")
_check_amplitude = functools.partial(_check_within, low=-1.0, high=1.0, shown="-1, 1")
_check_polar = functools.partial(_check_within, low=0.0, high=math.pi, shown="0, pi")


def _check_sign(name, value):
    _check_real(name, value)
    _require((value == 1) | (value == -1), value, f"{name} must be +1 or -1")


def _check_lossless(name_r, name_t, r, t):
    """Raise ValueError unless the amplitudes (r, t) satisfy r^2 + t^2 = 1."""
    _check_real(name_r, r)
    _check_real(name_t, t)
    norm = r * r + t * t
    _require(abs(norm - 1.0) <= BUILD_TOL, norm,
             f"({name_r}, {name_t}) must satisfy r^2 + t^2 = 1")


def _check_finite(name, value, low=None, batch=True):
    """Raise ValueError unless ``value`` is finite, and at least ``low`` if given."""
    _check_real(name, value, batch)
    # a Python int may be too large for a float, and for numpy
    big = sys.float_info.max
    ok = np.isfinite(value) if isinstance(value, np.ndarray) else -big <= value <= big
    _require(ok, value, f"{name} must be finite")
    if low is not None:
        _require(value >= low, value, f"{name} must be >= {low}")


def _check_pair(name, value):
    """Raise ValueError unless ``value`` is a tuple of two finite numbers."""
    if not (isinstance(value, tuple) and len(value) == 2):
        raise ValueError(f"{name} must be a tuple of two finite numbers, got {value!r}")
    for item in value:
        _check_finite(name, item, batch=False)


def _check_integer(name, value, low=None, high=None):
    """Raise ValueError unless ``value`` is an integer, not a bool, within the bounds given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None:
        _require(low <= value <= high, value, f"{name} must lie in [{low}, {high}]")
    elif low is not None:
        _require(value >= low, value, f"{name} must be >= {low}")


_check_non_negative = functools.partial(_check_integer, low=0)
#: a count of photon pairs or of jitter trials
_check_pairs = functools.partial(_check_integer, low=1, high=MAX_PAIRS)


def _instance_of(cls):
    """The check that a field holds an instance of the value class ``cls``."""
    def check(name, value):
        if not isinstance(value, cls):
            raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return check


def _check_string(name, value, empty=True):
    """Raise ValueError unless ``value`` is a string, and not empty unless ``empty``."""
    if not (isinstance(value, str) and (empty or value)):
        raise ValueError(f"{name} must be a {'' if empty else 'non-empty '}string, got {value!r}")


def _check_exactly_one(name, other, value, other_value):
    """Raise ValueError unless exactly one of two fields is set (is not None)."""
    if (value is None) == (other_value is None):
        raise ValueError(f"{name}/{other}: exactly one of {name!r} or {other!r} is required")


def _check_choice(name, value, choices):
    """Raise ValueError unless ``value`` is one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _run_checks(checks, values):
    """Run each ``(check, *fields)`` of ``checks`` in order on the field ``values``,
    as ``check(*fields, *their values)``."""
    for check, name, *others in checks:
        if others:  # a rule over several fields
            check(name, *others, values[name], *[values[other] for other in others])
        else:  # most checks read one field: no list to build
            check(name, values[name])


class _Checked:
    """A frozen dataclass that lists its field checks in one table, ``_checks``:
    ``(check, *fields)`` entries that ``__post_init__`` runs in order, and
    that :meth:`_trusted`, its one unchecked constructor, skips."""

    _checks = ()

    def __post_init__(self):
        _run_checks(self._checks, vars(self))

    @classmethod
    def _trusted(cls, **fields):
        """An instance of ``fields``, unchecked: values that passed their checks."""
        value = object.__new__(cls)
        vars(value).update(fields)
        return value


@dataclass(frozen=True)
class Qubit(_Checked):
    """Pure single-qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in [0, pi], stored without the sign of a zero; phi is stored
    modulo 2 pi.  The fields are two real numbers, or two non-empty arrays
    of one shape that hold a batch of inputs (a sweep), one state per entry;
    each entry follows the scalar rules, and an error names the first bad value.
    """

    theta: float
    phi: float = 0.0

    _checks = ((_check_polar, "theta"), (_check_finite, "phi"))

    def __post_init__(self):
        super().__post_init__()
        theta, phi = np.broadcast_arrays(np.asarray(self.theta, dtype=float),
                                         np.asarray(self.phi, dtype=float))
        # -0.0 + 0.0 is 0.0; the remainder rounds as Python's float % does
        vars(self).update(_qubit_fields(theta + 0.0, np.remainder(phi, 2.0 * math.pi)))

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
    def equatorial(cls, phi) -> "Qubit":
        return cls(math.pi / 2.0, phi)

    def amplitudes(self) -> np.ndarray:
        """(cos(theta/2), e^{i phi} sin(theta/2)) along a last axis of length 2.

        A single state is computed as a batch of one, so that it keeps the
        bits of its row in a batch: numpy's scalar arithmetic can differ
        from its array loops in the sign of a zero.  The array is computed
        once per instance and returned read-only on every call.
        """
        return self._amplitudes

    @functools.cached_property
    def _amplitudes(self) -> np.ndarray:
        half = np.ravel(self.theta) / 2.0
        psi = np.empty((half.size, 2), dtype=complex)
        psi[:, 0] = np.cos(half)
        np.multiply(np.sin(half), np.exp(1j * np.ravel(self.phi)), out=psi[:, 1])
        psi = psi.reshape(np.shape(self.theta) + (2,))
        psi.flags.writeable = False
        return psi

    @functools.cached_property
    def _rows(self):
        """The kernels' (alpha, beta, bra, ket) of the amplitudes, one row per state."""
        psi = self._amplitudes.reshape(-1, 2)
        return psi[:, 0], psi[:, 1], psi.conj()[:, None, :], psi[:, :, None]

    def orthogonal(self) -> "Qubit":
        """The orthogonal state, theta -> pi - theta and phi -> phi +- pi, unchecked:
        a phi of at least pi turns back exactly, one below pi rounds once, onto
        2 pi at most, which the remainder takes to 0."""
        theta, phi = np.asarray(math.pi - self.theta), np.asarray(self.phi)
        turned = np.where(phi < math.pi, phi + math.pi, phi - math.pi)
        return Qubit._trusted(**_qubit_fields(theta, np.remainder(turned, 2.0 * math.pi)))


def _qubit_fields(theta: np.ndarray, phi: np.ndarray) -> dict:
    """The fields of a Qubit held from normal arrays of one shape: two numbers
    for a single state, else the arrays, read-only."""
    if theta.ndim == 0:
        return {"theta": theta.item(), "phi": phi.item()}
    theta.flags.writeable = phi.flags.writeable = False
    return {"theta": theta, "phi": phi}


def _check_single(input: Qubit):
    """Raise ValueError when ``input`` holds a batch of states, not one."""
    if np.ndim(input.theta):
        raise ValueError(f"input must be one state, got a batch of shape "
                         f"{np.shape(input.theta)}")


def check_density(m: np.ndarray, name: str) -> None:
    """Raise ValueError unless every matrix of ``m`` is a density matrix.

    ``m`` is one (d, d) matrix or a stack (..., d, d).  Each must be finite,
    Hermitian, have trace 1 and no eigenvalue below -CHECK_TOL; ``name``
    opens the error message.
    """
    _require(np.isfinite(m), m, f"{name} must be finite")
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > CHECK_TOL:
        raise ValueError(f"{name} is not Hermitian")
    trace = m.trace(axis1=-2, axis2=-1)
    off = np.maximum(np.abs(trace.real - 1.0), np.abs(trace.imag))
    if off.max() > CHECK_TOL:
        raise ValueError(
            f"{name} trace must be 1, got {np.ravel(trace)[np.argmax(off)]}"
        )
    if np.linalg.eigvalsh(m).min() < -CHECK_TOL:
        raise ValueError(f"{name} has a negative eigenvalue")


def _check_state(name, value, dim):
    """Raise ValueError unless ``value`` is one dim x dim density matrix of numbers."""
    m = np.asarray(value)
    if m.dtype.kind not in "iufc" or m.shape != (dim, dim):
        raise ValueError(f"{name} must be a {dim}x{dim} matrix of numbers, "
                         f"got dtype {m.dtype}, shape {m.shape}")
    check_density(m.astype(complex, copy=False), name)


@dataclass(frozen=True, eq=False)
class TwoQubitState(_Checked):
    """Post-selected two-clone state over rail (x) rail.

    Basis order is |q1 q2> with index 2*q1 + q2, where q1 is the rail of the
    OUT1 photon and q2 the rail of the OUT2 photon.  The state may be mixed
    (incoherent over temporal sectors) and is stored as a read-only 4x4
    density matrix.  Two states are equal only when they are one object.
    """

    rho: np.ndarray

    _checks = ((functools.partial(_check_state, dim=4), "rho"),)

    def __post_init__(self):
        rho = np.asarray(self.rho)
        if rho.dtype.kind in "iufc":  # one complex copy: the checks read what the state holds
            vars(self)["rho"] = rho.astype(complex)
            self.rho.flags.writeable = False
        super().__post_init__()

    @classmethod
    def _trusted(cls, rho: np.ndarray) -> "TwoQubitState":
        """A kernel's own complex 4x4 density matrix, held read-only, unchecked."""
        rho.flags.writeable = False
        return super()._trusted(rho=rho)

    def reduced(self, which_port: Port) -> np.ndarray:
        """The clone at ``which_port``: the partial trace, a read-only 2x2 array."""
        try:  # Port is an IntEnum: a bool or a float would pass for a port
            _check_integer("which_port", which_port)
            port = Port(which_port)
        except ValueError:
            raise ValueError(f"which_port must be Port.OUT1 or OUT2, got {which_port!r}") from None
        r = self.rho.reshape(2, 2, 2, 2)
        m = np.einsum("ijkj->ik" if port == Port.OUT1 else "ijil->jl", r)
        m.flags.writeable = False
        return m


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
    """Overlap <psi| rho |psi> between a caller's 2x2 density matrix and the
    target qubit; ``rho`` is checked first."""
    _check_state("rho", rho, 2)
    return _fidelity(np.asarray(rho, dtype=complex), target)


def _fidelity(m: np.ndarray, target: Qubit) -> float:
    """<psi| m |psi> of the one state ``target``; ``m`` is not checked."""
    _check_single(target)
    psi = target.amplitudes()
    return float(np.real(psi.conj() @ m @ psi))
