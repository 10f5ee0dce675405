"""Hypothesis strategies for the parameters of every registered cloner variant.

The conformance suite (``test_conformance.py``, plus the batch properties in
``test_cloners.py`` and ``test_noise.py``) draws each device from ``PARAMS``;
``test_every_variant_has_a_strategy`` fails when a variant registered in
``ClonerParams.variants`` has no entry here.  The ranges are the ones the
route-agreement tests have always sampled.  ``pool_sectors`` is the plain
pooling of sector vectors that the jitter tests hold the library to, and
``stack`` turns a list of single inputs into the one Qubit of arrays that
the batch kernels take.  ``oracle_batch`` is the closed-form kernel as it
was written before it stopped building the joint states eagerly: every
stacked intermediate, partial traces of the (n, 4, 4) joint included.  The
kernel is held to its bits.
"""

import math

import numpy as np
from hypothesis import strategies as st

from pcclone.cloners import (
    ClonerParams,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
)
from pcclone.fock import MIN_SUCCESS, Qubit


def _hybrid(a, a0, a1, eta0, eta1, nu0, nu1):
    return HybridParams(
        r=math.cos(a), t=math.sin(a),
        r0=a0, t0=math.sqrt(1 - a0 * a0), r1=a1, t1=math.sqrt(1 - a1 * a1),
        eta0=eta0, eta1=eta1, nu0=nu0, nu1=nu1,
    )


PLATE = st.floats(0.4, 1.0)
ANGLE = st.floats(0.0, 2 * math.pi)

#: variant name -> strategy for valid parameters of that device
PARAMS = {
    "special_bs": st.builds(
        SpecialBSParams,
        R0=st.floats(0.55, 0.95),
        R1=st.none() | st.floats(0.05, 0.45),
        sign_convention=st.sampled_from([-1, 1]),
        comp_loss_r0=st.floats(0.6, 1.0),
        comp_loss_r1=st.floats(0.6, 1.0),
    ),
    "mach_zehnder": st.builds(
        MachZehnderParams,
        theta_V=st.floats(0.2, 1.4),
        theta_H=st.floats(1.6, 3.0),
        phase_offset_r0=st.floats(-1.2, 1.0),
        phase_offset_r1=st.floats(-1.2, 1.0),
    ),
    "hybrid": st.builds(
        _hybrid, st.floats(0.3, 1.2), st.floats(0.55, 0.8), st.floats(0.55, 0.8),
        PLATE, PLATE, PLATE, PLATE,
    ),
    "fiber": st.builds(
        FiberParams,
        R_vrc0=st.floats(0.55, 0.95),
        R_vrc1=st.none() | st.floats(0.05, 0.45),
        analysis_phases=st.none() | st.tuples(ANGLE, ANGLE),
        detection_ratio_1=st.floats(0.4, 0.6),
        detection_ratio_2=st.floats(0.4, 0.6),
    ),
}

#: the registered variants, and their class names as test ids
VARIANTS = list(ClonerParams.variants)
CLASS_NAMES = [ClonerParams.variants[v].__name__ for v in VARIANTS]

#: an ancilla overlap: exactly 1 (one temporal sector) or below (three)
OVERLAPS = st.one_of(st.just(1.0), st.floats(0.0, 0.999))

#: inputs away from the poles, where every device succeeds with P >~ 1e-3
QUBITS = st.builds(Qubit, st.floats(0.2, 2.9), ANGLE)


def stack(qubits):
    """One Qubit whose entries are the states of ``qubits``, in order.

    Their stored phi lies in [0, 2 pi) unless an input just below 0 rounded
    up onto 2 pi; none of the strategies here draws one.
    """
    return Qubit(np.array([q.theta for q in qubits]), np.array([q.phi for q in qubits]))


def pool_sectors(vectors):
    """(P_succ, joint state) of trial sector vectors (n_trials, n_sectors, 4)."""
    v = vectors.reshape(-1, 4)
    total = np.vdot(v, v).real
    return total / len(vectors), v.T @ v.conj() / total


def oracle_sector_stack(params, alpha, beta, overlap_M, delta):
    """Sector vectors (..., n_sectors, 4), shaped by ``np.broadcast_shapes``."""
    m_orth = math.sqrt(max(0.0, 1.0 - overlap_M * overlap_M))
    sectors = params.sector_amplitudes(alpha, beta, overlap_M, m_orth, delta)
    shape = np.broadcast_shapes(np.shape(alpha), np.shape(delta),
                                *(np.shape(a) for sector in sectors for a in sector))
    out = np.zeros(shape + (len(sectors), 4), dtype=complex)
    for s, (a00, a10, a01) in enumerate(sectors):
        out[..., s, 0] = a00
        out[..., s, 1] = a01
        out[..., s, 2] = a10
    return out


def oracle_batch(params, inputs, overlap_M=1.0):
    """(P_succ, F1, F2, joint) of every row, through the stacked joint states."""
    psi = inputs.amplitudes().reshape(-1, 2)
    vectors = oracle_sector_stack(params, psi[:, 0], psi[:, 1], overlap_M, 0.0)
    n = len(vectors)
    flat = vectors.reshape(n, -1)
    p_succ = (flat.conj()[:, None, :] @ flat[:, :, None])[:, 0, 0].real
    keep = p_succ > MIN_SUCCESS
    v = vectors / np.sqrt(np.where(keep, p_succ, 1.0))[:, None, None]
    if v.shape[1] == 1:
        joint = v[:, 0, :, None] * v[:, 0, None, :].conj()
    else:
        joint = (v[:, :, :, None] * v.conj()[:, :, None, :]).sum(axis=1)
    r = joint.reshape(n, 2, 2, 2, 2)
    marginals = np.stack([r[:, :, 0, :, 0] + r[:, :, 1, :, 1],
                          r[:, 0, :, 0, :] + r[:, 1, :, 1, :]])
    bra = psi.conj()[:, None, :] @ marginals
    fidelities = np.where(keep, (bra @ psi[:, :, None])[..., 0, 0].real, np.nan)
    return (np.where(keep, p_succ, 0.0), fidelities[0], fidelities[1],
            np.where(keep[:, None, None], joint, 0.0))
