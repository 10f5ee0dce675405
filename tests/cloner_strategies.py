"""Hypothesis strategies for the parameters of every registered cloner variant.

The conformance suite (``test_conformance.py``, plus the batch properties in
``test_cloners.py`` and ``test_noise.py``) draws each device from ``PARAMS``;
``test_every_variant_has_a_strategy`` fails when a variant registered in
``ClonerParams.variants`` has no entry here.  The ranges are the ones the
route-agreement tests have always sampled.
"""

import math

from hypothesis import strategies as st

from pcclone.cloners import (
    ClonerParams,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
)
from pcclone.fock import Qubit


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
