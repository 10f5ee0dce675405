"""The optimal symmetric phase-covariant cloner as a device-free oracle.

``ideal_pc_map`` is the paper's optimal map written down directly, and
``ideal_clone_report`` its report, with F1 and F2 taken by the library's
own fidelity formula.  Every device at its design setting must post-select
this state (``test_ideal_devices_post_select_the_ideal_map``).
``pure_state`` is the checked two-qubit state of a pure vector.
"""

import math

import numpy as np

from pcclone.cloners import CloneReport
from pcclone.fock import Qubit, TwoQubitState, _check_single


def pure_state(vector) -> TwoQubitState:
    """The two-qubit state |v><v| / <v|v>, through the checking constructor."""
    v = np.asarray(vector, dtype=complex)
    v = v / math.sqrt(np.vdot(v, v).real)
    return TwoQubitState(np.outer(v, v.conj()))


def ideal_pc_map(input: Qubit, hemisphere: str = "north") -> np.ndarray:
    """Optimal symmetric phase-covariant map as a pure two-qubit vector.

    North: |0> -> |00>,  |1> -> (|10> + |01>)/sqrt(2); the southern variant
    swaps the roles of |0> and |1>.  The output is normalized and indexed
    |q1 q2> -> 2*q1 + q2.
    """
    _check_single(input)
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
    joint = pure_state(ideal_pc_map(input, hemisphere))
    return CloneReport.from_joint(joint, 1.0, input)
