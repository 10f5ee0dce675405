"""Conformance suite: every registered cloner variant, at random parameters.

Each device enters ``ClonerParams.variants`` by naming itself in its class
statement.  The properties below then hold for it without further code:
its closed-form sectors agree with its circuit at any ancilla overlap and
phase error, a device without an interferometer ignores the phase error
exactly, the pooled sector moment of one with an interferometer is a
trigonometric polynomial of its declared ``jitter_degree``, and its
configuration round-trips through JSON, and every state the closed-form
kernel builds passes the density-matrix check that the kernel itself skips.
The other batch properties live beside their kernels:
``test_batch_matches_run_model`` in ``test_cloners.py`` and
``test_evaluate_batch_matches_circuit_at_partial_overlap`` in
``test_noise.py``.
"""

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloner_strategies import (
    CLASS_NAMES,
    OVERLAPS,
    PARAMS,
    QUBITS,
    VARIANTS,
    pool_sectors,
    stack,
)
from pcclone import experiment
from pcclone.cli import main
from pcclone.cloners import (
    ClonerParams,
    SpecialBSParams,
    _rail_couplings,
    _Splitter,
    circuit_joint_state,
    conditional_sector_vectors,
    run_model,
    run_model_batch,
)
from pcclone.experiment import ConfigError, parse_experiment, parse_model, run_experiment
from pcclone.fock import Port, Qubit, check_density
from pcclone.noise import _harmonics, _moment_polynomial

ROOT = Path(__file__).resolve().parents[1]


def test_every_variant_has_a_strategy():
    assert set(PARAMS) == set(ClonerParams.variants)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=OVERLAPS, delta=st.floats(-0.6, 0.6), qubit=QUBITS)
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_sector_vectors_match_circuit(variant, data, m, delta, qubit):
    params = data.draw(PARAMS[variant])
    joint, prob = circuit_joint_state(params, qubit, m, arm_phase_error=delta)
    p_succ, rho = pool_sectors(conditional_sector_vectors(params, qubit, m, [delta]))
    assert abs(prob - p_succ) < 1e-12
    assert np.max(np.abs(joint.rho - rho)) < 1e-12
    # the single-point closed form (M = 1, no phase error) against the circuit
    closed = run_model(params, qubit)
    joint, prob = circuit_joint_state(params, qubit)
    assert abs(prob - closed.P_succ) < 1e-12
    assert np.max(np.abs(joint.rho - closed.joint.rho)) < 1e-12


#: a whole Bloch-sphere sweep, poles included
SWEEP = [Qubit(theta, phi) for theta in np.linspace(0.0, math.pi, 9)
         for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
SWEEP_BATCH = stack(SWEEP)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("m", [1.0, 0.9, 0.5, 0.0])
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_kernel_states_are_density_matrices(variant, m, data):
    # the kernel builds its states without checking them; this is the check
    params = data.draw(PARAMS[variant])
    batch = run_model_batch(params, SWEEP_BATCH, m)
    kept = batch.P_succ > 0.0
    assert kept.any()
    check_density(batch.joint[kept], "two-qubit state", imag_trace=False)
    assert not batch.joint[~kept].any()
    reports = [run_model(params, q, overlap_M=m) for q in SWEEP]
    marginals = [rho for r in reports if not r.is_empty
                 for rho in (r.joint.reduced(port) for port in Port)]
    check_density(np.array(marginals), "density matrix")


STATIC = [v for v in VARIANTS if ClonerParams.variants[v].jitter_degree == 0]
JITTERED = [v for v in VARIANTS if ClonerParams.variants[v].jitter_degree > 0]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=OVERLAPS, qubit=QUBITS,
       deltas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
@pytest.mark.parametrize(
    "variant", JITTERED, ids=[ClonerParams.variants[v].__name__ for v in JITTERED]
)
def test_pooled_moment_is_a_polynomial_of_the_declared_degree(
    variant, data, m, qubit, deltas
):
    # the counting kernel and the jitter average read the pooled moment
    # sum_s v_s v_s^H from its values at 2K+1 nodes; a device whose degree is
    # set too low fails here
    params = data.draw(PARAMS[variant])
    vectors = conditional_sector_vectors(params, qubit, m, deltas)
    direct = np.einsum("tsi,tsj->tij", vectors, vectors.conj())
    coefficients = _moment_polynomial(params, qubit, m)
    assert np.array_equal(coefficients, coefficients.conj().swapaxes(-1, -2))
    poly = np.einsum("rt,rij->tij", _harmonics(np.asarray(deltas), params.jitter_degree),
                     coefficients)
    assert np.max(np.abs(poly - direct)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(data=st.data(), m=OVERLAPS, delta=st.floats(-3.0, 3.0), qubit=QUBITS)
@pytest.mark.parametrize(
    "variant", STATIC, ids=[ClonerParams.variants[v].__name__ for v in STATIC]
)
def test_static_devices_ignore_phase_error(variant, data, m, delta, qubit):
    params = data.draw(PARAMS[variant])
    clean, p_clean = circuit_joint_state(params, qubit, m)
    shifted, p_shifted = circuit_joint_state(params, qubit, m, arm_phase_error=delta)
    assert p_shifted == p_clean
    assert np.array_equal(shifted.rho, clean.rho)
    assert np.array_equal(conditional_sector_vectors(params, qubit, m, [delta]),
                          conditional_sector_vectors(params, qubit, m))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_parse_model_round_trips(variant, data):
    params = data.draw(PARAMS[variant])
    spec = {f.name: getattr(params, f.name) for f in fields(params)}
    spec["variant"] = variant
    assert parse_model(json.loads(json.dumps(spec))) == params


def test_a_new_device_is_one_class(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(ClonerParams, "variants", dict(ClonerParams.variants))

    @dataclass(frozen=True)
    class ProbeParams(_Splitter, variant="probe"):
        """An unbalanced splitter with one reflectance for both rails."""

        R: float = 0.7
        plate: float | None = None

        def couplings(self, delta=0.0):
            loss = 1.0 if self.plate is None else self.plate
            return (*_rail_couplings(self.R, None, -1), 1.0, loss, 0.0, 0.0)

    config = parse_experiment({"model": {"variant": "probe", "R": 0.6, "plate": None},
                               "input": {"theta": 1.0, "phi": 0.4}})
    assert config.model == ProbeParams(R=0.6)
    reference = run_model(SpecialBSParams(R0=0.6), config.inputs)
    columns = run_experiment(config)
    assert columns["F1"] + columns["F2"] + columns["P_succ"] == pytest.approx(
        [reference.F1, reference.F2, reference.P_succ], abs=1e-12)
    with pytest.raises(ConfigError, match="model.R: expected a number"):
        parse_model({"variant": "probe", "R": "high"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_model({"variant": "probe", "R0": 0.6})

    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"model": {"variant": "probe", "plate": 0.9},
                                "sweep": {"phi": [0.0, 1.0]}}), encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def _docstring_fields() -> dict:
    """Variant -> field list, as experiment.py's module docstring states it."""
    entries = re.findall(r"^\* ``(\w+)``:(.+?)(?=^\* |\n\n)", experiment.__doc__,
                         re.M | re.S)
    return {variant: [name.strip() for name in text.split(",")]
            for variant, text in entries}


def test_docs_list_every_variant_and_field():
    assert _docstring_fields() == {
        variant: [f.name for f in fields(cls)]
        for variant, cls in ClonerParams.variants.items()
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Model variants:(.+?);", readme, re.S).group(1)
    assert re.findall(r"`(\w+)`", sentence) == VARIANTS
    table = re.findall(r"^\| `(\w+)` ", readme, re.M)
    assert table == CLASS_NAMES


def test_readme_python_blocks_run():
    # the quick start runs as written, so a renamed API cannot leave it stale
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("index, command, header, n_rows", [
    (0, "montecarlo", "theta,phi,F1,F2,P_succ,C_pp,C_pm,C_mp,C_mm,F1_hat,F2_hat,P_hat", 32),
    (1, "optimize", "objective,objective_value,F1,F2,P_succ,comp_loss_r1", 1),
])
def test_readme_json_blocks_run(tmp_path, capsys, index, command, header, n_rows):
    # each example configuration runs as written with the command it is for
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 2
    path = tmp_path / "config.json"
    path.write_text(blocks[index], encoding="utf-8")
    assert main([command, "--config", str(path), "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(lines) == n_rows + 1
