"""Conformance suite: every registered cloner variant, at random parameters.

Each device enters ``ClonerParams.variants`` by naming itself in its class
statement.  The properties below then hold for it without further code:
its closed-form sectors agree with its circuit at any ancilla overlap and
phase error, a device without an interferometer ignores the phase error
exactly, the pattern probabilities of one with an interferometer are
trigonometric polynomials of its declared ``jitter_degree``, and its
configuration round-trips through JSON.  The batch
properties live beside their kernels: ``test_batch_matches_run_model`` in
``test_cloners.py`` and ``test_evaluate_batch_matches_circuit_at_partial_overlap``
in ``test_noise.py``.
"""

import json
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloner_strategies import CLASS_NAMES, OVERLAPS, PARAMS, QUBITS, VARIANTS
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
)
from pcclone.counting import (
    _analyzer_vectors,
    _harmonics,
    _pattern_polynomials,
    _pattern_vectors,
)
from pcclone.experiment import ConfigError, parse_experiment, parse_model, run_experiment
from pcclone.noise import report_from_sectors

ROOT = Path(__file__).resolve().parents[1]


def test_every_variant_has_a_strategy():
    assert set(PARAMS) == set(ClonerParams.variants)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=OVERLAPS, delta=st.floats(-0.6, 0.6), qubit=QUBITS)
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_sector_vectors_match_circuit(variant, data, m, delta, qubit):
    params = data.draw(PARAMS[variant])
    joint, prob = circuit_joint_state(params, qubit, m, arm_phase_error=delta)
    from_sectors = report_from_sectors(
        conditional_sector_vectors(params, qubit, m, [delta]), qubit
    )
    assert abs(prob - from_sectors.P_succ) < 1e-12
    assert np.max(np.abs(joint.rho - from_sectors.joint.rho)) < 1e-12
    # the single-point closed form (M = 1, no phase error) against the circuit
    closed = run_model(params, qubit)
    joint, prob = circuit_joint_state(params, qubit)
    assert abs(prob - closed.P_succ) < 1e-12
    assert np.max(np.abs(joint.rho - closed.joint.rho)) < 1e-12


STATIC = [v for v in VARIANTS if ClonerParams.variants[v].jitter_degree == 0]
JITTERED = [v for v in VARIANTS if ClonerParams.variants[v].jitter_degree > 0]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=OVERLAPS, qubit=QUBITS, analysis=st.none() | QUBITS,
       deltas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
@pytest.mark.parametrize(
    "variant", JITTERED, ids=[ClonerParams.variants[v].__name__ for v in JITTERED]
)
def test_pattern_probabilities_are_polynomials_of_the_declared_degree(
    variant, data, m, qubit, analysis, deltas
):
    # the counting kernel interpolates each pattern probability from 2K+1
    # nodes; a device whose degree is set too low fails here
    params = data.draw(PARAMS[variant])
    w = _pattern_vectors(*_analyzer_vectors(params, [qubit], analysis))[0]
    vectors = conditional_sector_vectors(params, qubit, m, deltas)
    amp = np.einsum("tsi,ai->tsa", vectors, w.conj())
    direct = np.einsum("tsa,tsa->at", amp, amp.conj()).real
    poly = _pattern_polynomials(params, qubit, m, w) @ _harmonics(
        np.asarray(deltas), params.jitter_degree)
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
    reference = run_model(SpecialBSParams(R0=0.6), config.inputs[0])
    row = run_experiment(config)[0]
    assert (row["F1"], row["F2"], row["P_succ"]) == pytest.approx(
        (reference.F1, reference.F2, reference.P_succ), abs=1e-12)
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
