"""Conformance suite: every registered cloner variant, at random parameters.

Each device enters ``ClonerParams.variants`` by naming itself in its class
statement.  The properties below then hold for it without further code:
its closed-form sectors agree with its circuit at any ancilla overlap and
phase error, a device without an interferometer ignores the phase error
exactly, the pooled sector moment of one with an interferometer is a
trigonometric polynomial of its declared ``jitter_degree``, and its
configuration round-trips through JSON, every state the closed-form
kernel builds passes the density-matrix check that the kernel itself skips,
and its clones obey the asymmetric cloning bound on the equator on both
routes.  A test-only device that the phase error reaches runs the same
checks, the jittered counting and the optimizer, registered for one test.
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
from pcclone.cli import main
from pcclone.cloners import (
    F_PHASE_COVARIANT,
    R_OPTIMAL,
    ClonerParams,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    _rail_couplings,
    _Splitter,
    circuit_joint_state,
    conditional_sector_vectors,
    run_model,
    run_model_batch,
)
from pcclone.compensation import solve_hybrid_compensation
from pcclone.experiment import ConfigError, parse_experiment, parse_model, run_experiment
from pcclone.fock import Port, Qubit, _check_finite, _check_unit_interval, check_density
from pcclone.noise import _harmonics, _moment_polynomial

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def test_every_variant_has_a_strategy():
    assert set(PARAMS) == set(ClonerParams.variants)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=OVERLAPS, delta=st.floats(-0.6, 0.6), qubit=QUBITS)
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_sector_vectors_match_circuit(variant, data, m, delta, qubit):
    assert_routes_agree(data.draw(PARAMS[variant]), qubit, m, delta)


def assert_routes_agree(params, qubit, m, delta):
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
    check_density(batch.joint[kept], "two-qubit state")
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
    assert_moment_is_a_polynomial(data.draw(PARAMS[variant]), qubit, m, deltas)


def assert_moment_is_a_polynomial(params, qubit, m, deltas):
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
@given(data=st.data(), qubits=st.lists(QUBITS, min_size=1, max_size=8))
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_analysis_states_of_a_batch_are_two_qubits(variant, data, qubits):
    # counting reads an analyzer as one Qubit per clone: one state, or one
    # per input, whose fields follow the Qubit rules
    params = data.draw(PARAMS[variant])
    inputs = stack(qubits)
    states = params.analysis_states(inputs)
    assert len(states) == 2 and all(type(state) is Qubit for state in states)
    for state in states:
        assert np.shape(state.theta) == np.shape(state.phi) in ((), np.shape(inputs.theta))
        assert np.all((0.0 <= state.theta) & (state.theta <= math.pi))
        assert np.all((0.0 <= state.phi) & (state.phi <= 2.0 * math.pi))


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
    with pytest.raises(ConfigError, match="model.R must be a real number"):
        parse_model({"variant": "probe", "R": "high"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_model({"variant": "probe", "R0": 0.6})

    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"model": {"variant": "probe", "plate": 0.9},
                                "sweep": {"phi": [0.0, 1.0]}}), encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.fixture
def drift(monkeypatch):
    """A fifth device that the phase error reaches, registered for one test:
    a special BS of one reflectance whose rail-r1 phase is a field plus the
    phase error.  At ``phase`` 0 its couplings are the fiber cloner's."""
    monkeypatch.setattr(ClonerParams, "variants", dict(ClonerParams.variants))

    @dataclass(frozen=True)
    class DriftParams(_Splitter, variant="drift"):
        jitter_degree = 1

        R: float = R_OPTIMAL
        phase: float = 0.0

        _checks = ((_check_unit_interval, "R"), (_check_finite, "phase"))

        def couplings(self, delta=0.0):
            return (*_rail_couplings(self.R, None, -1), 1.0, 1.0, 0.0, self.phase + delta)

    return DriftParams


def test_a_device_under_jitter_is_one_class(drift, tmp_path, capsys):
    rng = np.random.default_rng(31)
    for m in [1.0, 1.0, 1.0, *rng.uniform(0.0, 0.999, 9)]:
        params = drift(R=rng.uniform(0.55, 0.95), phase=rng.uniform(-1.2, 1.0))
        qubit = Qubit(rng.uniform(0.2, 2.9), rng.uniform(0.0, 2.0 * math.pi))
        assert_routes_agree(params, qubit, m, rng.uniform(-0.6, 0.6))
        assert_moment_is_a_polynomial(params, qubit, m, rng.uniform(-10.0, 10.0, 20))
        for via in ("closed_form", "circuit"):
            f1, f2 = equator_average(params, m, via)
            assert cloning_bound(f1, f2) <= 1.0 + 1e-12
            if m == 1.0:  # a10 = a01 at every R and phase: symmetric clones
                assert abs(f1 - f2) <= 1e-12
                assert f1 <= F_PHASE_COVARIANT + 1e-12

    # jittered counting at M < 1: with its phase at 0 the device is the fiber
    # cloner of the golden case, whose balanced detection blocks on the
    # equator are the input's basis
    case = GOLDEN / "montecarlo_fiber_jitter_hom"
    document = json.loads(case.with_suffix(".json").read_text(encoding="utf-8"))
    document["model"] = {"variant": "drift", "R": document["model"]["R_vrc0"]}
    assert document["noise"]["overlap_M"] < 1.0
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["montecarlo", "--config", str(path), "--out", "-"]) == 0
    assert capsys.readouterr().out == case.with_suffix(".out").read_text(encoding="utf-8")

    # optimize over both fields: the clones are symmetric at any setting,
    # and their best fidelity is the optimal phase-covariant one
    path.write_text(json.dumps({
        "model": {"variant": "drift", "R": 0.7, "phase": 0.4},
        "free_parameters": {"R": [0.55, 0.95], "phase": [-1.0, 1.0]},
        "objective": "max_avg_fidelity"}), encoding="utf-8")
    assert main(["optimize", "--config", str(path), "--out", "-"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    result = dict(zip(header.split(","), row.split(",")))
    assert float(result["F1"]) == pytest.approx(F_PHASE_COVARIANT, abs=1e-9)
    assert float(result["F2"]) == pytest.approx(F_PHASE_COVARIANT, abs=1e-9)
    assert float(result["R"]) == pytest.approx(R_OPTIMAL, abs=1e-4)
    assert float(result["phase"]) == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("command, block", [
    ("run", {"input": {"theta": math.pi / 2, "phi": 1.1}}),
    ("sweep", {"sweep": {"phi": {"start": 0.3, "stop": 5.9, "count": 5}},
               "output": {"format": "json"}}),
])
def test_run_and_sweep_over_a_jittered_device_match_the_fiber_cloner(
        drift, tmp_path, capsys, command, block):
    # at phase 0 the drift device is the fiber cloner, whose balanced
    # detection blocks on the equator are the input's basis: the counted
    # rows under jitter and M < 1 print the same bytes
    path = tmp_path / "config.json"

    def output(model, sigma=0.05):
        path.write_text(json.dumps({
            "model": model, **block, "counting": {"n_pairs": 5000, "seed": 4},
            "noise": {"overlap_M": 0.93, "phase_jitter_sigma": sigma,
                      "jitter_reset_period": 30}}), encoding="utf-8")
        assert main([command, "--config", str(path), "--out", "-"]) == 0
        return capsys.readouterr().out

    jittered = output({"variant": "drift", "R": 0.77})
    assert jittered == output({"variant": "fiber", "R_vrc0": 0.77})
    # the jitter and the device's own phase both reach the counts
    assert jittered != output({"variant": "drift", "R": 0.77}, sigma=0.0)
    assert jittered != output({"variant": "drift", "R": 0.77, "phase": 0.3})


#: 64 equatorial inputs, evenly spaced
EQUATOR = [Qubit.equatorial(phi) for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)]
EQUATOR_BATCH = stack(EQUATOR)


def equator_average(params, m, via):
    """(F1, F2) of ``params`` averaged over :data:`EQUATOR` at overlap ``m``."""
    if via == "closed_form":
        batch = run_model_batch(params, EQUATOR_BATCH, m)
        return batch.F1.mean(), batch.F2.mean()
    reports = [run_model(params, q, "circuit", m) for q in EQUATOR]
    return np.mean([r.F1 for r in reports]), np.mean([r.F2 for r in reports])


def cloning_bound(f1, f2):
    """(2 F1 - 1)^2 + (2 F2 - 1)^2: at most 1 for equator-averaged clones of
    any 1 -> 2 cloner, met by the optimal asymmetric phase-covariant cloners
    (Fiurasek, PRA 67, 052314, 2003)."""
    return (2.0 * f1 - 1.0) ** 2 + (2.0 * f2 - 1.0) ** 2


@settings(max_examples=10, deadline=None)
@given(data=st.data(), m=OVERLAPS)
@pytest.mark.parametrize("via", ["closed_form", "circuit"])
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_devices_obey_the_asymmetric_cloning_bound(variant, via, data, m):
    # a law that reads neither route's device code: a fault that makes a
    # device better than physics allows fails here
    assert cloning_bound(*equator_average(data.draw(PARAMS[variant]), m, via)) <= 1.0 + 1e-12


@pytest.mark.parametrize("via", ["closed_form", "circuit"])
@pytest.mark.parametrize("variant", VARIANTS, ids=CLASS_NAMES)
def test_ideal_devices_meet_the_cloning_bound(variant, via):
    f1, f2 = equator_average(ClonerParams.variants[variant](), 1.0, via)
    assert abs(cloning_bound(f1, f2) - 1.0) <= 1e-12


def _compensated_hybrid(a0, a1):
    """The hybrid device whose plates symmetrize separating-splitter
    reflection amplitudes ``a0`` and ``a1``."""
    t0, t1 = math.sqrt(1.0 - a0 * a0), math.sqrt(1.0 - a1 * a1)
    eta0, eta1, nu0, nu1 = solve_hybrid_compensation(a0, t0, a1, t1).capped_values
    return HybridParams(r0=a0, t0=t0, r1=a1, t1=t1, eta0=eta0, eta1=eta1, nu0=nu0, nu1=nu1)


#: variant -> settings whose equator-averaged clones are symmetric at M = 1
SYMMETRIC = {
    "special_bs": st.builds(SpecialBSParams, R0=st.floats(0.05, 0.95)),
    "mach_zehnder": st.floats(0.2, 1.4).map(lambda v: MachZehnderParams(v, v + math.pi / 2)),
    "hybrid": st.builds(_compensated_hybrid, st.floats(0.55, 0.8), st.floats(0.55, 0.8)),
    "fiber": st.builds(FiberParams, R_vrc0=st.floats(0.05, 0.95)),
}


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("via", ["closed_form", "circuit"])
@pytest.mark.parametrize("variant", list(SYMMETRIC))
def test_a_symmetric_cloner_is_at_most_phase_covariant_optimal(variant, via, data):
    f1, f2 = equator_average(data.draw(SYMMETRIC[variant]), 1.0, via)
    assert abs(f1 - f2) <= 1e-12
    assert f1 <= F_PHASE_COVARIANT + 1e-12


def test_docs_list_every_variant():
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
