import json
import math
import os
import subprocess
import sys
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcclone
from pcclone.cli import main
from pcclone.cloners import MAX_PAIRS, ClonerParams, run_model
from pcclone.counting import (
    CoincidenceRecord,
    DetectorBank,
    _row_seeds,
    fidelity_from_counts,
    simulate_counts,
    success_probability_estimate,
)
from pcclone.experiment import (
    MAX_ROWS,
    ConfigError,
    CountingOptions,
    OptimizeConfig,
    OutputOptions,
    _read,
    compare_experiments,
    parse_experiment,
    render_rows,
    run_experiment,
)
from pcclone.fock import Qubit
from row_text import as_rows, parse_rows, render_row_dicts

F_PC_10 = "0.8535533906"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def ideal_single():
    return {
        "model": {"variant": "special_bs"},
        "input": {"theta": math.pi / 2, "phi": 0.0},
    }


def row_inputs(config):
    """One validated Qubit per row of a sweep configuration, theta-major."""
    return [Qubit(th, ph) for th in config.sweep.theta for ph in config.sweep.phi]


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_parse_requires_exactly_one_input_block():
    with pytest.raises(ConfigError, match="input"):
        parse_experiment({"model": {"variant": "special_bs"}})
    with pytest.raises(ConfigError, match="input"):
        parse_experiment(
            {
                "model": {"variant": "special_bs"},
                "input": {"theta": 1.0},
                "sweep": {"phi": [0.0]},
            }
        )


def test_parse_rejects_unknown_keys():
    config = ideal_single()
    config["mistyped"] = 1
    with pytest.raises(ConfigError, match="mistyped"):
        parse_experiment(config)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_experiment(
            {"model": {"variant": "special_bs", "R": 0.7}, "input": {"theta": 1.0}}
        )


def test_parse_names_offending_field():
    config = ideal_single()
    config["model"]["R0"] = 1.2
    with pytest.raises(ConfigError, match="R0"):
        parse_experiment(config)
    config = ideal_single()
    config["input"]["theta"] = 4.0
    with pytest.raises(ConfigError, match="theta"):
        parse_experiment(config)


def test_parse_rejects_empty_sweep_list():
    with pytest.raises(ConfigError, match="non-empty"):
        parse_experiment(
            {"model": {"variant": "special_bs"}, "sweep": {"phi": []}}
        )


def test_parse_model_variants():
    for variant in ("special_bs", "mach_zehnder", "hybrid", "fiber"):
        config = {"model": {"variant": variant}, "input": {"theta": 1.0}}
        parsed = parse_experiment(config)
        assert type(parsed.model).__name__.lower().startswith(
            variant.replace("_", "")[:5]
        )
    with pytest.raises(ConfigError, match="variant"):
        parse_experiment({"model": {"variant": "cnot"}, "input": {"theta": 1.0}})
    with pytest.raises(ConfigError, match="model.variant"):
        parse_experiment({"model": {"variant": ["fiber"]}, "input": {"theta": 1.0}})


def _compare(*entries, **top):
    return {"configs": [dict({"label": f"c{i}"}, **entry)
                        for i, entry in enumerate(entries)], **top}


_FREE = {"model": {"variant": "special_bs"}, "free_parameters": {"R0": [0.5, 1.0]},
         "objective": "min_fidelity_gap"}
_SWEEP = {"model": {"variant": "special_bs"}, "sweep": {"phi": [0.0]}}


@pytest.mark.parametrize("command, payload, named", [
    ("run", [ideal_single()], "config: expected an object"),
    ("run", None, "config: expected an object"),
    ("run", dict(ideal_single(), mistyped=1), "config: unknown key(s) ['mistyped']"),
    ("run", {"input": {"theta": 1.0}}, "model: required"),
    ("run", dict(ideal_single(), model={"variant": "fiber", "R0": 0.5}),
     "model: unknown key(s) ['R0']"),
    ("run", {"model": {"variant": "special_bs"}, "input": {"theta": 1.0, "psi": 0}},
     "input: unknown key(s) ['psi']"),
    ("run", dict(ideal_single(), noise={"M": 0.9}), "noise: unknown key(s) ['M']"),
    ("run", dict(ideal_single(), counting={"n_pairs": 10, "detectors": {"eta": 1}}),
     "counting.detectors: unknown key(s) ['eta']"),
    ("run", dict(ideal_single(), output={"fmt": "csv"}), "output: unknown key(s) ['fmt']"),
    ("run", dict(_SWEEP, sweep={"psi": 1.0}), "sweep: unknown key(s) ['psi']"),
    ("run", dict(_SWEEP, sweep={"phi": {"start": 0, "stop": 1, "count": 2, "step": 1}}),
     "sweep.phi: unknown key(s) ['step']"),
    ("run", {"model": {"variant": "special_bs"}},
     "input/sweep: exactly one of 'input' or 'sweep' is required"),
    ("run", dict(ideal_single(), sweep={"phi": [0.0]}),
     "input/sweep: exactly one of 'input' or 'sweep' is required"),
    ("run", dict(_SWEEP, input=None), "input: expected an object"),
    ("run", dict(ideal_single(), sweep=None), "sweep: expected an object"),
    ("run", dict(_SWEEP, sweep={"theta": "pole"}), "sweep.theta: expected a number"),
    ("run", dict(_SWEEP, sweep={"theta": {"start": 0, "stop": 1}}),
     "sweep.theta.count: required"),
    ("run", dict(_SWEEP, sweep={"theta": {"start": 0, "stop": 1, "count": 0}}),
     "sweep.theta.count: must lie in"),
    ("run", dict(_SWEEP, sweep={"theta": [0.5, 3.5]}),
     "sweep.theta must lie in [0, pi], got 3.5"),
    ("run", dict(_SWEEP, sweep={"theta": {"start": 0, "stop": 3.5, "count": 3}}),
     "sweep.theta must lie in [0, pi], got 3.5"),
    ("run", dict(ideal_single(), label=5), "label: expected a string"),
    ("compare", {"configs": ideal_single()}, "configs: expected a list"),
    ("compare", {}, "configs: required"),
    ("compare", None, "config: expected an object"),
    ("compare", _compare(ideal_single(), ideal_single(), mistyped=1),
     "config: unknown key(s) ['mistyped']"),
    ("compare", _compare(ideal_single(), dict(ideal_single(), q=1)),
     "configs[1]: unknown key(s) ['q']"),
    ("compare", _compare(ideal_single(), dict(ideal_single(), model={"variant": "x"})),
     "configs[1].model.variant: must be one of"),
    ("compare", _compare(dict(ideal_single(), sweep={"phi": [0.0]}), ideal_single()),
     "configs[0].input/sweep: exactly one"),
    ("compare", _compare(ideal_single(), {"model": {"variant": "fiber"}}),
     "configs[1].input/sweep: exactly one"),
    ("compare", _compare(ideal_single(), dict(_SWEEP, sweep={"theta": [4.0]})),
     "configs[1].sweep.theta must lie in [0, pi], got 4.0"),
    ("compare", _compare(ideal_single(), dict(_SWEEP, sweep={"phi": "x"})),
     "configs[1].sweep.phi: expected a number"),
    ("optimize", dict(_FREE, mistyped=1), "config: unknown key(s) ['mistyped']"),
    ("optimize", None, "config: expected an object"),
    ("optimize", {"model": {"variant": "special_bs"}, "objective": "min_fidelity_gap"},
     "free_parameters: required"),
    ("optimize", dict(_FREE, input={"theta": 1.0, "psi": 0.0}),
     "input: unknown key(s) ['psi']"),
    ("optimize", dict(_FREE, free_parameters={"R0": [0.5]}),
     "free_parameters.R0: expected a list of 2 values"),
    ("optimize", dict(_FREE, output={"format": "xml"}),
     "output.format must be 'csv' or 'json'"),
])
def test_malformed_documents_exit_2_naming_the_field(tmp_path, capsys, command,
                                                     payload, named):
    assert main([command, "--config", write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}")


def test_unknown_command_and_missing_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, ideal_single())
    for argv in (["bogus", "--config", path], ["run"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random loads on the first counted row, not with every process
    src = str(Path(pcclone.__file__).resolve().parents[1])
    code = "import sys, pcclone.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"


def test_importing_the_cli_builds_no_parser():
    # the one parser of a process is built by the first main() call
    src = str(Path(pcclone.__file__).resolve().parents[1])
    code = ("import pcclone.cli as cli; n = cli.build_parser.cache_info().currsize; "
            "cli.build_parser(); print(n, cli.build_parser.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "0 1\n"


def test_options_may_precede_the_command(tmp_path, capsys):
    path = write_config(tmp_path, ideal_single())
    assert main(["--config", path, "run"]) == 0
    assert F_PC_10 in capsys.readouterr().out


@pytest.mark.parametrize("count", [26, 42, 51, 80, 83, 96, 101, 1000])
@pytest.mark.parametrize("start, stop", [(0.0, math.pi), (math.pi, 0.0)])
def test_a_range_between_the_poles_stays_in_the_theta_domain(count, start, stop):
    # start + k * step rounds just past pi (ascending) or below 0 (descending)
    # at these counts; such a value is put back on the pole it overshot
    config = parse_experiment({"model": {"variant": "fiber"},
                               "sweep": {"theta": {"start": start, "stop": stop,
                                                   "count": count}}})
    thetas = config.inputs.theta.tolist()
    step = (stop - start) / (count - 1)
    assert thetas == [min(max(start + k * step, 0.0), math.pi) for k in range(count)]
    assert thetas[0] == start and thetas[-1] == stop


def test_a_range_keeps_its_values_inside_the_theta_domain():
    # only values rounded out of [0, pi] move: in-domain overshoots stay as written
    start, stop, count = 0.1, 2.9, 36
    step = (stop - start) / (count - 1)
    assert stop < start + (count - 1) * step < math.pi
    config = parse_experiment({"model": {"variant": "fiber"},
                               "sweep": {"theta": {"start": start, "stop": stop,
                                                   "count": count},
                                         "phi": {"start": -7.0, "stop": 7.0,
                                                 "count": 3}}})
    assert config.inputs.theta[::3].tolist() == [start + k * step for k in range(count)]
    assert config.inputs.phi[:3].tolist() == [
        (-7.0 + k * 7.0) % (2 * math.pi) for k in range(3)]


#: axis values where a rule of Qubit shows: signed zeros, the poles, a
#: negative phi, phi = 2 pi, -1e-300 (its phi rounds up onto 2 pi) and huge phi
EDGE_THETAS = st.sampled_from([-0.0, 0.0, 5e-324, math.pi]) | st.floats(0.0, math.pi)
EDGE_PHIS = (st.sampled_from([-0.0, 0.0, -1e-300, 1e-300, 2 * math.pi, -2 * math.pi,
                              -math.pi, 1e300, -1e300])
             | st.floats(-20.0, 20.0) | st.floats(-1e300, 1e300))


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(thetas=st.lists(EDGE_THETAS, min_size=1, max_size=6),
       phis=st.lists(EDGE_PHIS, min_size=1, max_size=6))
def test_sweep_input_columns_equal_one_qubit_per_row(thetas, phis):
    # the sweep validates and reduces its inputs as one Qubit of arrays; every
    # entry keeps the bits a Qubit of that row alone would hold
    config = parse_experiment({"model": {"variant": "special_bs"},
                               "sweep": {"theta": thetas, "phi": phis}})
    rows = row_inputs(config)
    columns = run_experiment(config)
    for got in (config.inputs.theta, columns["theta"]):
        assert bits(got) == bits(q.theta for q in rows)
    for got in (config.inputs.phi, columns["phi"]):
        assert bits(got) == bits(q.phi for q in rows)


@pytest.mark.parametrize("counting", [None, {"n_pairs": 100}], ids=["plain", "counted"])
def test_qubit_constructions_do_not_grow_with_the_rows(monkeypatch, counting):
    constructions = []
    post_init = Qubit.__post_init__
    monkeypatch.setattr(Qubit, "__post_init__",
                        lambda self: constructions.append(1) or post_init(self))
    made = []
    for count in (2, 40):
        constructions.clear()
        config = {"model": {"variant": "special_bs"},
                  "sweep": {"theta": {"start": 0.1, "stop": 3.0, "count": count},
                            "phi": {"start": -1.0, "stop": 6.0, "count": count}}}
        if counting:
            config["counting"] = counting
        assert len(run_experiment(parse_experiment(config))["theta"]) == count * count
        made.append(len(constructions))
    # one for the sweep; counting adds one for the analyzers' orthogonal states
    assert made == ([1, 1] if counting is None else [2, 2])


def test_cli_runs_a_theta_range_from_pole_to_pole(tmp_path, capsys):
    path = write_config(tmp_path, {
        "model": {"variant": "special_bs"},
        "sweep": {"theta": {"start": 0, "stop": math.pi, "count": 26}},
    })
    assert main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 27
    assert lines[-1].startswith("3.141592654,0,")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def test_run_single_ideal_row():
    columns = run_experiment(parse_experiment(ideal_single()))
    assert list(columns) == ["theta", "phi", "F1", "F2", "P_succ"]
    assert all(len(values) == 1 for values in columns.values())
    assert columns["F1"][0] == pytest.approx(0.8535533905932737, abs=1e-9)
    assert columns["P_succ"][0] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_phase_sweep_is_flat_for_ideal_fiber():
    config = {
        "model": {"variant": "fiber"},
        "sweep": {"phi": {"start": 0.0, "stop": 6.2, "count": 32}},
    }
    values = run_experiment(parse_experiment(config))["F1"]
    assert len(values) == 32
    assert max(values) - min(values) < 1e-9


def test_phase_sweep_with_distinguishability_below_universal():
    config = {
        "model": {"variant": "special_bs"},
        "noise": {"overlap_M": math.sqrt(0.92)},
        "sweep": {"phi": [0.0, 1.0, 2.0, 3.0]},
    }
    columns = run_experiment(parse_experiment(config))
    averages = [(f1 + f2) / 2 for f1, f2 in zip(columns["F1"], columns["F2"])]
    assert max(averages) - min(averages) < 1e-9
    assert all(value < 5.0 / 6.0 for value in averages)


def test_theta_sweep_decreases_to_equator():
    config = {
        "model": {"variant": "special_bs"},
        "sweep": {"theta": {"start": 0.0, "stop": math.pi / 2, "count": 10},
                  "phi": 0.0},
    }
    values = run_experiment(parse_experiment(config))["F1"]
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert values[-1] == pytest.approx(0.8535533905932737, abs=1e-9)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_counting_columns_present_and_consistent():
    config = dict(ideal_single())
    config["counting"] = {"n_pairs": 20_000, "seed": 9}
    row = as_rows(run_experiment(parse_experiment(config)))[0]
    c_sum = row["C_pp"] + row["C_pm"] + row["C_mp"] + row["C_mm"]
    assert row["P_hat"] == pytest.approx(c_sum / 20_000, abs=1e-12)
    assert row["F1_hat"] == pytest.approx((row["C_pp"] + row["C_pm"]) / c_sum,
                                          abs=1e-12)


def test_compare_ideal_architectures():
    configs = [
        parse_experiment(
            {
                "label": label,
                "model": {"variant": variant},
                "sweep": {"phi": [0.0, 0.8, 1.6]},
            }
        )
        for label, variant in
        (("special", "special_bs"), ("hybrid", "hybrid"), ("fiber", "fiber"))
    ]
    columns = compare_experiments(configs)
    assert columns["label"] == ["special", "hybrid", "fiber"]
    assert columns["F1_mean"] == pytest.approx([0.8535533905932737] * 3, abs=1e-9)
    assert columns["P_succ"] == pytest.approx([1 / 3, 1 / 16, 1 / 3], abs=1e-9)
    assert columns["rate_proxy"] == [None, None, None]


def test_compare_filtered_vs_unfiltered_hybrid():
    configs = [
        parse_experiment(
            {
                "label": "with-filter",
                "model": {"variant": "hybrid"},
                "sweep": {"phi": [0.0, 2.0]},
            }
        ),
        parse_experiment(
            {
                "label": "no-filter",
                "model": {"variant": "hybrid", "eta0": 1.0, "eta1": 1.0},
                "sweep": {"phi": [0.0, 2.0]},
            }
        ),
    ]
    f1_means = compare_experiments(configs)["F1_mean"]
    assert f1_means[0] == pytest.approx(0.8536, abs=1e-4)
    assert f1_means[1] == pytest.approx(0.8333, abs=1e-4)


def test_compare_rejects_single_and_duplicate_labels():
    config = parse_experiment({"label": "a", **ideal_single()})
    with pytest.raises(ConfigError, match="at least 2"):
        compare_experiments([config])
    with pytest.raises(ConfigError, match="duplicate"):
        compare_experiments([config, config])


# ---------------------------------------------------------------------------
# emission and round trips
# ---------------------------------------------------------------------------

def test_render_round_trip_csv_and_json():
    config = dict(ideal_single())
    config["counting"] = {"n_pairs": 5_000, "seed": 1}
    columns = run_experiment(parse_experiment(config))
    rows = as_rows(columns)
    for fmt in ("csv", "json"):
        text = render_rows(columns, fmt)
        assert text.endswith("\n")
        parsed = parse_rows(text, fmt)
        assert len(parsed) == len(rows)
        for key, value in rows[0].items():
            round_value = parsed[0][key]
            if isinstance(value, float):
                assert round_value == pytest.approx(value, rel=1e-9)
            else:
                assert round_value == value


def test_csv_and_json_carry_identical_numbers():
    columns = run_experiment(parse_experiment(ideal_single()))
    csv_rows = parse_rows(render_rows(columns, "csv"), "csv")
    json_rows = parse_rows(render_rows(columns, "json"), "json")
    for a, b in zip(csv_rows, json_rows):
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-10)


#: floats where "%.10g" and repr disagree or nearly do: integer-valued ones,
#: magnitudes in [1e10, 1e16), values that round to an integer at 10 digits,
#: the edges of fixed-point printing, subnormals, -0.0, infinities and NaN
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**12, 10**12).map(float),
    st.floats(1e10, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(1e-4, 1e9),
    st.builds(lambda k, eps: k + eps, st.integers(-10**6, 10**6), st.floats(-1e-5, 1e-5)),
    st.builds(lambda k, eps: k * (1.0 + eps), st.integers(-10**6, 10**6),
              st.floats(-2e-9, 2e-9)),
    st.floats(0.0, 2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-4, 9.9999999995e-5, 999999999.9,
                     999999999.99999, 9999999999.5, 0.99999999996, 0.9999999994,
                     2.99999999996, 3.00000000004, 12345.0000001, 1.00000000045,
                     -10000.0000045]),
)
INTS = st.integers(-2**63, 2**63 - 1)
CELLS = st.one_of(st.none(), FLOATS, FLOATS.map(np.float64), INTS, INTS.map(np.int64),
                  st.text(max_size=6))
#: column kind -> strategy for its n values
COLUMN_KINDS = {
    "floats": lambda n: st.lists(FLOATS, min_size=n, max_size=n),
    "numpy floats": lambda n: st.lists(FLOATS.map(np.float64), min_size=n, max_size=n),
    "float array": lambda n: st.lists(FLOATS, min_size=n, max_size=n).map(np.array),
    "floats or None": lambda n: st.lists(st.none() | FLOATS, min_size=n, max_size=n),
    "ints": lambda n: st.lists(INTS | INTS.map(np.int64), min_size=n, max_size=n),
    "int array": lambda n: st.lists(INTS, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64)),
    "labels": lambda n: st.lists(st.text(max_size=6), min_size=n, max_size=n),
    "mixed": lambda n: st.lists(CELLS, min_size=n, max_size=n),
}


@st.composite
def result_columns(draw):
    n = draw(st.integers(1, 8))
    names = draw(st.lists(st.text(alphabet='ab%"\\é,', min_size=1, max_size=4),
                          min_size=1, max_size=6, unique=True))
    return {name: draw(COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))](n))
            for name in names}


#: one-row columns at the edges of the JSON spelling of floats
EDGE_FLOATS = [1.0, 0.0, -0.0, 3.0e10, -2.5e15, 1e16, 1e-5, 5e-324, 2.2e-308, math.inf,
               -math.inf, math.nan, 0.99999999996, 2.99999999996, 1.00000000045,
               -10000.0000045, np.float64(7.0)]


@settings(max_examples=400, deadline=None)
@given(result_columns())
@example({f"x{i}": [value] for i, value in enumerate(EDGE_FLOATS)})
@example({"F1": [None, 0.25], "C_pp": [np.int64(3), 4], "label": ["a", "é"]})
def test_render_rows_writes_the_bytes_of_the_row_dict_renderer(columns):
    rows = as_rows(columns)
    for fmt in ("csv", "json"):
        assert render_rows(columns, fmt) == render_row_dicts(rows, fmt)


def test_render_rows_rejects_malformed_columns():
    with pytest.raises(ValueError, match=r"got lengths \[\]"):
        render_rows({}, "csv")
    with pytest.raises(ValueError, match=r"got lengths \[0\]"):
        render_rows({"F1": []}, "json")
    with pytest.raises(ValueError, match=r"got lengths \[1, 2\]"):
        render_rows({"F1": [0.5], "F2": [0.5, 0.6]}, "csv")
    with pytest.raises(ValueError, match="format"):
        render_rows({"F1": [0.5]}, "xml")


def test_empty_rows_have_no_fidelities():
    config = parse_experiment({
        "model": {"variant": "special_bs", "comp_loss_r0": 0.0, "comp_loss_r1": 0.0},
        "sweep": {"phi": [0.0, 1.0]},
    })
    columns = run_experiment(config)
    assert (columns["F1"], columns["F2"], columns["P_succ"]) == \
        ([None, None], [None, None], [0.0, 0.0])
    assert render_rows(columns, "csv").splitlines()[1] == "1.570796327,0,,,0"
    assert '"F1": null' in render_rows(columns, "json")


def test_compare_means_sum_the_rows_in_order():
    configs = [parse_experiment({
        "label": label, "model": {"variant": variant},
        "sweep": {"theta": [0.3, 1.2, 2.9], "phi": [0.1, 2.0]},
        "counting": {"n_pairs": 2000, "seed": 4},
    }) for label, variant in (("a", "mach_zehnder"), ("b", "hybrid"))]
    summary = compare_experiments(configs)
    for i, config in enumerate(configs):
        columns = run_experiment(config)
        for name, mean in (("F1", "F1_mean"), ("F2", "F2_mean"), ("P_succ", "P_succ"),
                           ("P_hat", "rate_proxy")):
            assert summary[mean][i] == sum(columns[name]) / len(columns[name])


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_run_writes_expected_row(tmp_path, capsys):
    path = write_config(tmp_path, ideal_single())
    assert main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "theta,phi,F1,F2,P_succ"
    assert F_PC_10 in out
    assert "0.3333333333" in out


@pytest.mark.parametrize("loss", [1e-160, 1e-150])
def test_cli_run_gives_an_empty_row_for_a_vanishing_success(tmp_path, capsys, loss):
    path = write_config(tmp_path, {
        "model": {"variant": "special_bs", "comp_loss_r0": loss, "comp_loss_r1": loss},
        "input": {"theta": 0.0, "phi": 0.0},
    })
    assert main(["run", "--config", path]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,,,0"


@pytest.mark.parametrize("fmt, row", [
    ("csv", "0,0,"),
    ("json", '{\n    "theta": 0.0,\n    "phi": 0.0,\n'),
], ids=["csv", "json"])
def test_cli_prints_a_negative_zero_input_as_zero(tmp_path, capsys, fmt, row):
    path = write_config(tmp_path, {"model": {"variant": "special_bs"},
                                   "input": {"theta": -0.0, "phi": -0.0}})
    assert main(["run", "--config", path, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert row in out
    assert "-0" not in out


def test_cli_outputs_are_byte_identical(tmp_path):
    config = {
        "model": {"variant": "fiber", "R_vrc0": 0.79, "R_vrc1": 0.21},
        "sweep": {"phi": [0.0, 1.0, 2.0]},
        "counting": {"n_pairs": 10_000, "seed": 3},
    }
    path = write_config(tmp_path, config)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_override_changes_counts(tmp_path):
    config = dict(ideal_single())
    config["counting"] = {"n_pairs": 10_000, "seed": 3}
    path = write_config(tmp_path, config)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["montecarlo", "--config", path, "--out", str(out1)]) == 0
    assert main(
        ["montecarlo", "--config", path, "--seed", "4", "--out", str(out2)]
    ) == 0
    assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize("command, payload", [
    ("run", ideal_single()),
    ("optimize", _FREE),
    ("compare", _compare(ideal_single(), dict(ideal_single(), model={"variant": "fiber"}))),
], ids=["run", "optimize", "compare"])
def test_seed_without_a_counting_block_exits_2(tmp_path, capsys, command, payload):
    path = write_config(tmp_path, payload)
    assert main([command, "--config", path, "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: counting: --seed given but the configuration "
                            "has no counting block\n")


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["no-seed", "seed"])
@pytest.mark.parametrize("configs, message", [
    ([], "compare needs at least 2 configurations"),
    ([dict(ideal_single(), label="a")], "compare needs at least 2 configurations"),
    ([ideal_single(), dict(ideal_single(), model={"variant": "fiber"})],
     "every compared configuration needs a label"),
    ([dict(ideal_single(), label="a")] * 2, "duplicate labels ['a', 'a']"),
], ids=["none", "one", "unlabeled", "duplicate"])
def test_a_compare_document_that_cannot_compare_exits_2(tmp_path, capsys, configs,
                                                        message, seed):
    # the document's own fault is named, not the --seed that finds no counting block
    path = write_config(tmp_path, {"configs": configs})
    assert main(["compare", "--config", path, *seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: configs: {message}\n"


def test_compare_rejects_an_output_block_in_an_entry(tmp_path, capsys):
    target = tmp_path / "entry.json"
    entry = dict(ideal_single(), output={"format": "json", "path": str(target)})
    path = write_config(tmp_path, _compare(ideal_single(), entry))
    assert main(["compare", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: configs[1].output: ")
    assert not target.exists()


def test_cli_validation_failures_exit_2(tmp_path, capsys):
    bad = ideal_single()
    bad["model"]["R0"] = 1.2
    path = write_config(tmp_path, bad)
    assert main(["run", "--config", path]) == 2
    assert "R0" in capsys.readouterr().err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(not_json)]) == 2

    single = write_config(tmp_path, ideal_single(), "single.json")
    assert main(["sweep", "--config", single]) == 2
    assert main(["montecarlo", "--config", single]) == 2


def test_cli_io_failures_exit_3(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 3
    path = write_config(tmp_path, ideal_single())
    target = tmp_path / "no_such_dir" / "out.csv"
    assert main(["run", "--config", path, "--out", str(target)]) == 3


def test_cli_compare(tmp_path, capsys):
    payload = {
        "configs": [
            {"label": "special", "model": {"variant": "special_bs"},
             "input": {"theta": math.pi / 2}},
            {"label": "hybrid", "model": {"variant": "hybrid"},
             "input": {"theta": math.pi / 2}},
        ]
    }
    path = write_config(tmp_path, payload)
    assert main(["compare", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "label,F1_mean,F2_mean,P_succ,rate_proxy"
    assert "special" in out and "hybrid" in out
    assert "0.0625" in out


def test_cli_optimize(tmp_path, capsys):
    payload = {
        "model": {"variant": "special_bs", "R0": 0.6},
        "free_parameters": {"R0": [0.5, 1.0]},
        "objective": "max_avg_fidelity",
    }
    path = write_config(tmp_path, payload)
    assert main(["optimize", "--config", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert abs(rows[0]["R0"] - 0.7886751346) < 1e-4
    assert rows[0]["F1"] == pytest.approx(0.8535533906, abs=1e-6)


def test_cli_optimize_rejects_bad_objective(tmp_path, capsys):
    payload = {
        "model": {"variant": "special_bs"},
        "free_parameters": {"R0": [0.5, 1.0]},
        "objective": "fastest",
    }
    path = write_config(tmp_path, payload)
    assert main(["optimize", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: optimize: objective must be one of "
                            "('min_fidelity_gap', 'max_avg_fidelity'), got 'fastest'\n")


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"label": "caf\xff", "model": {"variant": "special_bs"}, '
                     b'"input": {"theta": 1.0}}')
    assert main(["run", "--config", str(path)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_compare_rejects_separator_in_label(tmp_path, capsys, label, fmt):
    payload = {
        "configs": [
            {"label": "plain", "model": {"variant": "special_bs"},
             "input": {"theta": math.pi / 2}},
            {"label": label, "model": {"variant": "hybrid"},
             "input": {"theta": math.pi / 2}},
        ]
    }
    path = write_config(tmp_path, payload)
    assert main(["compare", "--config", path, "--format", fmt]) == 2
    assert "configs[1].label" in capsys.readouterr().err


@pytest.mark.parametrize("variant, name", [("special_bs", "R1"), ("fiber", "R_vrc1")])
def test_cli_optimize_rejects_parameter_at_none(tmp_path, capsys, variant, name):
    payload = {
        "model": {"variant": variant},
        "free_parameters": {name: [0.1, 0.4]},
        "objective": "min_fidelity_gap",
    }
    path = write_config(tmp_path, payload)
    assert main(["optimize", "--config", path]) == 2
    assert name in capsys.readouterr().err


def test_cli_optimize_rejects_non_float_parameter(tmp_path, capsys):
    payload = {
        "model": {"variant": "special_bs"},
        "free_parameters": {"sign_convention": [-1, 1]},
        "objective": "min_fidelity_gap",
    }
    path = write_config(tmp_path, payload)
    assert main(["optimize", "--config", path]) == 2
    assert "'sign_convention' must be a float field" in capsys.readouterr().err


def test_cli_optimize_interval_outside_the_field_domain_exits_2(tmp_path, capsys):
    # the grid over [0.9, 1.2] steps 0.009375: its twelfth point is the first past 1
    payload = {
        "model": {"variant": "special_bs"},
        "free_parameters": {"R0": [0.9, 1.2]},
        "objective": "min_fidelity_gap",
    }
    path = write_config(tmp_path, payload)
    assert main(["optimize", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: optimize: R0 must lie in [0, 1], got 1.003125\n"


def test_cli_optimize_invalid_ladder_candidate_exits_2(tmp_path, capsys):
    # the grid's r0 = ±sqrt(1/2) pass with t0 = sqrt(1/2); the ladder's r0 = 0 does not
    payload = {
        "model": {"variant": "hybrid"},
        "free_parameters": {"r0": [-math.sqrt(0.5), math.sqrt(0.5)]},
        "objective": "min_fidelity_gap",
        "grid_points": 2,
    }
    path = write_config(tmp_path, payload)
    assert main(["optimize", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: optimize: (r0, t0) must satisfy r^2 + t^2 = 1, "
                            "got 0.5000000000000001\n")


@pytest.mark.parametrize("grid_points, message", [
    (317, f"grid_points ** 2 (the grid over 2 free parameters) must not exceed "
          f"{MAX_ROWS}, got 317"),
    (1, "grid_points must be >= 2, got 1"),
], ids=["over-the-cap", "one-point"])
def test_optimize_grid_over_the_cap_exits_2(tmp_path, capsys, grid_points, message):
    # 316 ** 2 points fit in MAX_ROWS, 317 ** 2 do not; the document reads
    # either, and the search refuses the grid before it evaluates a point
    payload = {
        "model": {"variant": "special_bs"},
        "free_parameters": {"R0": [0.5, 1.0], "comp_loss_r1": [0.5, 1.0]},
        "objective": "min_fidelity_gap",
    }
    assert 316**2 <= MAX_ROWS < 317**2
    config = _read(OptimizeConfig, dict(payload, grid_points=grid_points), "")
    assert config.grid_points == grid_points
    path = write_config(tmp_path, dict(payload, grid_points=grid_points))
    with mock.patch("pcclone.compensation.run_model_batch") as batch:
        assert main(["optimize", "--config", path]) == 2
    assert not batch.called
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: optimize: {message}\n"


def test_sweep_rows_match_per_row_evaluation():
    config = parse_experiment({
        "model": {"variant": "mach_zehnder", "theta_V": 0.8, "theta_H": 2.3},
        "sweep": {"theta": {"start": 0.0, "stop": math.pi, "count": 5},
                  "phi": [0.0, 1.0, 4.0]},
    })
    rows = as_rows(run_experiment(config))
    assert len(rows) == 15
    for row, qubit in zip(rows, row_inputs(config), strict=True):
        report = run_model(config.model, qubit)
        assert row["P_succ"] == pytest.approx(report.P_succ, abs=1e-12)
        assert row["F1"] == pytest.approx(report.F1, abs=1e-12)
        assert row["F2"] == pytest.approx(report.F2, abs=1e-12)


def test_counted_rows_reuse_the_batch_evaluation(monkeypatch):
    def evaluate_again(*args):
        raise AssertionError("a counted row was evaluated a second time")

    monkeypatch.setattr("pcclone.counting.run_model_batch", evaluate_again)
    config = parse_experiment({
        "model": {"variant": "hybrid", "eta0": 0.7},
        "noise": {"overlap_M": 0.9},
        "sweep": {"phi": [0.0, 2.0]},
        "counting": {"n_pairs": 1000, "seed": 3},
    })
    rows = as_rows(run_experiment(config))
    assert [row["C_pp"] + row["C_pm"] + row["C_mp"] + row["C_mm"] > 0 for row in rows] \
        == [True, True]


@pytest.mark.parametrize("noise", [
    {}, {"overlap_M": 0.9}, {"overlap_M": 0.95, "phase_jitter_sigma": 0.05},
], ids=["M=1", "M<1", "jitter"])
@pytest.mark.parametrize("variant", sorted(ClonerParams.variants))
def test_counted_rows_equal_simulate_counts_for_their_row_seed(variant, noise):
    config = parse_experiment({
        "model": {"variant": variant},
        "noise": noise,
        "sweep": {"theta": [0.4, 1.5], "phi": [0.0, 2.5]},
        "counting": {"n_pairs": 5000, "seed": 8,
                     "detectors": {"eta_1p": 0.9, "eta_2m": 0.8}},
    })
    counting = config.counting
    rows = as_rows(run_experiment(config))
    for row, qubit, seed in zip(rows, row_inputs(config), _row_seeds(8, len(rows)),
                                strict=True):
        record = simulate_counts(config.model, config.noise, qubit, counting.n_pairs,
                                 counting.detectors, seed)
        assert CoincidenceRecord(row["C_pp"], row["C_pm"], row["C_mp"], row["C_mm"],
                                 counting.n_pairs, seed) == record
        # the estimate columns, divided as arrays, carry the record's bits
        assert (row["F1_hat"], row["F2_hat"]) == (fidelity_from_counts(record) or (None, None))
        assert row["P_hat"] == success_probability_estimate(record)


def test_jitter_rows_are_counted_on_the_states_the_sweep_holds(monkeypatch):
    # phi = -1e-300 is held as 2 pi; reducing that again would give 0
    states = []

    def count(model, noise, qubit, n_pairs, w, eff, seed):
        states.append((qubit.theta, qubit.phi))
        return np.zeros(4, dtype=np.int64)

    monkeypatch.setattr("pcclone.counting._jitter_counts", count)
    config = parse_experiment({
        "model": {"variant": "mach_zehnder"},
        "noise": {"phase_jitter_sigma": 0.05},
        "sweep": {"theta": [0.4, 1.5], "phi": [-1e-300, 2.5]},
        "counting": {"n_pairs": 10},
    })
    run_experiment(config)
    assert states == list(zip(config.inputs.theta.tolist(), config.inputs.phi.tolist()))
    assert states[0][1] == 2 * math.pi


def test_negative_counting_seed_exits_2(tmp_path, capsys):
    config = dict(ideal_single())
    config["counting"] = {"n_pairs": 100, "seed": -1}
    assert main(["run", "--config", write_config(tmp_path, config)]) == 2
    assert "counting.seed" in capsys.readouterr().err
    config["counting"]["seed"] = 3
    path = write_config(tmp_path, config, "seeded.json")
    for command in ("run", "montecarlo"):
        assert main([command, "--config", path, "--seed", "-3"]) == 2
        assert "counting.seed must be >= 0, got -3" in capsys.readouterr().err


def test_overflowing_jitter_walk_exits_2(tmp_path, capsys):
    config = {"model": {"variant": "mach_zehnder"},
              "input": {"theta": 1.0, "phi": 0.3},
              "noise": {"phase_jitter_sigma": 1e307, "jitter_reset_period": 1000},
              "counting": {"n_pairs": 1000, "seed": 0}}
    assert main(["montecarlo", "--config", write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert "noise.phase_jitter_sigma" in captured.err
    assert captured.out == ""


def test_sizes_over_the_caps_end_in_exit_2(tmp_path, capsys):
    # parsing only: nothing is simulated and no row is built at a cap
    for n_pairs in (MAX_PAIRS + 1, 2**64):
        config = dict(ideal_single(), counting={"n_pairs": n_pairs})
        with pytest.raises(ConfigError, match="counting.n_pairs must lie in"):
            parse_experiment(config)
    config = dict(ideal_single(), counting={"n_pairs": 2**64})
    assert main(["montecarlo", "--config", write_config(tmp_path, config)]) == 2
    assert "counting.n_pairs" in capsys.readouterr().err
    over = {"start": 0.0, "stop": 1.0, "count": MAX_ROWS + 1}
    with pytest.raises(ConfigError, match="sweep.phi.count: must lie in"):
        parse_experiment({"model": {"variant": "fiber"}, "sweep": {"phi": over}})
    # two small axes within the cap whose product of rows is not
    grid = {"theta": {"start": 0.0, "stop": 1.0, "count": MAX_ROWS // 1000 + 1},
            "phi": {"start": 0.0, "stop": 1.0, "count": 1000}}
    with pytest.raises(ConfigError, match="sweep: at most"):
        parse_experiment({"model": {"variant": "fiber"}, "sweep": grid})


def test_cli_empty_out_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, ideal_single())
    assert main(["run", "--config", path, "--out", ""]) == 2
    assert "output.path must be a non-empty string" in capsys.readouterr().err


def test_config_classes_check_their_values():
    with pytest.raises(ValueError, match="n_pairs"):
        CountingOptions(n_pairs=0)
    with pytest.raises(ValueError, match="n_pairs"):
        CountingOptions(n_pairs=MAX_PAIRS + 1, detectors=DetectorBank())
    with pytest.raises(ValueError, match="seed"):
        CountingOptions(n_pairs=10, seed=-1)
    with pytest.raises(ValueError, match="format"):
        OutputOptions(format="xml")
    with pytest.raises(ValueError, match="path"):
        OutputOptions(path="")
