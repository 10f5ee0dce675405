import json
import math

import numpy as np
import pytest

from pcclone.cli import main
from pcclone.cloners import ClonerParams, run_model
from pcclone.counting import MAX_PAIRS, CoincidenceRecord, DetectorBank, simulate_counts
from pcclone.experiment import (
    MAX_ROWS,
    ConfigError,
    CountingOptions,
    OptimizeConfig,
    OutputOptions,
    _read,
    _row_seeds,
    compare_experiments,
    parse_experiment,
    parse_rows,
    render_rows,
    run_experiment,
)

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


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def test_run_single_ideal_row():
    rows = run_experiment(parse_experiment(ideal_single()))
    assert len(rows) == 1
    assert rows[0]["F1"] == pytest.approx(0.8535533905932737, abs=1e-9)
    assert rows[0]["P_succ"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert "C_pp" not in rows[0]


def test_phase_sweep_is_flat_for_ideal_fiber():
    config = {
        "model": {"variant": "fiber"},
        "sweep": {"phi": {"start": 0.0, "stop": 6.2, "count": 32}},
    }
    rows = run_experiment(parse_experiment(config))
    assert len(rows) == 32
    values = [row["F1"] for row in rows]
    assert max(values) - min(values) < 1e-9


def test_phase_sweep_with_distinguishability_below_universal():
    config = {
        "model": {"variant": "special_bs"},
        "noise": {"overlap_M": math.sqrt(0.92)},
        "sweep": {"phi": [0.0, 1.0, 2.0, 3.0]},
    }
    rows = run_experiment(parse_experiment(config))
    averages = [(row["F1"] + row["F2"]) / 2 for row in rows]
    assert max(averages) - min(averages) < 1e-9
    assert all(value < 5.0 / 6.0 for value in averages)


def test_theta_sweep_decreases_to_equator():
    config = {
        "model": {"variant": "special_bs"},
        "sweep": {"theta": {"start": 0.0, "stop": math.pi / 2, "count": 10},
                  "phi": 0.0},
    }
    rows = run_experiment(parse_experiment(config))
    values = [row["F1"] for row in rows]
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert values[-1] == pytest.approx(0.8535533905932737, abs=1e-9)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_counting_columns_present_and_consistent():
    config = dict(ideal_single())
    config["counting"] = {"n_pairs": 20_000, "seed": 9}
    rows = run_experiment(parse_experiment(config))
    row = rows[0]
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
    rows = compare_experiments(configs)
    assert [row["label"] for row in rows] == ["special", "hybrid", "fiber"]
    for row in rows:
        assert row["F1_mean"] == pytest.approx(0.8535533905932737, abs=1e-9)
    assert rows[0]["P_succ"] == pytest.approx(1 / 3, abs=1e-9)
    assert rows[1]["P_succ"] == pytest.approx(1 / 16, abs=1e-9)
    assert rows[2]["P_succ"] == pytest.approx(1 / 3, abs=1e-9)


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
    rows = compare_experiments(configs)
    assert rows[0]["F1_mean"] == pytest.approx(0.8536, abs=1e-4)
    assert rows[1]["F1_mean"] == pytest.approx(0.8333, abs=1e-4)


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
    rows = run_experiment(parse_experiment(config))
    for fmt in ("csv", "json"):
        text = render_rows(rows, fmt)
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
    rows = run_experiment(parse_experiment(ideal_single()))
    csv_rows = parse_rows(render_rows(rows, "csv"), "csv")
    json_rows = parse_rows(render_rows(rows, "json"), "json")
    for a, b in zip(csv_rows, json_rows):
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-10)


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
    assert "objective" in capsys.readouterr().err


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


def test_optimize_grid_over_the_cap_exits_2(tmp_path, capsys):
    # parsing only: 316 ** 2 points fit in MAX_ROWS, 317 ** 2 do not
    payload = {
        "model": {"variant": "special_bs"},
        "free_parameters": {"R0": [0.5, 1.0], "comp_loss_r1": [0.5, 1.0]},
        "objective": "min_fidelity_gap",
    }
    assert 316**2 <= MAX_ROWS < 317**2
    assert _read(OptimizeConfig, dict(payload, grid_points=316), "").grid_points == 316
    with pytest.raises(ConfigError, match=f"grid_points \\*\\* 2 .* {MAX_ROWS}, got 317"):
        _read(OptimizeConfig, dict(payload, grid_points=317), "")
    path = write_config(tmp_path, dict(payload, grid_points=317))
    assert main(["optimize", "--config", path]) == 2
    assert "grid_points" in capsys.readouterr().err


def test_sweep_rows_match_per_row_evaluation():
    config = parse_experiment({
        "model": {"variant": "mach_zehnder", "theta_V": 0.8, "theta_H": 2.3},
        "sweep": {"theta": {"start": 0.0, "stop": math.pi, "count": 5},
                  "phi": [0.0, 1.0, 4.0]},
    })
    rows = run_experiment(config)
    assert len(rows) == 15
    for row, qubit in zip(rows, config.inputs):
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
    rows = run_experiment(config)
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
    rows = run_experiment(config)
    for row, qubit, seed in zip(rows, config.inputs, _row_seeds(8, len(rows))):
        record = simulate_counts(config.model, config.noise, qubit, counting.n_pairs,
                                 counting.detectors, seed)
        assert CoincidenceRecord(row["C_pp"], row["C_pm"], row["C_mp"], row["C_mm"],
                                 counting.n_pairs, seed) == record


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
    model = parse_experiment(ideal_single()).model
    with pytest.raises(ValueError, match="objective"):
        OptimizeConfig(model, {"R0": (0.5, 1.0)}, "fastest")
    with pytest.raises(ValueError, match="grid_points"):
        OptimizeConfig(model, {"R0": (0.5, 1.0)}, "min_fidelity_gap", grid_points=1)
