"""Seeded CLI outputs frozen as files.

Each case runs one subcommand on ``tests/golden/<name>.json`` and compares
the bytes written with ``tests/golden/<name>.out``.  The expected files
were produced by the program before its closed-form and counting paths were
restructured; a refactor must reproduce them exactly.  A mismatch is a
change of behaviour to be fixed in the code, not in the file.
"""

import json
import time
from pathlib import Path

import pytest

from pcclone import cli, noise
from pcclone.cli import main
from pcclone.compensation import MAX_MOVES

GOLDEN = Path(__file__).parent / "golden"

#: name -> (subcommand, extra command-line arguments)
CASES = {
    "run_special_bs": ("run", []),
    "run_fiber_counting": ("run", []),
    "sweep_mach_zehnder": ("sweep", []),
    "sweep_special_bs_hom": ("sweep", []),
    "sweep_mach_zehnder_hom": ("sweep", ["--format", "json"]),
    "sweep_hybrid_hom": ("sweep", []),
    "sweep_fiber_hom": ("sweep", []),
    "montecarlo_hybrid_hom": ("montecarlo", []),
    "montecarlo_special_bs_hom": ("montecarlo", ["--seed", "17"]),
    "montecarlo_mach_zehnder_jitter": ("montecarlo", []),
    "montecarlo_fiber_jitter_hom": ("montecarlo", []),
    "montecarlo_mach_zehnder_chunks": ("montecarlo", []),
    "montecarlo_fiber_long_period": ("montecarlo", []),
    # R0 = 1 with two dead detectors: empty F1_hat/F2_hat cells, integer-valued
    # and tiny floats, in both formats
    "montecarlo_special_bs_empty": ("montecarlo", []),
    "montecarlo_special_bs_empty_json": ("montecarlo", ["--format", "json"]),
    "compare_variants": ("compare", ["--seed", "9"]),
    "optimize_hybrid_gap": ("optimize", []),
    "optimize_mach_zehnder_avg": ("optimize", []),
    "optimize_fiber_gap": ("optimize", []),
    "optimize_fiber_avg": ("optimize", []),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, tmp_path):
    subcommand, extra = CASES[name]
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(GOLDEN / f"{name}.json"),
                 "--out", str(out), *extra])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


#: the cases that count under phase jitter
JITTER_CASES = [
    "montecarlo_mach_zehnder_jitter",
    "montecarlo_fiber_jitter_hom",
    "montecarlo_mach_zehnder_chunks",
    "montecarlo_fiber_long_period",
]


@pytest.mark.parametrize("chunk", [1000, 1 << 16])
@pytest.mark.parametrize("name", JITTER_CASES)
def test_jitter_output_does_not_depend_on_the_piece_size(name, chunk, tmp_path,
                                                         monkeypatch):
    # every trial's phase and uniform draw are the same whatever the size of
    # the pieces the walk is drawn in, so the counts are too
    monkeypatch.setattr(noise, "_CHUNK", chunk)
    test_cli_output_matches_golden_file(name, tmp_path)


# ---------------------------------------------------------------------------
# one process, one parser: every call reads only its own argv
# ---------------------------------------------------------------------------

def run_case(name, out, *extra):
    """Exit code of the golden case ``name`` written to ``out``, after ``extra``."""
    subcommand, case_extra = CASES[name]
    return main([subcommand, "--config", str(GOLDEN / f"{name}.json"),
                 "--out", str(out), *case_extra, *extra])


def test_one_process_runs_every_case_forward_and_back(tmp_path):
    out = tmp_path / "out"
    for name in [*sorted(CASES), *reversed(sorted(CASES))]:
        assert run_case(name, out) == 0, name
        assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes(), name
    assert cli.build_parser() is cli.build_parser()


def test_a_seed_override_does_not_reach_the_next_call(tmp_path):
    out = tmp_path / "out"
    fixture = (GOLDEN / "montecarlo_hybrid_hom.out").read_bytes()
    assert run_case("montecarlo_hybrid_hom", out, "--seed", "6") == 0  # the file says 5
    assert out.read_bytes() != fixture
    assert run_case("montecarlo_hybrid_hom", out) == 0
    assert out.read_bytes() == fixture


def test_argparse_exits_after_a_successful_call(tmp_path, capsys):
    assert run_case("run_special_bs", tmp_path / "out") == 0
    config = str(GOLDEN / "run_special_bs.json")
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", config])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    shown = capsys.readouterr().out.splitlines()
    for name, (_, text) in cli.COMMANDS.items():
        assert f"  {name:<12}{text}" in shown


# ---------------------------------------------------------------------------
# golden documents with one field pushed to an edge
# ---------------------------------------------------------------------------

def edited_case(name, tmp_path, edit):
    """Path of golden document ``name`` after ``edit`` changed its dict."""
    document = json.loads((GOLDEN / f"{name}.json").read_text())
    edit(document)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document))
    return str(path)


def test_a_reset_period_past_the_pairs_prints_the_walk_without_resets(tmp_path, capsys):
    name = "montecarlo_mach_zehnder_jitter"
    n_pairs = json.loads((GOLDEN / f"{name}.json").read_text())["counting"]["n_pairs"]
    outputs = []
    for period in (10**30, n_pairs):
        def edit(document):
            document["noise"]["jitter_reset_period"] = period

        assert main(["montecarlo", "--config", edited_case(name, tmp_path, edit),
                     "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_an_optimize_with_no_coincidence_exits_2(tmp_path, capsys):
    def edit(document):
        document["model"]["eta0"] = 0

    path = edited_case("optimize_hybrid_gap", tmp_path, edit)
    assert main(["optimize", "--config", path, "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: optimize: ")
    assert captured.err.count("\n") == 1


def test_an_optimize_over_a_vast_interval_stops_at_its_budget(tmp_path, capsys):
    # near 1e30 adjacent floats lie far more than a period of theta_H apart:
    # the compass crawls on noise until the budget ends it
    def edit(document):
        document["free_parameters"]["theta_H"][1] = 1e30

    path = edited_case("optimize_mach_zehnder_avg", tmp_path, edit)
    began = time.perf_counter()
    assert main(["optimize", "--config", path, "--out", "-"]) == 0
    assert time.perf_counter() - began < 1.0
    captured = capsys.readouterr()
    assert json.loads(captured.out)[0]["objective"] == "max_avg_fidelity"
    assert captured.err == (f"warning: optimize: the search stopped after {MAX_MOVES} "
                            "accepted moves; the row is its incumbent\n")
