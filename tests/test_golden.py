"""Seeded CLI outputs frozen as files.

Each case runs one subcommand on ``tests/golden/<name>.json`` and compares
the bytes written with ``tests/golden/<name>.out``.  The expected files
were produced by the program before its closed-form and counting paths were
restructured; a refactor must reproduce them exactly.  A mismatch is a
change of behaviour to be fixed in the code, not in the file.
"""

from pathlib import Path

import pytest

from pcclone import noise
from pcclone.cli import main

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
