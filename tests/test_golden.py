"""Seeded CLI outputs frozen as files.

Each case runs one subcommand on ``tests/golden/<name>.json`` and compares
the bytes written with ``tests/golden/<name>.out``.  The expected files
were produced by the program before its closed-form and counting paths were
restructured; a refactor must reproduce them exactly.  A mismatch is a
change of behaviour to be fixed in the code, not in the file.
"""

from pathlib import Path

import pytest

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
