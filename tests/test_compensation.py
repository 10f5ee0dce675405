import math

import numpy as np
import pytest

from pcclone.cloners import (
    R_OPTIMAL,
    HybridParams,
    SpecialBSParams,
    FiberParams,
    run_model,
)
from pcclone.compensation import (
    optimize_symmetry,
    solve_hybrid_compensation,
    solve_ideal_reflectance,
)
from pcclone.fock import Qubit

EQ = Qubit.equatorial(0.0)
F_PC = 0.8535533905932737


def equatorial_fidelity(r0_intensity):
    """Closed-form equatorial fidelity of the complementary-ratio splitter."""
    a = 2 * r0_intensity - 1
    b = math.sqrt(r0_intensity * (1 - r0_intensity))
    return 0.5 + a * b / (a * a + 2 * b * b)


# ---------------------------------------------------------------------------
# optimal reflectance
# ---------------------------------------------------------------------------

def test_reflectance_value_and_polynomial():
    r = solve_ideal_reflectance()
    assert r == pytest.approx(0.7886751346, abs=1e-9)
    assert abs(6 * r * r - 6 * r + 1) < 1e-12
    assert 0.5 < r <= 1.0
    assert (1 - r) == pytest.approx(0.2113248654, abs=1e-9)


def test_reflectance_satisfies_design_constraints():
    r = solve_ideal_reflectance()
    r0, t0 = math.sqrt(r), math.sqrt(1 - r)
    r1, t1 = math.sqrt(1 - r), -math.sqrt(r)
    assert abs(r0 * r1 + t0 * t1) < 1e-12
    assert abs((r0 * r0 - t0 * t0) - math.sqrt(2) * r0 * r1) < 1e-12
    assert (2 * r - 1) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# hybrid glass-plate compensation
# ---------------------------------------------------------------------------

def test_compensation_balanced_splitter():
    amp = math.sqrt(0.5)
    solution = solve_hybrid_compensation(amp, amp, amp, amp)
    assert solution.nu_ratio == pytest.approx(1.0, abs=1e-12)
    assert solution.eta_ratio == pytest.approx(math.sqrt(2.0), abs=1e-12)
    eta0, eta1, nu0, nu1 = solution.capped_values
    assert eta1 == 1.0 and nu0 == 1.0 and nu1 == 1.0
    assert eta0 == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert solution.predicted.F1 == pytest.approx(F_PC, abs=1e-10)


def test_compensation_skewed_splitter():
    r0, t0 = math.sqrt(0.52), math.sqrt(0.48)
    r1, t1 = math.sqrt(0.48), math.sqrt(0.52)
    solution = solve_hybrid_compensation(r0, t0, r1, t1)
    assert solution.nu_ratio == pytest.approx(0.52 / 0.48, abs=1e-9)
    assert solution.eta_ratio == pytest.approx(
        math.sqrt(2.0) * math.sqrt(0.52 / 0.48), abs=1e-9
    )
    assert solution.nu_ratio == pytest.approx(1.08333, abs=1e-5)
    assert solution.eta_ratio == pytest.approx(1.47196, abs=1e-5)
    assert abs(solution.predicted.F1 - solution.predicted.F2) < 1e-10


def test_compensation_symmetrizes_random_splitters():
    rng = np.random.default_rng(31)
    for _ in range(20):
        r0 = rng.uniform(0.6, 0.8)
        r1 = rng.uniform(0.6, 0.8)
        t0 = math.sqrt(1 - r0 * r0)
        t1 = math.sqrt(1 - r1 * r1)
        solution = solve_hybrid_compensation(r0, t0, r1, t1)
        report = solution.predicted
        assert abs(report.F1 - report.F2) < 1e-10
        eta0, eta1, nu0, nu1 = solution.capped_values
        assert max(eta0, eta1) == 1.0
        assert max(nu0, nu1) == 1.0
        assert eta1 / eta0 == pytest.approx(solution.eta_ratio, abs=1e-12)
        assert nu0 / nu1 == pytest.approx(solution.nu_ratio, abs=1e-12)
        again = run_model(
            HybridParams(
                r0=r0, t0=t0, r1=r1, t1=t1,
                eta0=eta0, eta1=eta1, nu0=nu0, nu1=nu1,
            ),
            Qubit.equatorial(2.2),
        )
        assert abs(again.F1 - again.F2) < 1e-10


def test_compensation_rejects_zero_amplitude():
    with pytest.raises(ValueError, match="r1"):
        solve_hybrid_compensation(0.7, math.sqrt(1 - 0.49), 0.0, 1.0)


# ---------------------------------------------------------------------------
# numeric symmetrization
# ---------------------------------------------------------------------------

def test_optimizer_symmetrizes_mismatched_splitter():
    base = SpecialBSParams(R0=0.80, R1=1.0 - R_OPTIMAL)
    uncompensated = run_model(base, EQ)
    assert abs(uncompensated.F1 - uncompensated.F2) > 1e-3
    result = optimize_symmetry(base, {"comp_loss_r1": (0.5, 1.0)},
                               "min_fidelity_gap")
    assert result.objective_value < 1e-6
    assert abs(result.report.F1 - result.report.F2) < 1e-6
    assert result.report.P_succ < uncompensated.P_succ


def test_optimizer_keeps_already_symmetric_model():
    result = optimize_symmetry(
        SpecialBSParams.ideal(), {"comp_loss_r1": (0.5, 1.0)}, "min_fidelity_gap"
    )
    assert abs(result.params.comp_loss_r1 - 1.0) < 1e-6
    assert result.objective_value < 1e-12


def test_optimizer_finds_optimal_reflectance():
    # oracle: scan the closed-form fidelity at 1e-6 resolution
    grid = np.linspace(0.5, 1.0, 500_001)
    a = 2 * grid - 1
    b = np.sqrt(np.clip(grid * (1 - grid), 0.0, None))
    with np.errstate(invalid="ignore"):
        f = 0.5 + a * b / (a * a + 2 * b * b)
    scan_best = grid[np.nanargmax(f)]
    assert abs(scan_best - R_OPTIMAL) < 2e-6

    result = optimize_symmetry(
        SpecialBSParams(R0=0.6), {"R0": (0.5, 1.0)}, "max_avg_fidelity"
    )
    assert abs(result.params.R0 - R_OPTIMAL) < 1e-4
    assert -result.objective_value == pytest.approx(F_PC, abs=1e-9)


def test_optimizer_monotone_refinement():
    base = SpecialBSParams(R0=0.9)
    grid_points = 9
    lo, hi = 0.5, 1.0
    grid = [lo + k * (hi - lo) / (grid_points - 1) for k in range(grid_points)]
    best_grid = max(
        equatorial_fidelity(r) for r in grid
    )
    result = optimize_symmetry(
        base, {"R0": (lo, hi)}, "max_avg_fidelity", grid_points=grid_points
    )
    assert -result.objective_value >= best_grid - 1e-15


def test_optimizer_validates_arguments():
    with pytest.raises(ValueError, match="free_parameters"):
        optimize_symmetry(SpecialBSParams.ideal(), {}, "min_fidelity_gap")
    with pytest.raises(ValueError, match="unknown parameter"):
        optimize_symmetry(SpecialBSParams.ideal(), {"bogus": (0, 1)},
                          "min_fidelity_gap")
    with pytest.raises(ValueError, match="empty search interval"):
        optimize_symmetry(SpecialBSParams.ideal(), {"R0": (0.9, 0.2)},
                          "min_fidelity_gap")
    with pytest.raises(ValueError, match="objective"):
        optimize_symmetry(SpecialBSParams.ideal(), {"R0": (0.5, 1.0)}, "fastest")


@pytest.mark.parametrize(
    "model, name",
    [(SpecialBSParams.ideal(), "R1"), (FiberParams.ideal(), "R_vrc1"),
     (FiberParams.ideal(), "analysis_phases")],
)
def test_optimizer_rejects_parameter_without_real_start(model, name):
    with pytest.raises(ValueError, match=name):
        optimize_symmetry(model, {name: (0.1, 0.4)}, "min_fidelity_gap")
