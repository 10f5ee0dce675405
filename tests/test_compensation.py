import math
import re
import sys
import time
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloner_strategies import PARAMS, QUBITS, VARIANTS
from pcclone import compensation
from pcclone.cloners import (
    MAX_ROWS,
    R_OPTIMAL,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
    FiberParams,
    run_model,
    run_model_batch,
)
from pcclone.compensation import (
    OBJECTIVES,
    _objective_function,
    optimize_symmetry,
    solve_hybrid_compensation,
)
from pcclone.fock import Port, Qubit

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
    r = R_OPTIMAL
    assert r == pytest.approx(0.7886751346, abs=1e-9)
    assert abs(6 * r * r - 6 * r + 1) < 1e-12
    assert 0.5 < r <= 1.0
    assert (1 - r) == pytest.approx(0.2113248654, abs=1e-9)


def test_reflectance_satisfies_design_constraints():
    r = R_OPTIMAL
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
    with pytest.raises(ValueError, match="'theta_H' is too wide"):
        optimize_symmetry(MachZehnderParams.ideal(), {"theta_H": (-1e308, 1e308)})
    with pytest.raises(ValueError, match="objective"):
        optimize_symmetry(SpecialBSParams.ideal(), {"R0": (0.5, 1.0)}, "fastest")


@pytest.mark.parametrize("interval, message", [
    (("0.7", "0.85"), "must be a real number, got '0.7'"),
    ((0.7, 0.85, "junk"), "must be a tuple of two finite numbers, got (0.7, 0.85, 'junk')"),
    ((0.7, True), "must be a real number, got True"),
    ((0.7, np.array([0.85])), "must be a real number, got array([0.85])"),
    ((0.7, math.inf), "must be finite, got inf"),
    ([0.7, 0.85], "must be a tuple of two finite numbers, got [0.7, 0.85]"),
])
def test_optimizer_reads_each_interval_as_two_finite_numbers(interval, message):
    # float() would parse a string and a third item would go unread
    with pytest.raises(ValueError) as error:
        optimize_symmetry(SpecialBSParams.ideal(), {"R0": interval}, "min_fidelity_gap")
    assert str(error.value) == f"search interval for 'R0' {message}"


#: searches whose candidates leave a field's domain, the message that names
#: the first bad value, and the rows of the batches evaluated before it
INVALID_CANDIDATES = {
    # r0 = ±sqrt(1/2) with t0 = sqrt(1/2) is lossless, so the grid passes; the
    # ladder's first move, r0 = 0, is not
    "lossless-pair": ((HybridParams(), {"r0": (-math.sqrt(0.5), math.sqrt(0.5))}, 2),
                      "(r0, t0) must satisfy r^2 + t^2 = 1, got 0.5000000000000001", [3]),
    "plate-in-grid": ((HybridParams(), {"eta0": (0.5, 1.2)}, 33),
                      "eta0 must lie in [0, 1], got 1.0031249999999998", []),
    # both columns leave [0, 1] at 1.025; the model checks R0 first
    "first-checked-field": ((SpecialBSParams(R0=0.8, R1=0.2),
                             {"comp_loss_r1": (0.5, 1.2), "R0": (0.5, 1.2)}, 5),
                            "R0 must lie in [0, 1], got 1.025", []),
}


@pytest.mark.parametrize("case", list(INVALID_CANDIDATES))
def test_optimizer_rejects_invalid_candidates(case):
    (model, free, grid_points), message, rows = INVALID_CANDIDATES[case]
    batches = []

    def evaluate(params, inputs, *rest):
        batch = run_model_batch(params, inputs, *rest)
        batches.append(len(batch.P_succ))
        return batch

    with mock.patch.object(compensation, "run_model_batch", evaluate):
        with pytest.raises(ValueError) as error:
            optimize_symmetry(model, free, grid_points=grid_points)
    assert str(error.value) == message
    assert batches == rows


@pytest.mark.parametrize(
    "model, name",
    [(SpecialBSParams.ideal(), "R1"), (FiberParams.ideal(), "R_vrc1"),
     (FiberParams.ideal(), "analysis_phases")],
)
def test_optimizer_rejects_parameter_without_real_start(model, name):
    with pytest.raises(ValueError, match=name):
        optimize_symmetry(model, {name: (0.1, 0.4)}, "min_fidelity_gap")


@pytest.mark.parametrize(
    "model, name",
    [(SpecialBSParams.ideal(), "sign_convention"),
     (FiberParams(analysis_phases=(0.0, 0.5)), "analysis_phases")],
)
def test_optimizer_free_parameters_must_be_float_fields(model, name):
    # decided by the field's annotation, even where the value is a number
    with pytest.raises(ValueError, match=f"'{name}' must be a float field"):
        optimize_symmetry(model, {name: (-1.0, 1.0)}, "min_fidelity_gap")


def test_optimizer_grid_is_capped():
    # rejected before any candidate is built
    with pytest.raises(ValueError, match=f"grid_points \\*\\* 1 .* {MAX_ROWS}"):
        optimize_symmetry(SpecialBSParams.ideal(), {"R0": (0.5, 1.0)},
                          grid_points=MAX_ROWS + 1)
    with pytest.raises(ValueError, match="grid_points \\*\\* 2"):
        optimize_symmetry(SpecialBSParams.ideal(),
                          {"R0": (0.5, 1.0), "comp_loss_r1": (0.5, 1.0)},
                          grid_points=317)
    with pytest.raises(ValueError, match="grid_points must be >= 2"):
        optimize_symmetry(SpecialBSParams.ideal(), {"R0": (0.5, 1.0)}, grid_points=1)


@pytest.mark.parametrize("grid_points", [2.5, 33.0, True, "33", None])
def test_optimizer_grid_points_must_be_an_integer(grid_points):
    # 2.5 would build np.arange(2.5): three points, at a step nobody asked for
    message = f"grid_points must be an integer, got {grid_points!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize_symmetry(SpecialBSParams.ideal(), {"R0": (0.5, 1.0)}, grid_points=grid_points)


def test_optimizer_takes_a_numpy_integer_grid():
    model, free = SpecialBSParams(R0=0.6), {"R0": (0.5, 1.0)}
    result = optimize_symmetry(model, free, grid_points=np.int64(5))
    reference = optimize_symmetry(model, free, grid_points=5)
    assert (result.params, result.objective_value, result.evaluations) \
        == (reference.params, reference.objective_value, reference.evaluations)


def test_a_numpy_integer_grid_over_the_cap_is_refused():
    # np.int64(2**16) ** 4 wraps to 0, which a cap on the numpy power would pass
    free = dict.fromkeys(["eta0", "eta1", "nu0", "nu1"], (0.5, 1.0))
    with pytest.raises(ValueError, match=f"grid_points \\*\\* 4 .* {MAX_ROWS}, got 65536"):
        optimize_symmetry(HybridParams(), free, grid_points=np.int64(2**16))


@pytest.mark.parametrize("shape", [(34,), (1,)])
def test_optimizer_refuses_a_batch_input(shape):
    # a search scores every candidate against one input, as run_model does
    input = Qubit(np.full(shape, 1.1), np.full(shape, 0.7))
    message = f"input must be one state, got a batch of shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        optimize_symmetry(SpecialBSParams(R0=0.8, R1=0.2), {"comp_loss_r1": (0.5, 1.0)},
                          input=input)


def test_a_batch_runs_only_the_checks_that_read_a_free_field(monkeypatch):
    # r0 is pinned at its lossless value: its own rule and the (r0, t0) rule
    # read it; the fixed fields passed their checks when the model was built
    reads = []

    def spy(check):
        def run(*args):
            reads.append(args[:len(args) // 2])
            return check(*args)
        return run

    checks = HybridParams._checks
    monkeypatch.setattr(HybridParams, "_checks",
                        tuple((spy(check), *names) for check, *names in checks))
    model = HybridParams(eta0=0.6)
    reads.clear()
    free = {"eta0": (0.4, 1.0), "r0": (math.sqrt(0.5), math.sqrt(0.5))}
    result, batches = batched_optimize(model, free, "max_avg_fidelity", grid_points=5)
    assert len(batches) > 5
    # the result's parameters passed their checks in their batch
    assert reads == [("r0",), ("r0", "t0"), ("eta0",)] * len(batches)
    assert vars(result.params) == vars(replace(model, eta0=result.params.eta0))


def same_field(a, b):
    return a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_checks_agree_with_replace(variant, data):
    # each batch's candidates hold the fields replace() would build, or raise
    # its message: intervals reach past [0, 1] and break lossless pairs
    model = data.draw(PARAMS[variant])
    names = data.draw(st.lists(
        st.sampled_from(sorted(n for n in compensation._float_fields(type(model))
                               if getattr(model, n) is not None)),
        min_size=1, max_size=2, unique=True))
    free = {name: tuple(sorted(data.draw(st.lists(st.floats(-0.5, 1.5), min_size=2,
                                                  max_size=2))))
            for name in names}
    run_checks = compensation._run_checks
    batches = []

    def checked(checks, values):
        columns = {name: values[name] for name in names}
        outcomes = []
        for build in (lambda: vars(replace(model, **columns)),
                      lambda: run_checks(checks, values) or values):
            try:
                outcomes.append(build())
            except ValueError as error:
                outcomes.append(str(error))
        expected, got = outcomes
        batches.append(expected)
        if isinstance(expected, str):
            assert got == expected
            raise ValueError(got)
        assert got.keys() == expected.keys()
        assert all(same_field(got[name], expected[name]) for name in expected)

    with mock.patch.object(compensation, "_run_checks", checked), \
            mock.patch.object(compensation, "REFINE_TOL", 1e-2):
        try:
            optimize_symmetry(model, free, grid_points=3)
        except ValueError as error:
            assert str(error) == batches[-1]
    assert batches


# ---------------------------------------------------------------------------
# the batched search against the scalar loop it replaced
# ---------------------------------------------------------------------------

def scalar_optimize(model, free_parameters, objective="min_fidelity_gap",
                    input=None, grid_points=33):
    """The optimizer walked one scalar ``run_model`` call at a time.

    Returns (params, report, objective value, evaluations, accepted compass
    moves).  Like the batched search, it halves its steps while one exceeds
    ``REFINE_TOL`` and stops at the incumbent of its ``MAX_MOVES``-th
    accepted move, both read at call time.
    """
    score = _objective_function(objective)
    names = list(free_parameters)
    intervals = [tuple(map(float, free_parameters[n])) for n in names]
    target = input if input is not None else Qubit.equatorial(0.0)
    evaluations = 0
    accepted = 0

    def evaluate_point(values):
        nonlocal evaluations
        evaluations += 1
        candidate = replace(model, **dict(zip(names, values)))
        report = run_model(candidate, target)
        value = math.inf if report.is_empty else score(report.F1, report.F2)
        return value, candidate, report

    best_point = [getattr(model, n) for n in names]
    best_value, best_params, best_report = evaluate_point(best_point)
    axes = []
    for lo, hi in intervals:
        if hi == lo:
            axes.append([lo])
        else:
            step = (hi - lo) / (grid_points - 1)
            axes.append([min(hi, lo + k * step) for k in range(grid_points)])
    for point in product(*axes):
        value, candidate, report = evaluate_point(point)
        if value < best_value - 1e-15:
            best_value, best_params, best_report = value, candidate, report
            best_point = list(point)

    steps = [
        (hi - lo) / (grid_points - 1) if hi > lo else 0.0 for lo, hi in intervals
    ]
    while any(s > compensation.REFINE_TOL for s in steps):
        improved = False
        for axis, step in enumerate(steps):
            if step == 0.0:
                continue
            lo, hi = intervals[axis]
            for direction in (-1.0, 1.0):
                trial = list(best_point)
                trial[axis] = min(hi, max(lo, best_point[axis] + direction * step))
                if trial[axis] == best_point[axis]:
                    continue
                value, candidate, report = evaluate_point(trial)
                if value < best_value - 1e-15:
                    best_value, best_params, best_report = value, candidate, report
                    best_point = trial
                    improved = True
                    accepted += 1
                    if accepted == compensation.MAX_MOVES:
                        return best_params, best_report, best_value, evaluations, accepted
        if not improved:
            steps = [s / 2.0 for s in steps]
    return best_params, best_report, best_value, evaluations, accepted


def batched_optimize(*args, **kwargs):
    """``optimize_symmetry``, and the rows of each closed-form batch it ran."""
    batches = []

    def evaluate(params, inputs, *rest):
        batch = run_model_batch(params, inputs, *rest)
        batches.append(len(batch.P_succ))
        return batch

    with mock.patch.object(compensation, "run_model_batch", evaluate):
        return optimize_symmetry(*args, **kwargs), batches


def assert_same_result(result, reference):
    params, report, value, evaluations = reference
    assert (result.params, result.objective_value, result.evaluations) \
        == (params, value, evaluations)
    assert (result.report.input, result.report.P_succ, result.report.F1,
            result.report.F2) == (report.input, report.P_succ, report.F1, report.F2)
    if report.is_empty:
        assert result.report.is_empty
        return
    assert np.array_equal(result.report.joint.rho, report.joint.rho)
    for port in Port:
        assert np.array_equal(result.report.joint.reduced(port), report.joint.reduced(port))


def assert_matches_scalar_loop(model, free, objective="min_fidelity_gap", input=None,
                               grid_points=33):
    result, batches = batched_optimize(model, free, objective, input=input,
                                       grid_points=grid_points)
    *reference, accepted = scalar_optimize(model, free, objective, input, grid_points)
    assert_same_result(result, reference)
    # one batch for the grid, then one whole compass ladder per incumbent
    assert 1 + accepted <= len(batches) <= 2 + accepted
    assert max(batches) <= MAX_ROWS


MZ_OFFSET = MachZehnderParams(theta_V=1.0, theta_H=2.6, phase_offset_r0=0.3,
                              phase_offset_r1=-0.4)
TILTED = Qubit(1.1, 0.7)
REFERENCE_CASES = {
    "special_bs-1": (SpecialBSParams(R0=0.8, R1=0.2), {"comp_loss_r1": (0.5, 1.0)}),
    "special_bs-2": (SpecialBSParams(R0=0.8, R1=0.2),
                     {"comp_loss_r1": (0.5, 1.0), "R0": (0.7, 0.85)}),
    "special_bs-3": (SpecialBSParams(R0=0.8, R1=0.2),
                     {"comp_loss_r1": (0.5, 1.0), "R0": (0.7, 0.85), "R1": (0.1, 0.3)},
                     None, 7),
    "mach_zehnder-1": (MZ_OFFSET, {"theta_H": (2.0, 3.0)}),
    "mach_zehnder-2": (MZ_OFFSET, {"theta_V": (0.8, 1.3), "phase_offset_r1": (-1.0, 1.0)}),
    "mach_zehnder-3": (MZ_OFFSET, {"theta_V": (0.8, 1.3), "theta_H": (2.0, 3.0),
                                   "phase_offset_r0": (-1.0, 1.0)}, None, 7),
    "hybrid-1": (HybridParams(eta0=0.6), {"eta0": (0.4, 1.0)}),
    "hybrid-2": (HybridParams(eta0=0.6), {"eta0": (0.4, 1.0), "nu0": (0.5, 1.0)}),
    "hybrid-3": (HybridParams(eta0=0.6),
                 {"eta0": (0.4, 1.0), "nu0": (0.5, 1.0), "nu1": (0.5, 1.0)}, None, 7),
    "fiber-1": (FiberParams(R_vrc0=0.7), {"R_vrc0": (0.6, 0.9)}),
    "fiber-2": (FiberParams(R_vrc0=0.7, R_vrc1=0.25),
                {"R_vrc0": (0.6, 0.9), "R_vrc1": (0.1, 0.3)}),
    "fiber-3": (FiberParams(R_vrc0=0.7, R_vrc1=0.25),
                {"R_vrc0": (0.6, 0.9), "R_vrc1": (0.1, 0.3),
                 "detection_ratio_1": (0.4, 0.6)}, None, 7),
    # the |0> input leaves a 50:50 splitter empty: a grid holding P_succ = 0 rows
    "empty-rows": (SpecialBSParams(R0=0.6),
                   {"R0": (0.3, 0.7), "comp_loss_r0": (0.0, 1.0)}, Qubit(0.0, 0.0), 5),
    # the plate starts fully open, on the bound: the compass clamps there
    "start-on-bound": (SpecialBSParams(R0=0.8, R1=0.2), {"comp_loss_r0": (0.5, 1.0)}),
    # theta_V is pinned: the grid has one value on that axis and the compass
    # never moves it
    "degenerate": (MZ_OFFSET, {"theta_V": (1.0, 1.0), "theta_H": (2.0, 3.0)}),
    # the amplitudes never read a detection ratio: every point scores alike
    "detection-ratio": (FiberParams(R_vrc0=0.75), {"detection_ratio_1": (0.0, 0.5)}),
}


#: the reference searches, and two whose report row needs care
REPORT_CASES = {
    **REFERENCE_CASES,
    # one row for every point, from a second detection ratio, off the equator
    "detection-ratio-2": (FiberParams(R_vrc0=0.65, R_vrc1=0.3),
                          {"detection_ratio_2": (0.2, 0.8)}, TILTED, 9),
    # every plate closed: every point is empty, the start too
    "empty-incumbent": (SpecialBSParams(comp_loss_r0=0.0, comp_loss_r1=0.0),
                        {"R0": (0.3, 0.9)}, None, 9),
}


@pytest.mark.parametrize("objective", ["min_fidelity_gap", "max_avg_fidelity"])
@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_is_run_model_at_the_result(case, objective):
    # the report is the incumbent's row of its own batch: a grid row, the
    # start row or an improving ladder row, never a second evaluation
    model, free, *rest = REPORT_CASES[case]
    input, grid_points = rest if rest else (None, 33)
    result = optimize_symmetry(model, free, objective, input=input, grid_points=grid_points)
    expected = run_model(result.params, input or EQ)
    report = result.report
    assert report.input == expected.input
    assert (report.P_succ, report.F1, report.F2) == (expected.P_succ, expected.F1, expected.F2)
    assert report.is_empty == expected.is_empty == (case == "empty-incumbent")
    if not expected.is_empty:
        assert report.joint.rho.tobytes() == expected.joint.rho.tobytes()


@pytest.mark.parametrize("objective", ["min_fidelity_gap", "max_avg_fidelity"])
@pytest.mark.parametrize("input", [None, TILTED], ids=["equator", "tilted"])
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_batched_grid_matches_scalar_loop(case, input, objective):
    model, free, *rest = REFERENCE_CASES[case]
    grid_points = 33
    if rest:
        input = rest[0] or input
        grid_points = rest[1]
    assert_matches_scalar_loop(model, free, objective, input, grid_points)


def test_batched_grid_keeps_the_first_of_near_ties():
    # at the optimal reflectance the average fidelity is flat: the grid's
    # values differ by rounding only, and no later one beats the first by 1e-15
    model = SpecialBSParams(R0=0.6)
    free = {"R0": (R_OPTIMAL, R_OPTIMAL + 1e-12)}
    grid = [replace(model, R0=R_OPTIMAL + k * 1e-12 / 32) for k in range(33)]
    values = [-0.5 * (r.F1 + r.F2) for r in (run_model(p, EQ) for p in grid)]
    assert len(set(values)) > 1 and max(values) - min(values) < 1e-15
    assert_matches_scalar_loop(model, free, "max_avg_fidelity")


#: per variant, the float fields a search may free and the domain of their values
FREE_DOMAINS = {
    "special_bs": dict.fromkeys(["R0", "R1", "comp_loss_r0", "comp_loss_r1"], (0.0, 1.0)),
    "mach_zehnder": dict.fromkeys(
        ["theta_V", "theta_H", "phase_offset_r0", "phase_offset_r1"], (-3.5, 3.5)),
    "hybrid": dict.fromkeys(["eta0", "eta1", "nu0", "nu1"], (0.0, 1.0)),
    "fiber": dict.fromkeys(
        ["R_vrc0", "R_vrc1", "detection_ratio_1", "detection_ratio_2"], (0.0, 1.0)),
}


def test_every_variant_has_free_domains():
    assert set(FREE_DOMAINS) == set(VARIANTS)


@st.composite
def searches(draw, variant):
    """A model of ``variant``, 1-3 free fields and a grid size for them.

    Each interval lies in the field's domain.  It is drawn freely, or has the
    starting value as one bound, or is a single point.
    """
    model = draw(PARAMS[variant])
    domains = FREE_DOMAINS[variant]
    names = draw(st.lists(
        st.sampled_from([n for n in domains if getattr(model, n) is not None]),
        min_size=1, max_size=3, unique=True))
    free = {}
    for name in names:
        lo, hi = domains[name]
        a = draw(st.floats(lo, hi))
        b = draw(st.sampled_from([draw(st.floats(lo, hi)), getattr(model, name), a]))
        free[name] = (min(a, b), max(a, b))
    return model, free, draw(st.integers(2, {1: 17, 2: 6, 3: 4}[len(names)]))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_compass_matches_scalar_loop(variant, objective, data):
    model, free, grid_points = data.draw(searches(variant))
    input = data.draw(st.none() | QUBITS)
    assert_matches_scalar_loop(model, free, objective, input, grid_points)


def test_grid_stays_inside_the_interval():
    # 1e-12 + 12 * ((1 - 1e-12) / 12) rounds to 1.0000000000000002, outside
    # the plate's domain [0, 1]
    model = HybridParams(eta0=1.0)
    free = {"eta0": (1e-12, 1.0)}
    result = optimize_symmetry(model, free, "max_avg_fidelity", grid_points=13)
    assert result.params.eta0 <= 1.0
    assert_matches_scalar_loop(model, free, "max_avg_fidelity", None, 13)


def test_grid_keeps_the_sign_of_a_zero_bound():
    # -1 + 2 * 0.5 is 0.0, which min(-0.0, 0.0) puts on the bound -0.0
    model, free = MZ_OFFSET, {"phase_offset_r1": (-1.0, -0.0)}
    columns = []

    def evaluate(params, *args):
        columns.append(params.phase_offset_r1)
        return run_model_batch(params, *args)

    with mock.patch.object(compensation, "run_model_batch", evaluate):
        optimize_symmetry(model, free, grid_points=3)
    assert [math.copysign(1.0, x) for x in columns[0].tolist()] == [-1.0] * 4
    assert_matches_scalar_loop(model, free, grid_points=3)


def test_a_search_to_zero_steps_matches_the_scalar_loop(monkeypatch):
    # REFINE_TOL 0 halves the steps down to zero: some 1100 passes, each
    # ladder still one batch
    monkeypatch.setattr(compensation, "REFINE_TOL", 0.0)
    model, free = SpecialBSParams(R0=0.8, R1=0.2), {"comp_loss_r1": (0.5, 1.0)}
    assert_matches_scalar_loop(model, free, grid_points=3)


# the draw of test_batched_compass_matches_scalar_loop under hypothesis seed
# 109 that crawled: the gap fell by tiny steps over tens of thousands of
# accepted moves, all in one pass
CRAWL = (MachZehnderParams(theta_V=0.8850582197665784, theta_H=2.2086889948999207,
                           phase_offset_r0=0.3167191293001945,
                           phase_offset_r1=-1.1999999999999997),
         {"theta_H": (-6.559319574337826e-71, 1.8318928336783227),
          "phase_offset_r1": (1.7394860382285527e-139, 5.960464477539063e-08),
          "phase_offset_r0": (-1.3788308126338467, 2.220446049250313e-16)},
         "min_fidelity_gap", Qubit(2.7778884432310234, 4.4443771486773285), 4)


def test_a_crawling_search_stops_at_its_budget():
    model, free, objective, input, grid_points = CRAWL
    began = time.perf_counter()
    result = optimize_symmetry(model, free, objective, input=input, grid_points=grid_points)
    assert time.perf_counter() - began < 2.0
    assert result.at_budget
    score = _objective_function(objective)
    axes = [[min(hi, lo + k * (hi - lo) / (grid_points - 1)) for k in range(grid_points)]
            for lo, hi in free.values()]
    grid = [run_model(replace(model, **dict(zip(free, point))), input)
            for point in product(*axes)]
    assert result.objective_value <= min(score(r.F1, r.F2) for r in grid)
    assert_matches_scalar_loop(*CRAWL)


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_a_search_at_its_budget_matches_the_scalar_loop(budget, monkeypatch):
    # mach_zehnder-3 accepts more than 5 moves: each budget cuts it short
    model, free, input, grid_points = REFERENCE_CASES["mach_zehnder-3"]
    monkeypatch.setattr(compensation, "MAX_MOVES", budget)
    result, batches = batched_optimize(model, free, input=input, grid_points=grid_points)
    *reference, accepted = scalar_optimize(model, free, input=input, grid_points=grid_points)
    assert result.at_budget and accepted == budget
    assert_same_result(result, reference)
    # the grid, then the ladder of the start and of each incumbent but the last
    assert len(batches) == 1 + budget


# ---------------------------------------------------------------------------
# the compass table against the per-row ladder generator it replaced
# ---------------------------------------------------------------------------

def compass_ladder(point, steps, first, improved, intervals, refine_tol):
    """Compass moves ``(trial, steps, move)`` from ``point`` while none improves.

    Move ``2 * axis`` steps down ``axis`` and ``2 * axis + 1`` up, clamped to the
    interval; one that clamps onto ``point`` is skipped.  The pass goes on from
    move ``first``; a pass that has not ``improved`` halves the steps, and no
    pass starts once all of them are at most ``refine_tol``.
    """
    while any(s > refine_tol for s in steps):
        for move in range(first, 2 * len(steps)):
            axis, up = divmod(move, 2)
            if steps[axis] == 0.0:
                continue
            lo, hi = intervals[axis]
            trial = list(point)
            trial[axis] = min(hi, max(lo, point[axis] + (-1.0, 1.0)[up] * steps[axis]))
            if trial[axis] != point[axis]:
                yield trial, steps, move
        if not improved:
            steps = [s / 2.0 for s in steps]
        first, improved = 0, False


def assert_ladder_matches_generator(point, steps, intervals, refine_tol, entry):
    """The table's ladder from ``point`` after ``entry`` (None: from the grid;
    negative: from the end of the table) holds the generator's rows, bit for
    bit, in its order and with its restarts."""
    table = compensation._CompassTable(steps, intervals, refine_tol)
    if entry is not None and entry < 0:
        entry += len(table.offset)
    rows, entries = table.ladder(point, entry)
    levels = []
    while any(s > refine_tol for s in steps):
        levels.append(steps)
        steps = [s / 2.0 for s in steps]
    width = 2 * len(point)
    if entry is None:
        expected = list(compass_ladder(point, levels[0] if levels else steps, 0, False,
                                       intervals, refine_tol))
    else:
        pass_, move = divmod(entry, width)
        expected = list(compass_ladder(point, levels[pass_], move + 1, True,
                                       intervals, refine_tol))
    assert len(table.offset) == width * len(levels)
    assert rows.shape == (len(expected), len(point))
    assert rows.tobytes() == np.array([trial for trial, _, _ in expected],
                                      dtype=float).reshape(rows.shape).tobytes()
    assert entries.tolist() == [width * levels.index(s) + move for _, s, move in expected]


@pytest.mark.parametrize("point, steps, intervals, refine_tol, entry", [
    # a pinned axis never moves, even from a start outside its interval
    ([0.7, 0.5], [0.0, 0.25], [(0.5, 0.5), (0.0, 1.0)], 1e-9, None),
    ([0.7, 0.5], [0.0, 0.25], [(0.5, 0.5), (0.0, 1.0)], 1e-9, 9),
    # refine_tol 0 halves the steps down to zero: some 1075 passes
    ([0.3], [0.25], [(0.0, 1.0)], 0.0, None),
    ([0.3, 0.6], [0.25, 1e-300], [(0.0, 1.0), (0.5, 0.7)], 0.0, 1001),
    # an accept on the last move of the last pass runs that pass once more
    ([0.3, 0.6], [0.25, 0.125], [(0.0, 1.0), (0.5, 0.7)], 1e-3, -1),
    ([0.3], [0.25], [(0.0, 1.0)], 0.0, -1),
    # moves landing exactly on a bound, and moves clamped onto one
    ([0.5], [0.25], [(0.25, 0.75)], 1e-2, None),
    ([0.5, 0.9], [0.375, 0.25], [(0.25, 0.75), (0.0, 1.0)], 1e-2, 2),
    # a -0.0 bound keeps its sign, as Python's min and max keep it
    ([0.25], [0.25], [(-0.0, 1.0)], 1e-3, None),
    ([-0.25], [0.25], [(-1.0, -0.0)], 1e-3, 0),
    ([-0.0, 0.5], [0.125, 0.25], [(0.0, 1.0), (-0.0, 0.5)], 1e-3, None),
])
def test_compass_table_matches_the_ladder_generator(point, steps, intervals,
                                                    refine_tol, entry):
    assert_ladder_matches_generator(point, steps, intervals, refine_tol, entry)


BOUND = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]) | st.floats(-2.0, 2.0)


@st.composite
def compass_axes(draw):
    """An interval, a step (possibly 0) and a point, often on a bound or a
    step away from one, and sometimes outside the interval."""
    lo, hi = sorted([draw(BOUND), draw(BOUND)])
    step = draw(st.sampled_from([0.0, 0.25, 0.1]) | st.floats(1e-6, 2.0))
    point = draw(st.sampled_from([lo, hi, lo + step, hi - step])
                 | st.floats(lo - 0.5, hi + 0.5))
    return (lo, hi), step, point


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compass_table_matches_the_ladder_generator_everywhere(data):
    axes = data.draw(st.lists(compass_axes(), min_size=1, max_size=3))
    intervals, steps, point = (list(column) for column in zip(*axes))
    refine_tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.3]))
    table = compensation._CompassTable(steps, intervals, refine_tol)
    entry = data.draw(st.none() | st.integers(0, max(0, len(table.offset) - 1)))
    if not len(table.offset):
        entry = None
    assert_ladder_matches_generator(point, steps, intervals, refine_tol, entry)


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_each_ladder_is_one_batch(case):
    # every ladder the search builds is evaluated, all its rows in one call
    model, free, *rest = REFERENCE_CASES[case]
    input, grid_points = rest if rest else (None, 33)
    ladder = compensation._CompassTable.ladder
    ladders = []

    def spy(table, *args):
        rows, entries = ladder(table, *args)
        ladders.append(len(rows))
        return rows, entries

    with mock.patch.object(compensation._CompassTable, "ladder", spy):
        result, batches = batched_optimize(model, free, input=input,
                                           grid_points=grid_points)
    assert not result.at_budget
    assert len(batches) == 1 + sum(1 for rows in ladders if rows)


@pytest.mark.parametrize("refine_tol, passes", [(compensation.REFINE_TOL, 1054),
                                                (0.0, 2099)])
def test_ladders_fit_one_batch(refine_tol, passes):
    # a grid of 2 points per axis fits MAX_ROWS for 16 free parameters, not 17
    assert 2**16 <= MAX_ROWS < 2**17
    # the widest finite step, (hi - lo) / (2 - 1), on all 16 axes: the most
    # passes a table can hold
    widest = sys.float_info.max
    table = compensation._CompassTable([widest] * 16, [(0.0, widest)] * 16, refine_tol)
    assert len(table.offset) == passes * table.width
    # a ladder is the rest of one pass and the table from that pass on
    assert len(table.offset) + table.width < MAX_ROWS
