"""Design-condition solvers and numeric symmetrization.

Covers the closed-form design points (the optimal splitting ratio and the
glass-plate ratios that symmetrize an imperfect separating splitter) and a
derivative-free optimizer for re-tuning any architecture parameter against a
fidelity objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import Mapping

from .cloners import CloneReport, ClonerParams, HybridParams, run_model
from .fock import Qubit

OBJECTIVES = ("min_fidelity_gap", "max_avg_fidelity")


def solve_ideal_reflectance() -> float:
    """Root of 6 R^2 - 6 R + 1 = 0 lying in (1/2, 1].

    The complementary root is 1 minus this value.
    """
    return 0.5 * (1.0 + 1.0 / math.sqrt(3.0))


@dataclass(frozen=True)
class CompensationSolution:
    """Glass-plate settings that symmetrize a given separating splitter."""

    nu_ratio: float
    eta_ratio: float
    capped_values: tuple[float, float, float, float]  # (eta0, eta1, nu0, nu1)
    predicted: CloneReport


def _cap_pair(ratio: float) -> tuple[float, float]:
    """Amplitude pair (x0, x1) with x1/x0 = ratio and max element 1."""
    if ratio >= 1.0:
        return 1.0 / ratio, 1.0
    return 1.0, ratio


def solve_hybrid_compensation(
    r0: float,
    t0: float,
    r1: float,
    t1: float,
    bs1_r: float = math.sqrt(0.5),
    bs1_t: float = math.sqrt(0.5),
    input: Qubit | None = None,
) -> CompensationSolution:
    """Plate transmittances making the filtered cloner symmetric and optimal.

    The separating splitter's rail amplitudes fix the two ratios
    nu0/nu1 = t1 r0 / (t0 r1) and eta1/eta0 = sqrt(2) r0 / r1; absolute
    values are capped so the larger plate transmittance of each pair is 1,
    which maximizes the success probability.
    """
    for name, value in (("r0", r0), ("t0", t0), ("r1", r1), ("t1", t1)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {value}")
    nu_ratio = (t1 * r0) / (t0 * r1)  # nu0 / nu1
    eta_ratio = math.sqrt(2.0) * r0 / r1  # eta1 / eta0
    eta0, eta1 = _cap_pair(eta_ratio)
    nu1, nu0 = _cap_pair(nu_ratio)
    params = HybridParams(
        r=bs1_r, t=bs1_t, r0=r0, t0=t0, r1=r1, t1=t1,
        eta0=eta0, eta1=eta1, nu0=nu0, nu1=nu1,
    )
    predicted = run_model(params, input if input is not None else Qubit.equatorial(0.0))
    return CompensationSolution(
        nu_ratio=nu_ratio,
        eta_ratio=eta_ratio,
        capped_values=(eta0, eta1, nu0, nu1),
        predicted=predicted,
    )


@dataclass(frozen=True)
class OptimizationResult:
    params: ClonerParams
    report: CloneReport
    objective_value: float
    evaluations: int


def _objective_function(name: str):
    if name == "min_fidelity_gap":
        def gap(report: CloneReport) -> float:
            if report.is_empty:
                return math.inf
            return abs(report.F1 - report.F2)
        return gap
    if name == "max_avg_fidelity":
        def neg_avg(report: CloneReport) -> float:
            if report.is_empty:
                return math.inf
            return -0.5 * (report.F1 + report.F2)
        return neg_avg
    raise ValueError(f"objective must be one of {OBJECTIVES}, got {name!r}")


def optimize_symmetry(
    model: ClonerParams,
    free_parameters: Mapping[str, tuple],
    objective: str = "min_fidelity_gap",
    input: Qubit | None = None,
    grid_points: int = 33,
    refine_tol: float = 1e-9,
) -> OptimizationResult:
    """Deterministic coarse-grid search plus compass refinement.

    ``free_parameters`` maps parameter-field names to closed search
    intervals.  The incumbent starts at the unmodified model, so an
    already-optimal model is returned unchanged.  Refinement is monotone:
    the result is never worse than the best evaluated grid point.
    """
    if not free_parameters:
        raise ValueError("free_parameters must name at least one parameter")
    field_names = {f.name for f in fields(model)}
    names = []
    intervals = []
    for name, interval in free_parameters.items():
        if name not in field_names:
            raise ValueError(
                f"unknown parameter {name!r} for {type(model).__name__}"
            )
        start = getattr(model, name)
        if isinstance(start, bool) or not isinstance(start, (int, float)):
            raise ValueError(
                f"free parameter {name!r} needs a real starting value, got {start!r}"
            )
        lo, hi = (float(interval[0]), float(interval[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"empty search interval for {name!r}: [{lo}, {hi}]")
        names.append(name)
        intervals.append((lo, hi))

    score = _objective_function(objective)
    target = input if input is not None else Qubit.equatorial(0.0)
    evaluations = 0

    def evaluate_point(values):
        nonlocal evaluations
        evaluations += 1
        candidate = replace(model, **dict(zip(names, values)))
        report = run_model(candidate, target)
        return score(report), candidate, report

    best_value, best_params, best_report = evaluate_point(
        [getattr(model, n) for n in names]
    )
    best_point = [getattr(model, n) for n in names]

    axes = []
    for lo, hi in intervals:
        if hi == lo:
            axes.append([lo])
        else:
            step = (hi - lo) / (grid_points - 1)
            axes.append([lo + k * step for k in range(grid_points)])
    for point in product(*axes):
        value, candidate, report = evaluate_point(point)
        if value < best_value - 1e-15:
            best_value, best_params, best_report = value, candidate, report
            best_point = list(point)

    steps = [
        (hi - lo) / (grid_points - 1) if hi > lo else 0.0 for lo, hi in intervals
    ]
    while any(s > refine_tol for s in steps):
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
        if not improved:
            steps = [s / 2.0 for s in steps]

    return OptimizationResult(
        params=best_params,
        report=best_report,
        objective_value=best_value,
        evaluations=evaluations,
    )
