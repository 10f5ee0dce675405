"""Design-condition solvers and numeric symmetrization.

Covers the closed-form design point of the hybrid device (the glass-plate
ratios that symmetrize an imperfect separating splitter) and a
derivative-free optimizer for re-tuning any architecture parameter against a
fidelity objective.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, get_type_hints

import numpy as np

from .cloners import (
    MAX_ROWS,
    CloneReport,
    ClonerParams,
    HybridParams,
    run_model,
    run_model_batch,
)
from .fock import Qubit

#: objective name -> value to minimize, from the clone fidelities (floats or arrays)
_OBJECTIVES = {
    "min_fidelity_gap": lambda f1, f2: abs(f1 - f2),
    "max_avg_fidelity": lambda f1, f2: -0.5 * (f1 + f2),
}
OBJECTIVES = tuple(_OBJECTIVES)


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
    if name not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {name!r}")
    return _OBJECTIVES[name]


def _check_grid(grid_points: int, n_free: int) -> None:
    """Raise ValueError unless a grid of ``grid_points`` per axis fits one batch."""
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if grid_points ** n_free > MAX_ROWS:
        raise ValueError(f"grid_points ** {n_free} (the grid over {n_free} free "
                         f"parameters) must not exceed {MAX_ROWS}, got {grid_points}")


@functools.cache
def _float_fields(cls) -> frozenset:
    """Fields of ``cls`` annotated ``float`` or ``float | None``."""
    hints = get_type_hints(cls)
    return frozenset(f.name for f in fields(cls)
                     if hints[f.name] in (float, float | None))


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
    intervals.  A free field must be annotated ``float`` or ``float | None``
    and hold a number in ``model``.  The grid has ``grid_points`` values per
    free parameter and at most ``MAX_ROWS`` points in all.  The incumbent
    starts at the unmodified model, so an already-optimal model is returned
    unchanged; a point replaces it only when it beats it by more than 1e-15,
    in search order.  Points are evaluated in :func:`run_model_batch` batches,
    bit-identical to :func:`run_model`: the start and the grid, then from
    each incumbent its compass ladder, a slice of the search's one
    :class:`_CompassTable`.  Rows past the first improving move are dropped,
    so the result and ``evaluations`` are those of a one-point-at-a-time
    search, never worse than the best grid point.
    """
    if not free_parameters:
        raise ValueError("free_parameters must name at least one parameter")
    _check_grid(grid_points, len(free_parameters))
    if not refine_tol >= 0.0:
        raise ValueError(f"refine_tol must be >= 0, got {refine_tol}")
    field_names = {f.name for f in fields(model)}
    names = []
    intervals = []
    for name, interval in free_parameters.items():
        if name not in field_names:
            raise ValueError(
                f"unknown parameter {name!r} for {type(model).__name__}"
            )
        if name not in _float_fields(type(model)):
            raise ValueError(f"free parameter {name!r} must be a float field "
                             "(annotated float or float | None)")
        start = getattr(model, name)
        if start is None:
            raise ValueError(
                f"free parameter {name!r} needs a real starting value, got {start!r}"
            )
        lo, hi = (float(interval[0]), float(interval[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"empty search interval for {name!r}: [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            # an infinite step never halves below refine_tol
            raise ValueError(f"search interval for {name!r} is too wide: [{lo}, {hi}]")
        names.append(name)
        intervals.append((lo, hi))

    score = _objective_function(objective)
    target = input if input is not None else Qubit.equatorial(0.0)

    def evaluate(points):
        """Objective values of the rows of ``points``, from one batch."""
        columns = {name: points[:, j] for j, name in enumerate(names)}
        batch = run_model_batch(replace(model, **columns), target)
        values = np.where(batch.P_succ > 0.0, score(batch.F1, batch.F2), math.inf)
        # a field the amplitudes never read (a detection ratio) gives one row
        return np.broadcast_to(values, len(points))

    steps = [(hi - lo) / (grid_points - 1) if hi > lo else 0.0 for lo, hi in intervals]
    axes = []
    for (lo, hi), step in zip(intervals, steps):
        # rounding may carry lo + k * step past hi, out of the field's domain;
        # clamped as min(hi, x) would, so that a -0.0 bound keeps its sign
        axis = lo + np.arange(grid_points) * step
        axes.append(np.where(axis < hi, axis, hi) if hi > lo else [lo])
    start = [getattr(model, n) for n in names]
    points = np.vstack([start, np.stack(np.meshgrid(*axes, indexing="ij"), -1)
                        .reshape(-1, len(names))])
    values = evaluate(points).tolist()
    evaluations = len(points)
    best, best_value = 0, values[0]
    for i, value in enumerate(values):
        if value < best_value - 1e-15:
            best, best_value = i, value
    best_point = points[best].tolist() if best else start

    table = _CompassTable(steps, intervals, refine_tol)
    rows, entries = table.ladder(best_point)
    while len(rows):
        values = evaluate(rows[:MAX_ROWS])
        better = values < best_value - 1e-15
        if not better.any():
            evaluations += len(values)
            rows, entries = rows[MAX_ROWS:], entries[MAX_ROWS:]
            continue
        i = int(better.argmax())
        evaluations += i + 1
        best_value, best_point = values[i].item(), rows[i].tolist()
        rows, entries = table.ladder(best_point, entries[i])

    best_params = replace(model, **dict(zip(names, best_point)))
    return OptimizationResult(
        params=best_params,
        report=run_model(best_params, target),
        objective_value=best_value,
        evaluations=evaluations,
    )


class _CompassTable:
    """Every compass move of one search, one flat table entry per move.

    Entry ``2 * n * p + 2 * axis`` steps down ``axis`` and the next entry up,
    by the grid step halved ``p`` times, in passes ``p`` that run while some
    step exceeds ``refine_tol``.
    """

    def __init__(self, steps, intervals, refine_tol):
        levels = []
        while max(steps) > refine_tol:
            levels.append(steps)
            steps = [s / 2.0 for s in steps]
        self.width = 2 * len(steps)
        self.axis = np.arange(self.width * len(levels)) % self.width // 2
        self.offset = np.repeat(np.ravel(levels), 2) * np.resize([-1.0, 1.0], len(self.axis))
        self.lo, self.hi = np.array(intervals, dtype=float)[self.axis].T

    def ladder(self, point, entry=None):
        """Rows of the ladder from ``point``, and the table entry of each row.

        From the grid's best point it is the whole table.  After an accepted
        ``entry`` it is the rest of that entry's pass, then that pass again
        (a pass that improved is not halved) and every later pass.  A move is
        clamped as ``min(hi, max(lo, x))`` clamps, so a -0.0 bound keeps its
        sign; a zero step, or a move that clamps onto ``point``, is skipped.
        """
        first = 0 if entry is None else entry - entry % self.width
        head = first + self.width if entry is None else entry + 1
        order = np.concatenate([np.arange(head, first + self.width),
                                np.arange(first, len(self.offset))])
        axis, offset, lo, hi = (a[order] for a in (self.axis, self.offset, self.lo, self.hi))
        point = np.array(point, dtype=float)
        trial = point[axis] + offset
        trial = np.where(trial > lo, trial, lo)
        trial = np.where(trial < hi, trial, hi)
        keep = (offset != 0.0) & (trial != point[axis])
        rows = np.repeat(point[None], np.count_nonzero(keep), axis=0)
        rows[np.arange(len(rows)), axis[keep]] = trial[keep]
        return rows, order[keep]
