"""Design-condition solvers and numeric symmetrization.

Covers the closed-form design point of the hybrid device (the glass-plate
ratios that symmetrize an imperfect separating splitter) and a
derivative-free optimizer for re-tuning any architecture parameter against a
fidelity objective.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Mapping, get_type_hints

import numpy as np

from .cloners import (
    MAX_ROWS,
    CloneReport,
    ClonerParams,
    HybridParams,
    _check_integer,
    _run_checks,
    run_model,
    run_model_batch,
)
from .fock import Qubit, _check_single

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
) -> CompensationSolution:
    """Plate transmittances making the filtered cloner symmetric and optimal.

    The separating splitter's rail amplitudes fix the two ratios
    nu0/nu1 = t1 r0 / (t0 r1) and eta1/eta0 = sqrt(2) r0 / r1; absolute
    values are capped so the larger plate transmittance of each pair is 1,
    which maximizes the success probability.  BS1 stays balanced, and the
    prediction is the report of the equatorial input |+>.
    """
    for name, value in (("r0", r0), ("t0", t0), ("r1", r1), ("t1", t1)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {value}")
    nu_ratio = (t1 * r0) / (t0 * r1)  # nu0 / nu1
    eta_ratio = math.sqrt(2.0) * r0 / r1  # eta1 / eta0
    eta0, eta1 = _cap_pair(eta_ratio)
    nu1, nu0 = _cap_pair(nu_ratio)
    params = HybridParams(
        r0=r0, t0=t0, r1=r1, t1=t1,
        eta0=eta0, eta1=eta1, nu0=nu0, nu1=nu1,
    )
    predicted = run_model(params, Qubit.equatorial(0.0))
    return CompensationSolution(
        nu_ratio=nu_ratio,
        eta_ratio=eta_ratio,
        capped_values=(eta0, eta1, nu0, nu1),
        predicted=predicted,
    )


#: accepted compass moves after which a search stops at its incumbent.  No
#: search of the benchmark's optimize decks or the golden cases makes more
#: than ~35; a crawl, one tiny improvement after another, ends here
MAX_MOVES = 1000
#: the compass halves its steps pass by pass while one of them exceeds this
REFINE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizationResult:
    """A search's incumbent; ``at_budget`` when it stopped after ``MAX_MOVES``
    accepted moves with moves still to try."""

    params: ClonerParams
    report: CloneReport
    objective_value: float
    evaluations: int
    at_budget: bool = False


def _objective_function(name: str):
    if name not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {name!r}")
    return _OBJECTIVES[name]


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
    each incumbent its whole compass ladder, a slice of the search's one
    :class:`_CompassTable`, whose steps halve while one exceeds
    ``REFINE_TOL``.  Each batch runs, on every candidate, the model's
    checks that read a free field, in the model's order and with its
    messages; the fixed fields are not checked again.  Rows past the first
    improving move are dropped, so ``evaluations`` and the result, whose
    report is the incumbent's batch row, are those of a one-point search,
    never worse than the best grid point.  A search stops after
    ``MAX_MOVES`` accepted moves and returns that incumbent, marked
    ``at_budget``.  ``input`` must be one state.
    """
    if not free_parameters:
        raise ValueError("free_parameters must name at least one parameter")
    n_free = len(free_parameters)
    _check_integer("grid_points", grid_points)
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if int(grid_points) ** n_free > MAX_ROWS:  # a numpy integer power would wrap
        raise ValueError(f"grid_points ** {n_free} (the grid over {n_free} free "
                         f"parameters) must not exceed {MAX_ROWS}, got {grid_points}")
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
            # an infinite step never halves below REFINE_TOL
            raise ValueError(f"search interval for {name!r} is too wide: [{lo}, {hi}]")
        names.append(name)
        intervals.append((lo, hi))

    score = _objective_function(objective)
    target = input if input is not None else Qubit.equatorial(0.0)
    _check_single(target)
    # the fixed fields passed the model's checks; a batch runs those that
    # read a free field, in the model's order, on every candidate
    free = set(names)
    checks = [check for check in model._checks if not free.isdisjoint(check[1:])]

    def evaluate(points):
        """The batch of the rows of ``points``, and their objective values."""
        candidates = {**vars(model), **{name: points[:, j] for j, name in enumerate(names)}}
        _run_checks(checks, candidates)
        batch = run_model_batch(model._trusted(candidates), target)
        values = np.where(batch.P_succ > 0.0, score(batch.F1, batch.F2), math.inf)
        if len(values) < len(points):  # a field the amplitudes never read: one row
            values = np.broadcast_to(values, len(points))
        return batch, values

    steps = [(hi - lo) / (grid_points - 1) if hi > lo else 0.0 for lo, hi in intervals]
    axes = []
    for (lo, hi), step in zip(intervals, steps):
        # rounding may carry lo + k * step past hi, out of the field's domain;
        # clamped as min(hi, x) would, so that a -0.0 bound keeps its sign
        axis = lo + np.arange(grid_points) * step
        axes.append(np.where(axis < hi, axis, hi) if hi > lo else [lo])
    start = [getattr(model, n) for n in names]
    sizes = [len(axis) for axis in axes]
    points = np.empty((1 + math.prod(sizes), len(names)))
    points[0] = start
    # the grid in itertools.product order: axis j runs along dimension j
    grid = points[1:].reshape(*sizes, len(names))
    for j, axis in enumerate(axes):
        grid[..., j] = np.reshape(axis, [-1 if k == j else 1 for k in range(len(names))])
    batch, values = evaluate(points)
    evaluations = len(points)
    best, best_value = 0, values[0].item()
    # a point replaces the incumbent, in grid order, when it beats it by more
    # than 1e-15; such a point is below every earlier one, kept or not
    lower = (values[1:] < np.fmin.accumulate(values)[:-1]).nonzero()[0] + 1
    for i, value in zip(lower.tolist(), values[lower].tolist()):
        if value < best_value - 1e-15:
            best, best_value = i, value
    best_point = points[best].tolist() if best else start
    best_batch, best_row = batch, best

    # the grid cap allows 16 free parameters (2**17 > MAX_ROWS) and a table 1054
    # passes at most, so a ladder, under 34 000 rows, is always one batch
    table = _CompassTable(steps, intervals, REFINE_TOL)
    rows, entries = table.ladder(best_point)
    moves = 0
    while len(rows) and moves < MAX_MOVES:
        batch, values = evaluate(rows)
        better = values < best_value - 1e-15
        i = int(better.argmax())
        if not better[i]:
            evaluations += len(values)
            break
        evaluations += i + 1
        best_value, best_point = values[i].item(), rows[i].tolist()
        best_batch, best_row = batch, i
        moves += 1
        rows, entries = table.ladder(best_point, entries[i])

    # the best point's values passed their checks in the batch that held them
    return OptimizationResult(
        params=model._trusted({**vars(model), **dict(zip(names, best_point))}),
        report=best_batch.report(target, min(best_row, len(best_batch.P_succ) - 1)),
        objective_value=best_value,
        evaluations=evaluations,
        at_budget=moves == MAX_MOVES and bool(len(rows)),
    )


class _CompassTable:
    """Every compass move of one search, one flat table entry per move.

    Entry ``2 * n * p + 2 * axis`` steps down ``axis`` and the next entry up,
    by the grid step halved ``p`` times, in passes ``p`` that run while some
    step exceeds ``refine_tol``.  An entry of zero step has infinite bounds,
    so that its move never leaves the point.
    """

    def __init__(self, steps, intervals, refine_tol):
        n, widest = len(steps), max(steps)
        # halving is monotone: a step below 2**top halved p times is at most
        # 2**(top - p) (0 past the smallest subnormal), so no pass from
        # top - bottom + 1 on runs, where refine_tol >= 2**(bottom - 1)
        top = math.frexp(widest)[1]
        bottom = math.frexp(refine_tol)[1] if refine_tol > 0.0 else -1074
        levels = np.full((max(0, top - bottom + 1), n), 0.5)
        levels[:1] = steps
        # one halving after another: a subnormal step rounds at each of them;
        # the widest step stays the widest, and its passes are the table's
        levels = np.multiply.accumulate(levels)
        levels = levels[:np.count_nonzero(levels[:, steps.index(widest)] > refine_tol)]
        offset = levels[:, :, None] * np.array([-1.0, 1.0])  # [pass, axis, down/up]
        moving = offset != 0.0
        bounds = np.array(intervals, dtype=float)
        self.offset = offset.ravel()
        self.lo = np.where(moving, bounds[:, :1], -math.inf).ravel()
        self.hi = np.where(moving, bounds[:, 1:], math.inf).ravel()
        self.width = 2 * n
        self.axis = np.arange(len(self.offset)) % self.width // 2

    def ladder(self, point, entry=None):
        """Rows of the ladder from ``point``, and the table entry of each row.

        From the grid's best point it is the whole table.  After an accepted
        ``entry`` it is the rest of that entry's pass, then that pass again
        (a pass that improved is not halved) and every later pass.  A move is
        clamped as ``min(hi, max(lo, x))`` clamps, so a -0.0 bound keeps its
        sign; a zero step, or a move that clamps onto ``point``, is skipped.
        """
        first = 0 if entry is None else entry - entry % self.width
        axis, lo, hi = self.axis[first:], self.lo[first:], self.hi[first:]
        point = np.array(point, dtype=float)
        start = point[axis]
        trial = start + self.offset[first:]
        trial = np.where(trial > lo, trial, lo)
        trial = np.where(trial < hi, trial, hi)
        kept = (trial != start).nonzero()[0]
        if entry is not None:  # the moves after ``entry`` in its pass come first
            kept = np.concatenate([kept[kept.searchsorted(entry - first, "right"):
                                        kept.searchsorted(self.width)], kept])
        if len(point) == 1:
            return trial[kept, None], kept + first
        rows = np.repeat(point[None], len(kept), axis=0)
        rows[np.arange(len(kept)), axis[kept]] = trial[kept]
        return rows, kept + first
