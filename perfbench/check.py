"""Correctness check of one CLI output, through routes independent of it.

* Analytic columns are recomputed with ``run_model(..., via="circuit")`` at
  M = 1 and with ``with_distinguishability`` at M < 1, and must agree with
  the printed value at its 10 significant digits.
* Counting columns must be internally consistent (``C_sum <= n_pairs``,
  estimates equal to their count ratios) and ``F1_hat``, ``F2_hat`` and
  ``P_hat`` must lie within 6 sigma of the value expected from the analytic
  state, the analyzer projections and the detector efficiencies.  For
  jitter rows that state is the success-weighted mixture over the row's
  own jitter sequence, as ``average_over_jitter`` builds it.
* Optimize rows must be no worse than the starting model and reproduce
  ``run_model`` at the returned parameters.

``check_output`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from pcclone import (
    CloneReport,
    DetectorBank,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    NoiseConfig,
    Qubit,
    SpecialBSParams,
    TwoQubitState,
    outcome_distribution,
    run_model,
    sample_phase_jitter,
    with_distinguishability,
)
from pcclone.noise import conditional_sector_vectors

MODEL_TYPES = {
    "special_bs": SpecialBSParams,
    "mach_zehnder": MachZehnderParams,
    "hybrid": HybridParams,
    "fiber": FiberParams,
}
ANALYTIC = ("theta", "phi", "F1", "F2", "P_succ")
COUNTING = ("C_pp", "C_pm", "C_mp", "C_mm", "F1_hat", "F2_hat", "P_hat")
SIGMAS = 6.0
#: slack for two exact routes that differ by rounding (~1e-15) and for
#: optimize parameters that come back rounded to 10 significant digits
ROUTE_SLACK = 1e-13
PARAM_SLACK = 1e-8
JITTER_CHUNK = 1 << 16


def parse_output(text: str, fmt: str) -> list[dict]:
    """Rows of a CSV or JSON output; empty CSV cells read as ``None``."""
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        row = {}
        for key, cell in zip(header, cells):
            if key in ("label", "objective"):
                row[key] = cell
            elif cell == "":
                row[key] = None
            elif key.startswith("C_"):
                row[key] = int(cell)
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows


def agrees(printed, exact) -> bool:
    """``printed`` is ``exact`` rounded to 10 significant digits."""
    if printed is None or exact is None:
        return printed is None and exact is None
    if exact == 0.0:
        return abs(printed) <= ROUTE_SLACK
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 9)
    return abs(printed - exact) <= 0.5 * unit + ROUTE_SLACK * max(1.0, abs(exact))


def build_model(spec: dict):
    fields = dict(spec)
    cls = MODEL_TYPES[fields.pop("variant")]
    return replace(cls.ideal(), **fields)


def _axis_values(spec) -> list[float]:
    if isinstance(spec, (int, float)):
        return [float(spec)]
    if isinstance(spec, list):
        return [float(v) for v in spec]
    start, stop, count = spec["start"], spec["stop"], spec["count"]
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def config_inputs(config: dict) -> list[Qubit]:
    if "input" in config:
        return [Qubit(config["input"]["theta"], config["input"].get("phi", 0.0))]
    sweep = config["sweep"]
    thetas = _axis_values(sweep["theta"]) if "theta" in sweep else [math.pi / 2.0]
    phis = _axis_values(sweep["phi"]) if "phi" in sweep else [0.0]
    return [Qubit(th, ph) for th in thetas for ph in phis]


def route_report(model, noise: NoiseConfig, qubit: Qubit) -> CloneReport:
    """The analytic columns by the route the program does not take at M = 1."""
    if noise.overlap_M >= 1.0:
        return run_model(model, qubit, via="circuit")
    return with_distinguishability(model, noise.overlap_M, qubit)


def row_seeds(seed: int, n_rows: int) -> list[int]:
    """Per-row counting seeds, derived as the program documents them."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n_rows)]


def jitter_report(model, noise: NoiseConfig, qubit: Qubit, row_seed: int,
                  n_pairs: int) -> CloneReport:
    """``average_over_jitter`` over the row's own jitter sequence.

    The row draws its phases from the first child of its seed.  Sector
    vectors are pooled chunk by chunk: ``average_over_jitter`` would hold
    all of them at once (about 450 MB at 10^6 pairs and M < 1).
    """
    seq_jitter = np.random.SeedSequence(row_seed).spawn(2)[0]
    phases = sample_phase_jitter(noise, seq_jitter, n_pairs)
    rho = np.zeros((4, 4), dtype=complex)
    total = 0.0
    for start in range(0, n_pairs, JITTER_CHUNK):
        v = conditional_sector_vectors(
            model, qubit, noise.overlap_M, phases[start:start + JITTER_CHUNK]
        ).reshape(-1, 4)
        rho += v.T @ v.conj()
        total += float(np.einsum("si,si->", v.conj(), v).real)
    if total <= 0.0:
        return CloneReport.empty(qubit)
    return CloneReport.from_joint(TwoQubitState(rho / total), total / n_pairs, qubit)


def _counting_problems(row: dict, where: str, report: CloneReport, qubit: Qubit,
                       detectors: DetectorBank, n_pairs: int) -> list[str]:
    counts = [row[k] for k in ("C_pp", "C_pm", "C_mp", "C_mm")]
    if any(not isinstance(c, int) or c < 0 for c in counts):
        return [f"{where}: counts {counts} are not non-negative integers"]
    c_sum = sum(counts)
    problems = []
    if c_sum > n_pairs:
        problems.append(f"{where}: C_sum {c_sum} exceeds n_pairs {n_pairs}")
    if not agrees(row["P_hat"], c_sum / n_pairs):
        problems.append(f"{where}: P_hat {row['P_hat']} != C_sum/n_pairs")
    if c_sum == 0:
        if row["F1_hat"] is not None or row["F2_hat"] is not None:
            problems.append(f"{where}: fidelity estimates without coincidences")
        return problems
    c_pp, c_pm, c_mp, _ = counts
    for key, ratio in (("F1_hat", (c_pp + c_pm) / c_sum), ("F2_hat", (c_pp + c_mp) / c_sum)):
        if not agrees(row[key], ratio):
            problems.append(f"{where}: {key} {row[key]} is not its count ratio {ratio!r}")

    if report.is_empty:
        problems.append(f"{where}: coincidences where success probability is 0")
        return problems
    reg = report.P_succ * outcome_distribution(report, qubit) \
        * detectors.pattern_efficiencies()
    p_reg = float(reg.sum())
    expected = {
        "F1_hat": (reg[0] + reg[1]) / p_reg,
        "F2_hat": (reg[0] + reg[2]) / p_reg,
    }
    for key, f in expected.items():
        sigma = math.sqrt(max(f * (1.0 - f), 0.0) / c_sum)
        if abs(row[key] - f) > SIGMAS * sigma + 1e-9:
            problems.append(f"{where}: {key} {row[key]} is more than 6 sigma "
                            f"({sigma:.3g}) from {f:.10g}")
    sigma_p = math.sqrt(p_reg * (1.0 - p_reg) / n_pairs)
    if abs(c_sum / n_pairs - p_reg) > SIGMAS * sigma_p + 1e-9:
        problems.append(f"{where}: P_hat is more than 6 sigma from {p_reg:.10g}")
    return problems


def _experiment_problems(config: dict, rows: list[dict], where: str) -> list[str]:
    model = build_model(config["model"])
    noise = NoiseConfig(**config.get("noise", {}))
    inputs = config_inputs(config)
    counting = config.get("counting")
    columns = list(ANALYTIC) + (list(COUNTING) if counting else [])
    if len(rows) != len(inputs):
        return [f"{where}: {len(rows)} rows for {len(inputs)} inputs"]
    seeds = row_seeds(counting.get("seed", 0), len(inputs)) if counting else None
    problems = []
    for index, (row, qubit) in enumerate(zip(rows, inputs)):
        here = f"{where} row {index}"
        if list(row) != columns:
            problems.append(f"{here}: columns {list(row)}, expected {columns}")
            continue
        report = route_report(model, noise, qubit)
        exact = (qubit.theta, qubit.phi, report.F1, report.F2, report.P_succ)
        for key, value in zip(ANALYTIC, exact):
            if not agrees(row[key], value):
                problems.append(f"{here}: {key} {row[key]!r} != {value!r} at 10 digits")
        if counting:
            n_pairs = counting["n_pairs"]
            if noise.phase_jitter_sigma > 0.0:
                report = jitter_report(model, noise, qubit, seeds[index], n_pairs)
            detectors = DetectorBank(**counting.get("detectors", {}))
            problems += _counting_problems(row, here, report, qubit, detectors, n_pairs)
    return problems


def _compare_problems(document: dict, rows: list[dict]) -> list[str]:
    configs = document["configs"]
    if len(rows) != len(configs):
        return [f"compare: {len(rows)} rows for {len(configs)} configurations"]
    columns = ["label", "F1_mean", "F2_mean", "P_succ", "rate_proxy"]
    problems = []
    for config, row in zip(configs, rows):
        where = f"compare {config['label']}"
        if list(row) != columns or row["label"] != config["label"]:
            problems.append(f"{where}: row {row}")
            continue
        model = build_model(config["model"])
        noise = NoiseConfig(**config.get("noise", {}))
        reports = [route_report(model, noise, q) for q in config_inputs(config)]
        means = {
            "F1_mean": np.mean([r.F1 for r in reports]),
            "F2_mean": np.mean([r.F2 for r in reports]),
            "P_succ": np.mean([r.P_succ for r in reports]),
        }
        for key, value in means.items():
            if not agrees(row[key], float(value)):
                problems.append(f"{where}: {key} {row[key]!r} != {value!r}")
        if row["rate_proxy"] is not None:
            problems.append(f"{where}: rate_proxy without counting")
    return problems


def _score(objective: str, report: CloneReport) -> float:
    if report.is_empty:
        return math.inf
    if objective == "min_fidelity_gap":
        return abs(report.F1 - report.F2)
    return -0.5 * (report.F1 + report.F2)


def _optimize_problems(config: dict, rows: list[dict]) -> list[str]:
    free = config["free_parameters"]
    columns = ["objective", "objective_value", "F1", "F2", "P_succ", *free]
    if len(rows) != 1 or list(rows[0]) != columns:
        return [f"optimize: expected one row with columns {columns}, got {rows}"]
    row = rows[0]
    objective = config["objective"]
    model = build_model(config["model"])
    target = config_inputs(config)[0] if "input" in config else Qubit.equatorial(0.0)
    start_value = _score(objective, run_model(model, target))
    problems = []
    if row["objective"] != objective:
        problems.append(f"optimize: objective {row['objective']!r} != {objective!r}")
    for name, (lo, hi) in free.items():
        start = getattr(model, name)
        value = row[name]
        if not (lo <= value <= hi or any(agrees(value, x) for x in (lo, hi, start))):
            problems.append(f"optimize: {name} {value} outside [{lo}, {hi}]")
    found = run_model(replace(model, **{name: row[name] for name in free}), target)
    for key, value in (("F1", found.F1), ("F2", found.F2), ("P_succ", found.P_succ),
                       ("objective_value", _score(objective, found))):
        if abs(row[key] - value) > PARAM_SLACK:
            problems.append(f"optimize: {key} {row[key]!r} is not run_model's {value!r} "
                            "at the returned parameters")
    if row["objective_value"] > start_value + PARAM_SLACK:
        problems.append(f"optimize: objective {row['objective_value']!r} worse than "
                        f"the starting model's {start_value!r}")
    return problems


def check_output(call, text: str) -> list[str]:
    """Problems found in the output ``text`` of ``call`` (a workloads.Call)."""
    try:
        rows = parse_output(text, call.fmt)
    except (ValueError, IndexError) as exc:
        return [f"unreadable {call.fmt} output: {exc}"]
    if call.subcommand == "compare":
        return _compare_problems(call.config, rows)
    if call.subcommand == "optimize":
        return _optimize_problems(call.config, rows)
    return _experiment_problems(call.config, rows, call.subcommand)
