"""Experiment configuration, execution and machine-readable reporting.

Configurations are JSON documents.  Schema (all angles in radians):

.. code-block:: json

    {
      "label":    "optional row label",
      "model":    {"variant": "special_bs", "R0": 0.7886751346},
      "noise":    {"overlap_M": 1.0, "phase_jitter_sigma": 0.0,
                   "jitter_reset_period": 100},
      "input":    {"theta": 1.5707963267948966, "phi": 0.0},
      "sweep":    {"theta": 1.5707963267948966,
                   "phi": {"start": 0.0, "stop": 6.2, "count": 32}},
      "counting": {"n_pairs": 1000000, "seed": 0,
                   "detectors": {"eta_1p": 1.0, "eta_1m": 1.0,
                                  "eta_2p": 1.0, "eta_2m": 1.0}},
      "output":   {"format": "csv", "path": "-"}
    }

Exactly one of ``input`` (single state) or ``sweep`` must be present.  Sweep
axes accept a scalar, a list of values, or an inclusive range object
``{"start", "stop", "count"}``; rows run theta-major.  Omitted sweep axes
default to theta = pi/2 (equator) and phi = 0.  ``noise``, ``counting`` and
``output`` are optional; unknown keys anywhere are rejected.

Model variants and their fields (all optional, defaults are the ideal
settings):

* ``special_bs``:   R0, R1, sign_convention, comp_loss_r0, comp_loss_r1
* ``mach_zehnder``: theta_V, theta_H, phase_offset_r0, phase_offset_r1
* ``hybrid``:       r, t, r0, t0, r1, t1, eta0, eta1, nu0, nu1
* ``fiber``:        R_vrc0, R_vrc1, analysis_phases, detection_ratio_1,
                    detection_ratio_2

Numeric output uses 10 significant digits; identical configuration and seed
produce byte-identical files.

Rows are evaluated and validated per batch at every ``overlap_M``: one
closed-form call per configuration builds every row's joint state and
marginals and checks them together.  Counting rows draw their static
registration probabilities from those joint states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .cloners import (
    ClonerParams,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    SpecialBSParams,
)
from .counting import (
    DetectorBank,
    _simulate,
    fidelity_from_counts,
    success_probability_estimate,
)
from .fock import Qubit
from .noise import NoiseConfig, evaluate_batch


class ConfigError(ValueError):
    """Invalid configuration content; the message names the offending field."""


_MODEL_TYPES = {
    "special_bs": SpecialBSParams,
    "mach_zehnder": MachZehnderParams,
    "hybrid": HybridParams,
    "fiber": FiberParams,
}

_ANALYTIC_COLUMNS = ("theta", "phi", "F1", "F2", "P_succ")
_COUNTING_COLUMNS = (
    "C_pp", "C_pm", "C_mp", "C_mm", "F1_hat", "F2_hat", "P_hat"
)


def _require_mapping(obj, field: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{field}: expected an object, got {type(obj).__name__}")
    return obj


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{field}: must be finite, got {value!r}")
    return float(value)


def _require_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return value


def _reject_unknown(mapping: dict, allowed, field: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{field}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def parse_model(spec, field: str = "model") -> ClonerParams:
    spec = dict(_require_mapping(spec, field))
    variant = spec.pop("variant", None)
    if variant not in _MODEL_TYPES:
        raise ConfigError(
            f"{field}.variant: must be one of {sorted(_MODEL_TYPES)}, got {variant!r}"
        )
    cls = _MODEL_TYPES[variant]
    base = cls.ideal()
    allowed = set(base.__dataclass_fields__)
    _reject_unknown(spec, allowed, field)
    overrides: dict[str, Any] = {}
    for key, value in spec.items():
        if key == "sign_convention":
            overrides[key] = _require_int(value, f"{field}.{key}")
        elif key == "analysis_phases":
            if value is None:
                overrides[key] = None
            else:
                if not isinstance(value, (list, tuple)) or len(value) != 2:
                    raise ConfigError(f"{field}.{key}: expected two angles")
                overrides[key] = tuple(
                    _require_number(v, f"{field}.{key}") for v in value
                )
        elif key == "R1" and value is None:
            overrides[key] = None
        else:
            overrides[key] = _require_number(value, f"{field}.{key}")
    try:
        return replace(base, **overrides)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def parse_noise(spec, field: str = "noise") -> NoiseConfig:
    if spec is None:
        return NoiseConfig()
    spec = _require_mapping(spec, field)
    allowed = ("overlap_M", "phase_jitter_sigma", "jitter_reset_period")
    _reject_unknown(spec, allowed, field)
    kwargs = {}
    for key, value in spec.items():
        if key == "jitter_reset_period":
            kwargs[key] = _require_int(value, f"{field}.{key}")
        else:
            kwargs[key] = _require_number(value, f"{field}.{key}")
    try:
        return NoiseConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _parse_axis(spec, field: str) -> list[float]:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return [_require_number(spec, field)]
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{field}: sweep list must be non-empty")
        return [_require_number(v, field) for v in spec]
    if isinstance(spec, dict):
        _reject_unknown(spec, ("start", "stop", "count"), field)
        for key in ("start", "stop", "count"):
            if key not in spec:
                raise ConfigError(f"{field}.{key}: required in a range sweep")
        count = _require_int(spec["count"], f"{field}.count")
        if count < 1:
            raise ConfigError(f"{field}.count: must be >= 1, got {count}")
        start = _require_number(spec["start"], f"{field}.start")
        stop = _require_number(spec["stop"], f"{field}.stop")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + k * step for k in range(count)]
    raise ConfigError(f"{field}: expected a number, list or range object")


def parse_inputs(config: dict, field: str = "") -> list[Qubit]:
    prefix = f"{field}." if field else ""
    has_input = "input" in config
    has_sweep = "sweep" in config
    if has_input == has_sweep:
        raise ConfigError(
            f"{prefix}input/sweep: exactly one of 'input' or 'sweep' is required"
        )
    if has_input:
        spec = _require_mapping(config["input"], f"{prefix}input")
        _reject_unknown(spec, ("theta", "phi"), f"{prefix}input")
        if "theta" not in spec:
            raise ConfigError(f"{prefix}input.theta: required")
        theta = _require_number(spec["theta"], f"{prefix}input.theta")
        phi = _require_number(spec.get("phi", 0.0), f"{prefix}input.phi")
        try:
            return [Qubit(theta, phi)]
        except ValueError as exc:
            raise ConfigError(f"{prefix}input: {exc}") from exc
    spec = _require_mapping(config["sweep"], f"{prefix}sweep")
    _reject_unknown(spec, ("theta", "phi"), f"{prefix}sweep")
    thetas = (
        _parse_axis(spec["theta"], f"{prefix}sweep.theta")
        if "theta" in spec
        else [math.pi / 2.0]
    )
    phis = (
        _parse_axis(spec["phi"], f"{prefix}sweep.phi") if "phi" in spec else [0.0]
    )
    try:
        return [Qubit(th, ph) for th in thetas for ph in phis]
    except ValueError as exc:
        raise ConfigError(f"{prefix}sweep: {exc}") from exc


@dataclass(frozen=True)
class CountingOptions:
    n_pairs: int
    seed: int
    detectors: DetectorBank


def parse_counting(spec, field: str = "counting") -> CountingOptions | None:
    if spec is None:
        return None
    spec = _require_mapping(spec, field)
    _reject_unknown(spec, ("n_pairs", "seed", "detectors"), field)
    if "n_pairs" not in spec:
        raise ConfigError(f"{field}.n_pairs: required")
    n_pairs = _require_int(spec["n_pairs"], f"{field}.n_pairs")
    if n_pairs < 1:
        raise ConfigError(f"{field}.n_pairs: must be >= 1, got {n_pairs}")
    seed = _require_int(spec.get("seed", 0), f"{field}.seed")
    det_spec = spec.get("detectors")
    if det_spec is None:
        detectors = DetectorBank()
    else:
        det_spec = _require_mapping(det_spec, f"{field}.detectors")
        allowed = ("eta_1p", "eta_1m", "eta_2p", "eta_2m")
        _reject_unknown(det_spec, allowed, f"{field}.detectors")
        try:
            detectors = DetectorBank(
                **{
                    k: _require_number(v, f"{field}.detectors.{k}")
                    for k, v in det_spec.items()
                }
            )
        except ValueError as exc:
            raise ConfigError(f"{field}.detectors: {exc}") from exc
    return CountingOptions(n_pairs=n_pairs, seed=seed, detectors=detectors)


@dataclass(frozen=True)
class OutputOptions:
    format: str = "csv"
    path: str = "-"


def parse_output(spec, field: str = "output") -> OutputOptions:
    if spec is None:
        return OutputOptions()
    spec = _require_mapping(spec, field)
    _reject_unknown(spec, ("format", "path"), field)
    fmt = spec.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{field}.format: must be 'csv' or 'json', got {fmt!r}")
    path = spec.get("path", "-")
    if not isinstance(path, str) or not path:
        raise ConfigError(f"{field}.path: expected a non-empty string")
    return OutputOptions(format=fmt, path=path)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ClonerParams
    noise: NoiseConfig
    inputs: tuple[Qubit, ...]
    is_sweep: bool
    counting: CountingOptions | None
    output: OutputOptions
    label: str | None = None


_TOP_LEVEL_KEYS = ("label", "model", "noise", "input", "sweep", "counting", "output")


def parse_experiment(config, field: str = "") -> ExperimentConfig:
    prefix = f"{field}." if field else ""
    config = _require_mapping(config, field or "config")
    _reject_unknown(config, _TOP_LEVEL_KEYS, field or "config")
    if "model" not in config:
        raise ConfigError(f"{prefix}model: required")
    label = config.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"{prefix}label: expected a string")
    if label is not None and any(c in label for c in ",\n\r"):
        raise ConfigError(
            f"{prefix}label: must not contain a comma or a line break, got {label!r}"
        )
    return ExperimentConfig(
        model=parse_model(config["model"], f"{prefix}model"),
        noise=parse_noise(config.get("noise"), f"{prefix}noise"),
        inputs=tuple(parse_inputs(config, field)),
        is_sweep="sweep" in config,
        counting=parse_counting(config.get("counting"), f"{prefix}counting"),
        output=parse_output(config.get("output"), f"{prefix}output"),
        label=label,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _row_seeds(seed: int, n_rows: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n_rows)]


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """One result row per input state, in sweep order."""
    rows = []
    counting = config.counting
    seeds = _row_seeds(counting.seed, len(config.inputs)) if counting else None
    batch, joints = evaluate_batch(config.model, config.noise, config.inputs)
    for index, (qubit, (f1, f2, p_succ)) in enumerate(zip(config.inputs, batch.rows())):
        row: dict[str, Any] = {
            "theta": qubit.theta,
            "phi": qubit.phi,
            "F1": f1,
            "F2": f2,
            "P_succ": p_succ,
        }
        if counting:
            record = _simulate(
                config.model,
                config.noise,
                qubit,
                counting.n_pairs,
                counting.detectors,
                seeds[index],
                state=(p_succ, joints[index]),
            )
            estimates = fidelity_from_counts(record)
            row.update(
                {
                    "C_pp": record.c_pp,
                    "C_pm": record.c_pm,
                    "C_mp": record.c_mp,
                    "C_mm": record.c_mm,
                    "F1_hat": None if estimates is None else estimates[0],
                    "F2_hat": None if estimates is None else estimates[1],
                    "P_hat": success_probability_estimate(record),
                }
            )
        rows.append(row)
    return rows


def compare_experiments(configs: list[ExperimentConfig]) -> list[dict]:
    """One summary row per labeled configuration."""
    if len(configs) < 2:
        raise ConfigError("configs: compare needs at least 2 configurations")
    labels = [c.label for c in configs]
    if any(label is None for label in labels):
        raise ConfigError("configs: every compared configuration needs a label")
    if len(set(labels)) != len(labels):
        raise ConfigError(f"configs: duplicate labels {sorted(labels)}")
    summary = []
    for config in configs:
        rows = run_experiment(config)
        f1 = [r["F1"] for r in rows if r["F1"] is not None]
        f2 = [r["F2"] for r in rows if r["F2"] is not None]
        p = [r["P_succ"] for r in rows]
        row: dict[str, Any] = {
            "label": config.label,
            "F1_mean": sum(f1) / len(f1) if f1 else None,
            "F2_mean": sum(f2) / len(f2) if f2 else None,
            "P_succ": sum(p) / len(p) if p else None,
            "rate_proxy": None,
        }
        if config.counting:
            proxies = [r["P_hat"] for r in rows]
            row["rate_proxy"] = sum(proxies) / len(proxies)
        summary.append(row)
    return summary


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.10g" % float(value)


def _rounded(value):
    if value is None or isinstance(value, (str, int, np.integer)):
        return int(value) if isinstance(value, np.integer) else value
    return float("%.10g" % float(value))


def render_rows(rows: list[dict], fmt: str) -> str:
    """Serialize result rows; numeric precision is 10 significant digits."""
    if not rows:
        raise ValueError("no rows to render")
    columns = list(rows[0].keys())
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(
                ",".join(
                    str(v) if isinstance(v, str) else format_number(v)
                    for v in (row[c] for c in columns)
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = [{c: _rounded(row[c]) for c in columns} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Inverse of :func:`render_rows` (numbers come back as floats/ints)."""
    if fmt == "json":
        return json.loads(text)
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, cell in zip(header, line.split(",")):
            if cell == "":
                row[key] = None
            elif key in ("label",):
                row[key] = cell
            elif key.startswith("C_") or key in ("n_pairs", "seed"):
                row[key] = int(cell)
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows
