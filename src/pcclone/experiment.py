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
``output`` are optional; unknown keys anywhere are rejected.  A sweep holds at
most ``MAX_ROWS`` rows and a counting block at most ``MAX_PAIRS`` pairs.

Every section, and the ``pcclone optimize`` document (:class:`OptimizeConfig`),
is read from the fields and types of its frozen dataclass.  Model variants are
``ClonerParams.variants``; their fields (all optional, defaults are the ideal
settings):

* ``special_bs``:   R0, R1, sign_convention, comp_loss_r0, comp_loss_r1
* ``mach_zehnder``: theta_V, theta_H, phase_offset_r0, phase_offset_r1
* ``hybrid``:       r, t, r0, t0, r1, t1, eta0, eta1, nu0, nu1
* ``fiber``:        R_vrc0, R_vrc1, analysis_phases, detection_ratio_1,
                    detection_ratio_2

Numeric output uses 10 significant digits; identical configuration and seed
produce byte-identical files.

Fields are checked when the configuration is read.  One
:func:`run_model_batch` call per configuration evaluates every row at any
``overlap_M``.  Static counting rows are counted in one further batch call,
which takes every row's registration probabilities from its joint states
and leaves one seeded multinomial draw per row; rows under phase jitter
each run their own jitter walk.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
from dataclasses import dataclass, replace
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .cloners import MAX_ROWS, ClonerParams, run_model_batch
from .compensation import OBJECTIVES, _check_grid
from .counting import (
    DetectorBank,
    _check_pairs,
    _check_seed,
    _count_static,
    fidelity_from_counts,
    simulate_counts,
    success_probability_estimate,
)
from .fock import Qubit
from .noise import NoiseConfig, jittered


class ConfigError(ValueError):
    """Invalid configuration content; the message names the offending field."""


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


def _require_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{field}: expected a string, got {value!r}")
    return value


def _reject_unknown(mapping: dict, allowed, field: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{field}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _reader(tp):
    """A function (value, field) -> value of the annotated field type ``tp``."""
    args = get_args(tp)
    if isinstance(tp, types.UnionType):  # X | None
        (inner,) = (_reader(a) for a in args if a is not type(None))
        return lambda value, field: None if value is None else inner(value, field)
    if get_origin(tp) is tuple:
        items = [_reader(a) for a in args]

        def read_tuple(value, field):
            if not isinstance(value, (list, tuple)) or len(value) != len(items):
                raise ConfigError(
                    f"{field}: expected a list of {len(items)} values, got {value!r}"
                )
            return tuple([read(v, f"{field}[{i}]")
                          for i, (read, v) in enumerate(zip(items, value))])
        return read_tuple
    if get_origin(tp) is dict:
        item = _reader(args[1])
        return lambda value, field: {
            key: item(v, f"{field}.{key}")
            for key, v in _require_mapping(value, field).items()
        }
    if tp is ClonerParams:
        return parse_model
    if dataclasses.is_dataclass(tp):
        return functools.partial(_read, tp)
    return {float: _require_number, int: _require_int, str: _require_str}[tp]


@functools.cache
def _schema(cls):
    """Field readers, required fields and the all-default instance of ``cls``."""
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    readers = {f.name: _reader(hints[f.name]) for f in fields}
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    return readers, required, None if required else cls()


def _read(cls, spec, field: str, base=None):
    """The frozen dataclass ``cls`` built from the JSON object ``spec``.

    Each key is a field of ``cls``, read by the field's type: a number, an
    integer, a string, ``X | None``, a tuple, a ``dict[str, X]``, a nested
    config dataclass or a :class:`ClonerParams` variant.  Omitted fields keep
    their value in ``base`` or else their default; ``None`` stands for an
    empty object.  A ValueError of ``cls`` becomes a :class:`ConfigError`
    under ``field``, joined to the field name the message starts with.
    """
    readers, required, default = _schema(cls)
    if spec is None or spec == {}:
        spec = {}
        if base is not None or default is not None:
            return default if base is None else base
    if not isinstance(spec, dict) or not spec.keys() <= readers.keys():
        _reject_unknown(_require_mapping(spec, field or "config"), readers,
                        field or "config")
    prefix = f"{field}." if field else ""
    if base is None:
        for name in required:
            if name not in spec:
                raise ConfigError(f"{prefix}{name}: required")
    values = {}
    for key, value in spec.items():
        values[key] = readers[key](value, prefix + key)
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        named = str(exc).split(" ", 1)[0] in readers
        where = prefix if named else f"{field or 'config'}: "
        raise ConfigError(f"{where}{exc}") from exc


def parse_model(spec, field: str = "model") -> ClonerParams:
    spec = dict(_require_mapping(spec, field))
    variant = spec.pop("variant", None)
    cls = ClonerParams.variants.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ConfigError(f"{field}.variant: must be one of "
                          f"{sorted(ClonerParams.variants)}, got {variant!r}")
    return _read(cls, spec, field, base=cls.ideal())


def _parse_axis(spec, field: str) -> list[float]:
    if isinstance(spec, dict):
        _reject_unknown(spec, ("start", "stop", "count"), field)
        for key in ("start", "stop", "count"):
            if key not in spec:
                raise ConfigError(f"{field}.{key}: required in a range sweep")
        count = _require_int(spec["count"], f"{field}.count")
        if not 1 <= count <= MAX_ROWS:
            raise ConfigError(f"{field}.count: must lie in [1, {MAX_ROWS}], got {count}")
        start = _require_number(spec["start"], f"{field}.start")
        stop = _require_number(spec["stop"], f"{field}.stop")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + k * step for k in range(count)]
    values = spec if isinstance(spec, list) else [spec]
    if not 1 <= len(values) <= MAX_ROWS:
        raise ConfigError(f"{field}: sweep list must be non-empty and hold at most "
                          f"{MAX_ROWS} values, got {len(values)}")
    return [_require_number(v, field) for v in values]


def parse_inputs(config: dict, field: str = "") -> list[Qubit]:
    prefix = f"{field}." if field else ""
    has_input = "input" in config
    has_sweep = "sweep" in config
    if has_input == has_sweep:
        raise ConfigError(
            f"{prefix}input/sweep: exactly one of 'input' or 'sweep' is required"
        )
    if has_input:
        return [_read(Qubit, config["input"], f"{prefix}input")]
    spec = _require_mapping(config["sweep"], f"{prefix}sweep")
    _reject_unknown(spec, ("theta", "phi"), f"{prefix}sweep")
    thetas = _parse_axis(spec.get("theta", math.pi / 2.0), f"{prefix}sweep.theta")
    phis = _parse_axis(spec.get("phi", 0.0), f"{prefix}sweep.phi")
    if len(thetas) * len(phis) > MAX_ROWS:
        raise ConfigError(f"{prefix}sweep: at most {MAX_ROWS} rows, "
                          f"got {len(thetas)} x {len(phis)}")
    try:
        return [Qubit(th, ph) for th in thetas for ph in phis]
    except ValueError as exc:
        raise ConfigError(f"{prefix}sweep: {exc}") from exc


@dataclass(frozen=True)
class CountingOptions:
    n_pairs: int
    seed: int = 0
    detectors: DetectorBank = DetectorBank()

    def __post_init__(self):
        _check_pairs(self.n_pairs)
        _check_seed(self.seed)


@dataclass(frozen=True)
class OutputOptions:
    format: str = "csv"
    path: str = "-"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if not isinstance(self.path, str) or not self.path:
            raise ValueError(f"path must be a non-empty string, got {self.path!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ClonerParams
    noise: NoiseConfig
    inputs: tuple[Qubit, ...]
    is_sweep: bool
    counting: CountingOptions | None
    output: OutputOptions
    label: str | None = None


@dataclass(frozen=True)
class OptimizeConfig:
    """The document of ``pcclone optimize``; see :func:`optimize_symmetry`."""

    model: ClonerParams
    free_parameters: dict[str, tuple[float, float]]
    objective: str
    input: Qubit = Qubit.equatorial(0.0)
    grid_points: int = 33
    output: OutputOptions = OutputOptions()

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {sorted(OBJECTIVES)}, "
                             f"got {self.objective!r}")
        _check_grid(self.grid_points, len(self.free_parameters))


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
    counting = config.get("counting")
    return ExperimentConfig(
        model=parse_model(config["model"], f"{prefix}model"),
        noise=_read(NoiseConfig, config.get("noise"), f"{prefix}noise"),
        inputs=tuple(parse_inputs(config, field)),
        is_sweep="sweep" in config,
        counting=None if counting is None
        else _read(CountingOptions, counting, f"{prefix}counting"),
        output=_read(OutputOptions, config.get("output"), f"{prefix}output"),
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
    batch = run_model_batch(config.model, config.inputs, config.noise.overlap_M)
    if counting:
        seeds = _row_seeds(counting.seed, len(config.inputs))
        if jittered(config.model, config.noise):
            records = [simulate_counts(config.model, config.noise, qubit,
                                       counting.n_pairs, counting.detectors, seed)
                       for qubit, seed in zip(config.inputs, seeds)]
        else:
            records = _count_static(config.model, config.inputs, counting.n_pairs,
                                    counting.detectors, seeds, batch)
    for index, (qubit, (f1, f2, p_succ)) in enumerate(zip(config.inputs, batch.rows())):
        row: dict[str, Any] = {
            "theta": qubit.theta,
            "phi": qubit.phi,
            "F1": f1,
            "F2": f2,
            "P_succ": p_succ,
        }
        if counting:
            record = records[index]
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
