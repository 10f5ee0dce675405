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

Every document (:class:`ExperimentConfig`, :class:`CompareConfig` for
``pcclone compare``, :class:`OptimizeConfig` for ``pcclone optimize``) and
every section of one is read by :func:`_read` from the fields and types of its
frozen dataclass.  Model variants are ``ClonerParams.variants``; their fields
are their dataclass fields, all optional, whose defaults are the ideal settings.

Fields are checked when the configuration is read; a sweep's inputs become
one theta-major :class:`Qubit` of arrays, validated in one pass.  One
:func:`run_model_batch` call per configuration evaluates every row at any
``overlap_M``, and the theta and phi columns come straight from the arrays.
A counted configuration makes one counting call on the batch
(``counting._count_rows``), which tells static rows from rows under phase
jitter; its estimate columns come from the estimator of the count records.

Results are columns: :func:`run_experiment` and :func:`compare_experiments`
return a mapping from column name to a list with one entry per row.
:func:`render_rows` formats each column once and fills one row template.
Numbers keep 10 significant digits: a float prints as ``"%.10g" % x`` in
CSV and as ``repr(float("%.10g" % x))`` in JSON.  Identical configuration
and seed produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import re
import types
from dataclasses import dataclass, replace
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .cloners import MAX_ROWS, ClonerParams, run_model_batch
from .counting import DetectorBank, _count_rows, _estimate_columns, _row_seeds
from .fock import (Qubit, _check_choice, _check_exactly_one, _check_finite, _check_integer,
                   _check_non_negative, _check_pairs, _check_string, _Checked, _instance_of,
                   _or_none, _require)
from .noise import NoiseConfig


class ConfigError(ValueError):
    """Invalid configuration content; the message names the offending field."""


def _require_mapping(obj, field: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{field}: expected an object, got {type(obj).__name__}")
    return obj


def _checked(check, convert=None):
    """A JSON reader ``read(value, field, *rules)``: ``check(field, value, *rules)``,
    its ValueError raised as a ConfigError, then the value or ``convert(value)``."""
    def read(value, field, *rules):
        try:
            check(field, value, *rules)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return value if convert is None else convert(value)
    return read


_read_number = _checked(_check_finite, float)
_read_integer = _checked(_check_integer)


def _reject_unknown(mapping: dict, allowed, field: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{field}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _reader(tp):
    """A function (value, field) -> value of the annotated field type ``tp``."""
    args = get_args(tp)
    if get_origin(tp) is Annotated:  # the field names its own reader
        return tp.__metadata__[0]
    if isinstance(tp, types.UnionType):  # X | None
        (inner,) = (_reader(a) for a in args if a is not type(None))
        return lambda value, field: None if value is None else inner(value, field)
    if get_origin(tp) is tuple:
        variadic = args[-1] is Ellipsis  # tuple[X, ...]: a list of any length
        items = [_reader(a) for a in args if a is not Ellipsis]
        expected = "a list" if variadic else f"a list of {len(items)} values"

        def read_tuple(value, field):
            if not isinstance(value, (list, tuple)) or (
                    not variadic and len(value) != len(items)):
                raise ConfigError(f"{field}: expected {expected}, got {value!r}")
            readers = items * len(value) if variadic else items
            return tuple([read(v, f"{field}[{i}]")
                          for i, (read, v) in enumerate(zip(readers, value))])
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
    return {float: _read_number, int: _read_integer, str: _checked(_check_string)}[tp]


@functools.cache
def _schema(cls):
    """Field readers, required fields and the all-default instance of ``cls``."""
    hints = get_type_hints(cls, include_extras=True)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    readers = {f.name: _reader(hints[f.name]) for f in fields}
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    return readers, required, None if required else cls()


def _read(cls, spec, field: str, base=None):
    """The frozen dataclass ``cls`` built from the JSON object ``spec``.

    Each key is a field of ``cls``, read by the field's type: a number, an
    integer, a string, ``X | None``, a fixed tuple, ``tuple[X, ...]`` (a
    list), a ``dict[str, X]``, a nested config dataclass, a
    :class:`ClonerParams` variant, or ``Annotated[X, reader]``.  Omitted
    fields keep their value in ``base`` or else their default; below the
    top level, ``None`` stands for an empty object.  A ValueError of ``cls``
    becomes a :class:`ConfigError` under ``field``, joined to the field name
    the message starts with.
    """
    readers, required, default = _schema(cls)
    if spec == {} or (spec is None and field):
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
    values = {key: readers[key](value, prefix + key) for key, value in spec.items()}
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        named = re.split(r"[ :./\[]", str(exc), maxsplit=1)[0] in readers
        where = prefix if named else f"{field or 'config'}: "
        raise ConfigError(f"{where}{exc}") from exc


def _block(cls):
    """The reader of an optional block ``cls | None`` whose JSON null is an error."""
    return lambda value, field: _read(cls, _require_mapping(value, field), field)


def parse_model(spec, field: str = "model") -> ClonerParams:
    spec = dict(_require_mapping(spec, field))
    variant = spec.pop("variant", None)
    _checked(_check_choice)(variant, f"{field}.variant", sorted(ClonerParams.variants))
    return _read(ClonerParams.variants[variant], spec, field)


def _parse_axis(spec, field: str, domain=(-math.inf, math.inf)) -> tuple[float, ...]:
    """One sweep axis: a number, a list of numbers or an inclusive range.

    A range value that rounding carries past an endpoint and out of
    ``domain`` is put back on the endpoint.
    """
    if isinstance(spec, dict):
        _reject_unknown(spec, ("start", "stop", "count"), field)
        for key in ("start", "stop", "count"):
            if key not in spec:
                raise ConfigError(f"{field}.{key}: required in a range sweep")
        count = _read_integer(spec["count"], f"{field}.count", 1, MAX_ROWS)
        start = _read_number(spec["start"], f"{field}.start")
        stop = _read_number(spec["stop"], f"{field}.stop")
        if count == 1:
            return (start,)
        step = (stop - start) / (count - 1)
        low, high = sorted((start, stop))
        return tuple(v if domain[0] <= v <= domain[1] else min(max(v, low), high)
                     for v in (start + k * step for k in range(count)))
    values = spec if isinstance(spec, list) else [spec]
    return tuple([_read_number(v, field) for v in values])


def _check_axis(name, value):
    """Raise ValueError unless ``value`` is a tuple of 1 to ``MAX_ROWS`` entries."""
    if not isinstance(value, tuple):
        raise ValueError(f"{name} must be a tuple of numbers, got {value!r}")
    _require(1 <= len(value) <= MAX_ROWS, len(value), f"{name} must hold 1 to {MAX_ROWS} values")


def _check_rows(name_theta, name_phi, theta, phi):
    _require(len(theta) * len(phi) <= MAX_ROWS, f"{len(theta)} x {len(phi)}",
             f"at most {MAX_ROWS} rows")


@dataclass(frozen=True)
class Sweep(_Checked):
    """The ``sweep`` block: one input per (theta, phi) pair, theta-major."""

    theta: Annotated[tuple[float, ...], functools.partial(
        _parse_axis, domain=(0.0, math.pi))] = (math.pi / 2.0,)
    phi: Annotated[tuple[float, ...], _parse_axis] = (0.0,)
    inputs: Qubit = dataclasses.field(init=False, repr=False, compare=False)

    _checks = ((_check_axis, "theta"), (_check_axis, "phi"), (_check_rows, "theta", "phi"))

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "inputs", Qubit(np.repeat(self.theta, len(self.phi)),
                                                 np.tile(self.phi, len(self.theta))))


@dataclass(frozen=True)
class CountingOptions(_Checked):
    n_pairs: int
    seed: int = 0
    detectors: DetectorBank = DetectorBank()

    _checks = ((_check_pairs, "n_pairs"), (_check_non_negative, "seed"),
               (_instance_of(DetectorBank), "detectors"))


#: the output formats of :func:`render_rows`
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class OutputOptions(_Checked):
    format: str = "csv"
    path: str = "-"

    _checks = ((functools.partial(_check_choice, choices=FORMATS), "format"),
               (functools.partial(_check_string, empty=False), "path"))


def _check_label(name, value):
    """Raise ValueError unless ``value`` is a string that fits one CSV cell."""
    _check_string(name, value)
    if any(c in value for c in ",\n\r"):
        raise ValueError(f"{name} must not contain a comma or a line break, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig(_Checked):
    """The document of ``pcclone run``, ``sweep`` and ``montecarlo``."""

    model: ClonerParams
    noise: NoiseConfig = NoiseConfig()
    input: Annotated[Qubit | None, _block(Qubit)] = None
    sweep: Annotated[Sweep | None, _block(Sweep)] = None
    counting: CountingOptions | None = None
    output: OutputOptions | None = None
    label: str | None = None

    _checks = ((_instance_of(ClonerParams), "model"), (_instance_of(NoiseConfig), "noise"),
               (_or_none(_instance_of(Qubit)), "input"), (_or_none(_instance_of(Sweep)), "sweep"),
               (_or_none(_instance_of(CountingOptions)), "counting"),
               (_or_none(_instance_of(OutputOptions)), "output"),
               (_check_exactly_one, "input", "sweep"), (_or_none(_check_label), "label"))

    @property
    def inputs(self) -> Qubit:
        """The input states, one per output row: one Qubit, of arrays for a sweep."""
        return self.input if self.sweep is None else self.sweep.inputs


def _check_compared(name, configs):
    """Raise ValueError unless compare can take ``configs`` (see :func:`_compared_labels`)."""
    if not (isinstance(configs, tuple) and all(isinstance(c, ExperimentConfig) for c in configs)):
        raise ValueError(f"{name} must be a tuple of ExperimentConfig, got {configs!r}")
    for i, config in enumerate(configs):
        if config.output is not None:
            raise ValueError(f"{name}[{i}].output: a compared configuration "
                             "takes no output block; the top-level one applies")
    _compared_labels(configs)


@dataclass(frozen=True)
class CompareConfig(_Checked):
    """The document of ``pcclone compare``: labeled configurations, one output."""

    configs: tuple[ExperimentConfig, ...]
    output: OutputOptions = OutputOptions()

    _checks = ((_check_compared, "configs"), (_instance_of(OutputOptions), "output"))


@dataclass(frozen=True)
class OptimizeConfig:
    """The document of ``pcclone optimize``, checked by :func:`optimize_symmetry`."""

    model: ClonerParams
    free_parameters: dict[str, tuple[float, float]]
    objective: str
    input: Qubit = Qubit.equatorial(0.0)
    grid_points: int = 33
    output: OutputOptions = OutputOptions()


def parse_experiment(config) -> ExperimentConfig:
    return _read(ExperimentConfig, config, "")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> dict[str, list]:
    """Columns theta, phi, F1, F2, P_succ (and, counted, C_pp, C_pm, C_mp,
    C_mm, F1_hat, F2_hat, P_hat), one entry per input state in sweep order.
    An empty row has fidelities None, a row without coincidences estimates None.
    """
    inputs = config.inputs
    counting = config.counting
    batch = run_model_batch(config.model, inputs, config.noise.overlap_M)
    fidelities = batch.F1.tolist(), batch.F2.tolist()
    for i in np.flatnonzero(batch.P_succ <= 0.0).tolist():
        fidelities[0][i] = fidelities[1][i] = None
    columns = {
        "theta": np.ravel(inputs.theta).tolist(),
        "phi": np.ravel(inputs.phi).tolist(),
        "F1": fidelities[0],
        "F2": fidelities[1],
        "P_succ": batch.P_succ.tolist(),
    }
    if counting:
        seeds = _row_seeds(counting.seed, len(batch.P_succ))
        counts = _count_rows(config.model, config.noise, inputs, counting.n_pairs,
                             counting.detectors, seeds, batch)
        columns.update(_estimate_columns(counts, counting.n_pairs))
    return columns


def _mean(values):
    """The mean of the entries that are not None, in order; None if there are none."""
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _compared_labels(configs) -> list[str]:
    """The labels of ``configs``, which compare needs: two or more, each labeled,
    all distinct."""
    if len(configs) < 2:
        raise ConfigError("configs: compare needs at least 2 configurations")
    labels = [c.label for c in configs]
    if any(label is None for label in labels):
        raise ConfigError("configs: every compared configuration needs a label")
    if len(set(labels)) != len(labels):
        raise ConfigError(f"configs: duplicate labels {sorted(labels)}")
    return labels


def compare_experiments(configs: list[ExperimentConfig]) -> dict[str, list]:
    """Columns label, F1_mean, F2_mean, P_succ (the mean over rows) and
    rate_proxy (the mean P_hat, None uncounted), one entry per configuration."""
    labels = _compared_labels(configs)
    means = [[_mean(result.get(name, ())) for name in ("F1", "F2", "P_succ", "P_hat")]
             for result in map(run_experiment, configs)]
    return dict(zip(("label", "F1_mean", "F2_mean", "P_succ", "rate_proxy"),
                    [labels, *map(list, zip(*means))]))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _cell(value, fmt: str) -> str:
    """One cell: None is empty (null), a string and an integer print as
    themselves and anything else as a float of 10 significant digits."""
    if value is None:
        return "" if fmt == "csv" else "null"
    if isinstance(value, str):
        return value if fmt == "csv" else json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = "%.10g" % float(value)
    return text if fmt == "csv" else json.dumps(float(text))


def _fixed_point(values) -> bool:
    """Whether every float prints with ``"%.10g"`` as its JSON number does.

    A magnitude of at least 1e-4 that lies farther than 1e-9 of itself from
    every integer (so finite, below 5e8) prints in fixed point with a
    fraction at 10 digits, and parses to a normal float whose ``repr`` has
    the same digits: no two decimals of at most 15 digits parse to one float.
    """
    a = np.abs(np.array(values, dtype=float))
    fraction = np.modf(a)[0]
    return bool(((a >= 1e-4) & (np.minimum(fraction, 1.0 - fraction) > 1e-9 * a)).all())


def _column(values, fmt: str) -> tuple[str, list]:
    """The row-template field of one column and the values it formats."""
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types) and (fmt == "csv" or _fixed_point(values)):
        return "%.10g", values
    if all(issubclass(t, (int, np.integer)) for t in types):
        return "%d", values
    return "%s", [_cell(v, fmt) for v in values]


def render_rows(columns: dict, fmt: str) -> str:
    """CSV rows or a JSON array of row objects from ``columns``, a mapping
    from column name to its list (or array) of values, one per row.

    Each column is formatted once, into one row template.  A float prints
    as ``"%.10g" % x`` in CSV and ``repr(float("%.10g" % x))`` in JSON
    (``Infinity``, ``NaN`` when not finite); None is empty or ``null``.
    """
    _check_choice("format", fmt, FORMATS)
    lengths = {len(values) for values in columns.values()}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"columns must hold one or more rows, all as many; "
                         f"got lengths {sorted(lengths)}")
    fields, cells = zip(*[_column(values, fmt) for values in columns.values()])
    flat = tuple(itertools.chain.from_iterable(zip(*cells)))
    (n,) = lengths
    if fmt == "csv":
        return ",".join(columns) + "\n" + (",".join(fields) + "\n") * n % flat
    row = "  {\n" + ",\n".join(
        f"    {json.dumps(name).replace('%', '%%')}: {field}"
        for name, field in zip(columns, fields)) + "\n  }"
    return "[\n" + ",\n".join([row] * n) % flat + "\n]\n"
