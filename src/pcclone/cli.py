"""Command-line interface.

Subcommands::

    pcclone run        --config experiment.json [--seed N] [--out PATH] [--format csv|json]
    pcclone sweep      --config experiment.json ...   (requires a sweep block)
    pcclone montecarlo --config experiment.json ...   (requires a counting block)
    pcclone compare    --config compare.json ...      (file holds {"configs": [...]})
    pcclone optimize   --config optimize.json ...

Exit codes: 0 success, 2 validation error, 3 I/O error.  ``--seed`` overrides
the counting seed from the configuration; ``--out`` and ``--format`` override
the output block ('-' writes to stdout).  Identical configuration and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .compensation import OBJECTIVES, optimize_symmetry
from .experiment import (
    ConfigError,
    compare_experiments,
    parse_experiment,
    parse_inputs,
    parse_model,
    parse_output,
    render_rows,
    run_experiment,
    _reject_unknown,
    _require_int,
    _require_mapping,
    _require_number,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config: not valid UTF-8 ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc


def _write_output(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _reseed(config, seed):
    """``config`` with its counting seed replaced by --seed, when both exist."""
    if seed is None or config.counting is None:
        return config
    return replace(config, counting=replace(config.counting, seed=seed))


def _load_experiment(args):
    config = parse_experiment(_load_json(args.config))
    if args.seed is not None and config.counting is None:
        raise ConfigError(
            "counting: --seed given but the configuration has no counting block"
        )
    return _reseed(config, args.seed)


def _emit(rows, args, output):
    """Write ``rows`` as the output block says, after --out and --format."""
    if args.out is not None:
        output = replace(output, path=args.out)
    if args.format is not None:
        output = replace(output, format=args.format)
    _write_output(output.path, render_rows(rows, output.format))


def cmd_run(args) -> int:
    config = _load_experiment(args)
    _emit(run_experiment(config), args, config.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_experiment(args)
    if not config.is_sweep:
        raise ConfigError("sweep: this configuration has no sweep block")
    _emit(run_experiment(config), args, config.output)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    config = _load_experiment(args)
    if config.counting is None:
        raise ConfigError("counting: required for the montecarlo subcommand")
    _emit(run_experiment(config), args, config.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    raw = _require_mapping(_load_json(args.config), "config")
    _reject_unknown(raw, ("configs", "output"), "config")
    if "configs" not in raw or not isinstance(raw["configs"], list):
        raise ConfigError("configs: expected a list of configurations")
    configs = [
        _reseed(parse_experiment(entry, f"configs[{i}]"), args.seed)
        for i, entry in enumerate(raw["configs"])
    ]
    output = parse_output(raw.get("output"))
    _emit(compare_experiments(configs), args, output)
    return EXIT_OK


def cmd_optimize(args) -> int:
    raw = _require_mapping(_load_json(args.config), "config")
    allowed = ("model", "free_parameters", "objective", "input", "grid_points",
               "output")
    _reject_unknown(raw, allowed, "config")
    for key in ("model", "free_parameters", "objective"):
        if key not in raw:
            raise ConfigError(f"{key}: required")
    model = parse_model(raw["model"])
    free_raw = _require_mapping(raw["free_parameters"], "free_parameters")
    free = {}
    for name, interval in free_raw.items():
        if not isinstance(interval, list) or len(interval) != 2:
            raise ConfigError(f"free_parameters.{name}: expected [low, high]")
        free[name] = (
            _require_number(interval[0], f"free_parameters.{name}[0]"),
            _require_number(interval[1], f"free_parameters.{name}[1]"),
        )
    objective = raw["objective"]
    if objective not in OBJECTIVES:
        raise ConfigError(
            f"objective: must be one of {sorted(OBJECTIVES)}, got {objective!r}"
        )
    input_qubit = None
    if "input" in raw:
        input_qubit = parse_inputs({"input": raw["input"]})[0]
    grid_points = _require_int(raw.get("grid_points", 33), "grid_points")
    if grid_points < 2:
        raise ConfigError(f"grid_points: must be >= 2, got {grid_points}")
    try:
        result = optimize_symmetry(
            model, free, objective, input=input_qubit, grid_points=grid_points
        )
    except ValueError as exc:
        raise ConfigError(f"optimize: {exc}") from exc

    row = {
        "objective": objective,
        "objective_value": result.objective_value,
        "F1": result.report.F1,
        "F2": result.report.F2,
        "P_succ": result.report.P_succ,
    }
    for name in free:
        row[name] = getattr(result.params, name)
    _emit([row], args, parse_output(raw.get("output")))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcclone",
        description="Simulate symmetric phase-covariant cloning of photonic qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": (cmd_run, "evaluate a configuration (single input or sweep)"),
        "sweep": (cmd_sweep, "evaluate a sweep configuration"),
        "compare": (cmd_compare, "summarize several labeled configurations"),
        "optimize": (cmd_optimize, "tune free parameters against an objective"),
        "montecarlo": (cmd_montecarlo, "simulate coincidence counting"),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the counting seed")
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format override")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
