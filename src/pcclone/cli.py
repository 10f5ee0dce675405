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

from .compensation import optimize_symmetry
from .experiment import (
    ConfigError,
    CountingOptions,
    OptimizeConfig,
    OutputOptions,
    compare_experiments,
    parse_experiment,
    render_rows,
    run_experiment,
    _read,
    _reject_unknown,
    _require_mapping,
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
    counting = _read(CountingOptions, {"seed": seed}, "counting", base=config.counting)
    return replace(config, counting=counting)


def _emit(rows, args, output):
    """Write ``rows`` as the output block says, after --out and --format."""
    overrides = {"path": args.out, "format": args.format}
    output = _read(OutputOptions, {k: v for k, v in overrides.items() if v is not None},
                   "output", base=output)
    _write_output(output.path, render_rows(rows, output.format))


def cmd_experiment(args) -> int:
    """``run``, ``sweep`` and ``montecarlo``: one configuration, one row per input."""
    config = parse_experiment(_load_json(args.config))
    if args.seed is not None and config.counting is None:
        raise ConfigError(
            "counting: --seed given but the configuration has no counting block"
        )
    config = _reseed(config, args.seed)
    if args.command == "sweep" and not config.is_sweep:
        raise ConfigError("sweep: this configuration has no sweep block")
    if args.command == "montecarlo" and config.counting is None:
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
    output = _read(OutputOptions, raw.get("output"), "output")
    _emit(compare_experiments(configs), args, output)
    return EXIT_OK


def cmd_optimize(args) -> int:
    raw = _require_mapping(_load_json(args.config), "config")
    config = _read(OptimizeConfig, raw, "")
    try:
        result = optimize_symmetry(config.model, config.free_parameters,
                                   config.objective, input=config.input,
                                   grid_points=config.grid_points)
    except ValueError as exc:
        raise ConfigError(f"optimize: {exc}") from exc

    row = {
        "objective": config.objective,
        "objective_value": result.objective_value,
        "F1": result.report.F1,
        "F2": result.report.F2,
        "P_succ": result.report.P_succ,
    }
    for name in config.free_parameters:
        row[name] = getattr(result.params, name)
    _emit([row], args, config.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcclone",
        description="Simulate symmetric phase-covariant cloning of photonic qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": (cmd_experiment, "evaluate a configuration (single input or sweep)"),
        "sweep": (cmd_experiment, "evaluate a sweep configuration"),
        "compare": (cmd_compare, "summarize several labeled configurations"),
        "optimize": (cmd_optimize, "tune free parameters against an objective"),
        "montecarlo": (cmd_experiment, "simulate coincidence counting"),
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
