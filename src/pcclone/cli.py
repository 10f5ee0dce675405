"""Command-line interface::

    pcclone COMMAND --config FILE [--seed N] [--out PATH] [--format csv|json]

:data:`COMMANDS` names the commands and the line ``pcclone --help`` shows for
each; options may come before or after the command.  Exit codes: 0 success,
2 validation error, 3 I/O error.  ``--seed`` overrides the seed of every
counting block and needs at least one; ``--out`` and ``--format`` override
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
    CompareConfig,
    ConfigError,
    CountingOptions,
    OptimizeConfig,
    OutputOptions,
    compare_experiments,
    parse_experiment,
    render_rows,
    run_experiment,
    _read,
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


def _reseed(configs, seed):
    """``configs`` with every counting seed replaced by --seed, if given."""
    if seed is None:
        return configs
    if all(config.counting is None for config in configs):
        raise ConfigError(
            "counting: --seed given but the configuration has no counting block"
        )
    return tuple(
        config if config.counting is None else replace(config, counting=_read(
            CountingOptions, {"seed": seed}, "counting", base=config.counting))
        for config in configs
    )


def _emit(rows, args, output):
    """Write ``rows`` as the output block says, after --out and --format."""
    overrides = {"path": args.out, "format": args.format}
    output = _read(OutputOptions, {k: v for k, v in overrides.items() if v is not None},
                   "output", base=output or OutputOptions())
    _write_output(output.path, render_rows(rows, output.format))


def cmd_experiment(args):
    """``run``, ``sweep`` and ``montecarlo``: one configuration, one row per input."""
    (config,) = _reseed((parse_experiment(_load_json(args.config)),), args.seed)
    if args.command == "sweep" and config.sweep is None:
        raise ConfigError("sweep: this configuration has no sweep block")
    if args.command == "montecarlo" and config.counting is None:
        raise ConfigError("counting: required for the montecarlo subcommand")
    _emit(run_experiment(config), args, config.output)


def cmd_compare(args):
    config = _read(CompareConfig, _load_json(args.config), "")
    _emit(compare_experiments(_reseed(config.configs, args.seed)), args, config.output)


def cmd_optimize(args):
    config = _read(OptimizeConfig, _load_json(args.config), "")
    _reseed((), args.seed)  # an optimize document has no counting block
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


#: command -> (handler, the line ``--help`` shows for it)
COMMANDS = {
    "run": (cmd_experiment, "evaluate a configuration (single input or sweep)"),
    "sweep": (cmd_experiment, "evaluate a sweep configuration"),
    "compare": (cmd_compare, "summarize several labeled configurations"),
    "optimize": (cmd_optimize, "tune free parameters against an objective"),
    "montecarlo": (cmd_experiment, "simulate coincidence counting"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcclone",
        description="Simulate symmetric phase-covariant cloning of photonic qubits.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12}{text}" for name, (_, text) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="what to do (see below)")
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--seed", type=int, help="override the counting seed")
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
