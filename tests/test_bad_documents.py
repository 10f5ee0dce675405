"""Every golden document, broken one key at a time, ends cleanly, and so
does every numeric field of the library given a bad value.

Each key path of the golden documents (an object's key or a list's entry,
at any depth) takes in turn each of :data:`VALUES`, then is removed.  Each
call runs in process through ``cli.main``, with the case's own arguments
and ``--out -``.  It must exit 0 printing only finite numbers or empty
cells, or exit 2 (a bad document) or 3 (an i/o error) with one stderr line
and no output.  The line of an exit 2 names a key of the broken path.  No
call may raise, and none may take 5 s.

In the library, each field of the value classes (the parameter objects,
the input state, a two-qubit state, a coincidence record and a counting
run) and of the configuration documents, and each argument of the
estimator and of the hybrid compensation solver, takes each of
:data:`LIBRARY_VALUES`: the call returns, or raises ValueError naming the
field.  A float field refuses a bool, Python's or numpy's, and an array of
bools.  A field that holds a value class refuses any other value, and so
does the ``detectors`` argument of the counting calls.  The estimator and the solver take numbers only: each of their
arguments refuses an array, of one entry or more, with a type error naming
itself.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import time
import typing

import numpy as np
import pytest

from pcclone import (
    CoincidenceRecord,
    CountingSetup,
    DetectorBank,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    NoiseConfig,
    Qubit,
    SpecialBSParams,
    TwoQubitState,
    balance_detectors,
    estimator_sigma,
    simulate_counts,
    solve_hybrid_compensation,
)
from pcclone.cli import main
from pcclone.compensation import MAX_MOVES
from pcclone.experiment import (CompareConfig, CountingOptions, ExperimentConfig, OutputOptions,
                                Sweep)
from test_golden import CASES, GOLDEN
from test_value_classes import value_fields

#: the values every key path takes in turn
VALUES = [math.nan, math.inf, -1, 0, -0.0, 1e308, 10**30, True, "x", None, [], {}, 2.5, 1]
#: the values every library field takes in turn: those of a document and
#: two that only Python code can pass
LIBRARY_VALUES = [*VALUES, np.True_, np.array([True])]
#: stands for the removal of a key path
REMOVED = object()
#: the one stderr line of a search that stopped at its budget
BUDGET_WARNING = (f"warning: optimize: the search stopped after {MAX_MOVES} accepted "
                  "moves; the row is its incumbent\n")
#: the one exit-2 line that names no key: a fault of the whole document
NO_COINCIDENCE = "error: optimize: no candidate registers a coincidence"


def key_paths(node, prefix=()):
    """The path of every key and list entry below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def broken(document, path, value):
    """``document`` with ``value`` at ``path``, or without ``path``; the
    objects and lists along ``path`` are copies, the rest is shared."""
    document = copy.copy(document)
    head, *rest = path
    if rest:
        document[head] = broken(document[head], rest, value)
    elif value is REMOVED:
        del document[head]
    else:
        document[head] = value
    return document


def non_finite_cells(out: str, fmt: str) -> list[str]:
    """The cells of CSV or JSON output that hold an infinity or a NaN."""
    if fmt == "json":
        bad = []
        json.loads(out, parse_constant=bad.append)
        return bad
    cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
    bad = []
    for cell in cells:
        try:
            number = float(cell)
        except ValueError:  # an empty cell, a label or an objective's name
            continue
        if not math.isfinite(number):
            bad.append(cell)
    return bad


def names_a_key(line: str, key_path) -> bool:
    """Whether ``line`` holds an object key of ``key_path`` as a word."""
    return any(re.search(rf"(?<!\w){re.escape(key)}(?!\w)", line)
               for key in key_path if isinstance(key, str))


def fault(argv, key_path) -> str | None:
    """What is wrong with the call ``main(argv)`` on a document broken at
    ``key_path``, or None."""
    out, err = io.StringIO(), io.StringIO()
    began = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a traceback, or a RuntimeWarning made an error
        return f"raised {type(exc).__name__}: {exc}"
    if time.perf_counter() - began >= 5.0:
        return "took 5 s or more"
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        fmt = "json" if out.startswith("[") else "csv"
        if non_finite_cells(out, fmt):
            return f"printed non-finite cells {non_finite_cells(out, fmt)}"
        if err not in ("", BUDGET_WARNING):
            return f"exit 0 with stderr {err!r}"
        return None
    if code not in (2, 3):
        return f"exit {code}"
    lines = err.splitlines()
    if out or len(lines) != 1 or not lines[0].startswith(("error: ", "i/o error: ")):
        return f"exit {code} with stdout {out[:40]!r} and stderr {err!r}"
    if code == 2 and not (names_a_key(lines[0], key_path)
                          or lines[0].startswith(NO_COINCIDENCE)):
        return f"exit 2 naming no key of the path: {err!r}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_broken_golden_document_ends_cleanly(name, tmp_path, monkeypatch):
    subcommand, extra = CASES[name]
    document = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    argv = [subcommand, "--config", str(path), "--out", "-", *extra]
    faults = []
    for key_path in key_paths(document):
        for value in [*VALUES, REMOVED]:
            path.write_text(json.dumps(broken(document, key_path, value)), encoding="utf-8")
            problem = fault(argv, key_path)
            if problem:
                shown = "removed" if value is REMOVED else repr(value)
                faults.append(f"{'/'.join(map(str, key_path))} = {shown}: {problem}")
    assert not faults, "\n".join(faults[:20])


def replaced(base, name):
    """Build ``base`` again with the field ``name`` set to the value given."""
    return lambda value: dataclasses.replace(base, **{name: value})


def compensated(name):
    """Solve the hybrid compensation of a lossless splitter whose amplitude
    ``name`` is set to the value given."""
    def call(value):
        return solve_hybrid_compensation(**{"r0": 0.6, "t0": 0.8, "r1": 0.8, "t1": 0.6,
                                            name: value})
    return call


def counted(name):
    """Balance a counting run whose field ``name`` is set to the value given."""
    def call(value):
        fields = {"n_pairs": 400, "seed": 3, name: value}
        setup = CountingSetup(SpecialBSParams(), NoiseConfig(), Qubit.equatorial(0.0), **fields)
        return balance_detectors("basis_swap", setup, DetectorBank())
    return call


def experiment(label=None):
    """A valid single-input configuration."""
    return ExperimentConfig(SpecialBSParams(), input=Qubit(1.0, 0.5), label=label)


#: a valid instance of each value class whose every field is tested alone
BASES = [*(cls.ideal() for cls in (SpecialBSParams, MachZehnderParams, HybridParams,
                                   FiberParams)),
         NoiseConfig(), DetectorBank(), Qubit(1.0, 0.5), CoincidenceRecord(1, 0, 2, 0, 10, 3),
         OutputOptions(), experiment(), CompareConfig((experiment("a"), experiment("b"))),
         Sweep(), CountingOptions(10), TwoQubitState(np.eye(4) / 4.0),
         CountingSetup(SpecialBSParams(), NoiseConfig(), Qubit(1.0, 0.5), 400, 3)]

#: "class.field" -> a call that takes one value for that field
LIBRARY_FIELDS = {
    **{f"{type(base).__name__}.{field.name}": replaced(base, field.name)
       for base in BASES for field in dataclasses.fields(base) if field.init},
    **{f"solve_hybrid_compensation.{name}": compensated(name)
       for name in ("r0", "t0", "r1", "t1")},
    "CountingSetup.n_pairs": counted("n_pairs"),
    "CountingSetup.seed": counted("seed"),
    "estimator_sigma.f_hat": lambda value: estimator_sigma(value, 100),
    "estimator_sigma.c_sum": lambda value: estimator_sigma(0.5, value),
}


@pytest.mark.parametrize("value", LIBRARY_VALUES, ids=repr)
@pytest.mark.parametrize("field", sorted(LIBRARY_FIELDS))
def test_a_library_field_takes_a_bad_value_or_names_itself(field, value):
    try:
        LIBRARY_FIELDS[field](value)
    except ValueError as exc:
        assert names_a_key(str(exc), [field.split(".")[1]]), str(exc)


@pytest.mark.parametrize("value", ["y", 3, None, CoincidenceRecord(1, 0, 2, 0, 10, 3)],
                         ids=repr)
@pytest.mark.parametrize("field", sorted(value_fields()))
def test_a_field_that_holds_a_value_class_refuses_another_value(field, value):
    # ExperimentConfig(..., noise="y") once built, and running it raised
    # "'str' object has no attribute 'overlap_M'"
    try:
        LIBRARY_FIELDS[field](value)
    except ValueError as exc:
        assert str(exc).startswith(field.split(".")[1]), str(exc)
    else:  # an optional field
        assert value is None, field


def detectors_call(method):
    """A counting call, by ``method``, that takes its ``detectors`` argument."""
    setup = CountingSetup(SpecialBSParams(), NoiseConfig(), Qubit.equatorial(0.0), 400, 3)
    if method == "simulate_counts":
        return lambda value: simulate_counts(setup.model, setup.noise, setup.input, 400, value, 3)
    if method == "rescale":
        return lambda value: balance_detectors(method, CoincidenceRecord(1, 0, 2, 0, 10, 3), value)
    return lambda value: balance_detectors(method, setup, value)


@pytest.mark.parametrize("value", ["y", None, NoiseConfig()], ids=repr)
@pytest.mark.parametrize("method", ["simulate_counts", "rescale", "add_loss", "basis_swap"])
def test_the_detectors_argument_refuses_another_value(method, value):
    with pytest.raises(ValueError, match=r"^detectors must be a DetectorBank, got "):
        detectors_call(method)(value)


#: "class.field" of every field annotated float or float | None
FLOAT_FIELDS = sorted(f"{type(base).__name__}.{name}" for base in BASES
                      for name, hint in typing.get_type_hints(type(base)).items()
                      if hint in (float, float | None))


def test_the_float_fields_are_found():
    assert {"SpecialBSParams.R0", "SpecialBSParams.R1", "Qubit.theta",
            "NoiseConfig.phase_jitter_sigma", "DetectorBank.eta_2m"} <= set(FLOAT_FIELDS)


@pytest.mark.parametrize("value", [True, np.True_, np.array([True])], ids=repr)
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_a_float_field_refuses_a_bool(field, value):
    with pytest.raises(ValueError, match=rf"^{field.split('.')[1]} must be a real number, "):
        LIBRARY_FIELDS[field](value)


#: the arguments that take one number only
SCALAR_ARGUMENTS = sorted(name for name in LIBRARY_FIELDS
                          if name.startswith(("estimator_sigma.", "solve_hybrid_compensation.")))


@pytest.mark.parametrize("value", [np.array([0.5, 0.2]), np.array([0.5])], ids=repr)
@pytest.mark.parametrize("field", SCALAR_ARGUMENTS)
def test_a_scalar_argument_refuses_an_array(field, value):
    # refused by the argument's own type check, not by a later rule that
    # happens to read it
    with pytest.raises(ValueError, match=rf"^{field.split('.')[1]} must be an? "):
        LIBRARY_FIELDS[field](value)
