"""Every golden document, broken one key at a time, ends cleanly, and so
does every numeric field of the library given a bad value.

Each key path of the golden documents (an object's key or a list's entry,
at any depth) takes in turn each of :data:`VALUES`, then is removed.  Each
call runs in process through ``cli.main``, with the case's own arguments
and ``--out -``.  It must exit 0 printing only finite numbers or empty
cells, or exit 2 (a bad document) or 3 (an i/o error) with one stderr line
and no output.  The line of an exit 2 names a key of the broken path.  No
call may raise, and none may take 5 s.

In the library, each numeric field of the parameter objects and of a
counting run takes each of :data:`VALUES` too: the call returns, or raises
ValueError naming the field.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import time

import pytest

from pcclone import (
    CountingSetup,
    DetectorBank,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    NoiseConfig,
    Qubit,
    SpecialBSParams,
    balance_detectors,
    estimator_sigma,
)
from pcclone.cli import main
from pcclone.compensation import MAX_MOVES
from test_golden import CASES, GOLDEN

#: the values every key path takes in turn
VALUES = [math.nan, math.inf, -1, 0, -0.0, 1e308, 10**30, True, "x", None, [], {}, 2.5, 1]
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


def replaced(cls, name):
    """Build ``cls`` with the field ``name`` set to the value given."""
    base = cls.ideal() if hasattr(cls, "ideal") else cls()
    return lambda value: dataclasses.replace(base, **{name: value})


def counted(name):
    """Balance a counting run whose field ``name`` is set to the value given."""
    def call(value):
        fields = {"n_pairs": 400, "seed": 3, name: value}
        setup = CountingSetup(SpecialBSParams(), NoiseConfig(), Qubit.equatorial(0.0), **fields)
        return balance_detectors("basis_swap", setup, DetectorBank())
    return call


#: "class.field" -> a call that takes one value for that field
LIBRARY_FIELDS = {
    **{f"{cls.__name__}.{field.name}": replaced(cls, field.name)
       for cls in (SpecialBSParams, MachZehnderParams, HybridParams, FiberParams,
                   NoiseConfig, DetectorBank)
       for field in dataclasses.fields(cls) if field.init},
    "CountingSetup.n_pairs": counted("n_pairs"),
    "CountingSetup.seed": counted("seed"),
    "estimator_sigma.f_hat": lambda value: estimator_sigma(value, 100),
    "estimator_sigma.c_sum": lambda value: estimator_sigma(0.5, value),
}


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("field", sorted(LIBRARY_FIELDS))
def test_a_library_field_takes_a_bad_value_or_names_itself(field, value):
    try:
        LIBRARY_FIELDS[field](value)
    except ValueError as exc:
        assert names_a_key(str(exc), [field.split(".")[1]]), str(exc)
