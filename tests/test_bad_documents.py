"""Every golden document, broken one key at a time, ends cleanly.

Each key path of the golden documents (an object's key or a list's entry,
at any depth) takes in turn each of :data:`VALUES`, then is removed.  Each
call runs in process through ``cli.main``, with the case's own arguments
and ``--out -``.  It must exit 0 printing only finite numbers or empty
cells, or exit 2 (a bad document) or 3 (an i/o error) with one stderr line
and no output.  No call may raise, and none may take 5 s.
"""

import contextlib
import copy
import io
import json
import math
import time

import pytest

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


def fault(argv) -> str | None:
    """What is wrong with the call ``main(argv)``, or None."""
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
            problem = fault(argv)
            if problem:
                shown = "removed" if value is REMOVED else repr(value)
                faults.append(f"{'/'.join(map(str, key_path))} = {shown}: {problem}")
    assert not faults, "\n".join(faults[:20])
