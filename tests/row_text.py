"""Reading the text ``render_rows`` writes, and the row-dict renderer it replaced.

``parse_rows`` turns CSV or JSON output back into one dict per row.
``render_row_dicts`` is the renderer that formatted one row dict at a time
before results became columns; the property tests hold ``render_rows`` to
its bytes.  ``as_rows`` turns result columns into those row dicts.
"""

import json

import numpy as np


def as_rows(columns: dict) -> list[dict]:
    """One dict per row of the result ``columns``."""
    names = list(columns)
    return [dict(zip(names, row)) for row in zip(*columns.values())]


def _format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.10g" % float(value)


def _rounded(value):
    if value is None or isinstance(value, (str, int, np.integer)):
        return int(value) if isinstance(value, np.integer) else value
    return float("%.10g" % float(value))


def render_row_dicts(rows: list[dict], fmt: str) -> str:
    """Serialize result rows; numeric precision is 10 significant digits."""
    if not rows:
        raise ValueError("no rows to render")
    columns = list(rows[0].keys())
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(
                ",".join(
                    str(v) if isinstance(v, str) else _format_number(v)
                    for v in (row[c] for c in columns)
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = [{c: _rounded(row[c]) for c in columns} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Inverse of ``render_rows`` (numbers come back as floats/ints)."""
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
