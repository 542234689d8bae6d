"""Checked reading and rendering of the files the commands take and produce.

read_columns reads the numeric input CSVs; render_columns and render_json
return the text of every CSV and JSON output and write nothing.  Both refuse
a non-finite value with NonFiniteOutput naming the file it was meant for.
"""

from __future__ import annotations

import csv
import io
import json
import operator

import numpy as np

from .errors import NonFiniteOutput, ParseError


def read_columns(path, columns: tuple, text: tuple = ()) -> tuple[np.ndarray,
                                                                  list]:
    """(float table of `columns`, rows as dicts) of a CSV file with a header.

    The rows are built only when `text` names columns, and are [] otherwise.
    Blank lines are skipped.  A file that cannot be opened or is not UTF-8
    text, a missing column among `columns` and `text`, a row whose cell
    count differs from the header's, or a non-numeric or non-finite cell in
    `columns`, raises ParseError naming the file in quotes, so that an
    empty path shows as ''.
    """
    name = repr(str(path))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in columns + text if c not in header]
            if missing:
                raise ParseError(f"{name}: missing column(s) {missing}")
            rows = [row for row in reader if row]
    except OSError as exc:   # absent, unreadable, a directory
        raise ParseError(f"{name}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: {exc}") from exc
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{name}: line {2 + k} has {len(row)} cells, "
                             f"the header {len(header)}")
    cells = operator.itemgetter(*[header.index(c) for c in columns])
    try:
        table = np.array(list(map(cells, rows)),
                         dtype=float).reshape(-1, len(columns))
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from exc
    if not np.isfinite(table).all():
        line = 2 + int(np.flatnonzero(~np.isfinite(table).all(axis=1))[0])
        raise ParseError(f"{name}: non-finite value on line {line}")
    return table, [dict(zip(header, row)) for row in rows] if text else []


def render_columns(path, columns: tuple, table, text: dict | None = None) -> str:
    """CSV text with a header, one line per row of `table`, "\\n" endings.

    The float columns are written as repr(float), which read_columns reads
    back exactly; `text` maps the names of constant text columns, written
    after them, to their value.  A non-finite value raises NonFiniteOutput
    naming the file and line.
    """
    text = text or {}
    table = np.asarray(table, dtype=float)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        line = 2 + int(np.flatnonzero(~finite)[0])
        raise NonFiniteOutput(f"{path}: non-finite value on line {line}")
    # repr(float) needs no quoting, so the float cells are joined directly;
    # the constant text cells are quoted once, after a leading empty cell
    tail = _csv_line(["", *text.values()]) if text else ""
    lines = [_csv_line([*columns, *text])]
    lines += [",".join(map(repr, row)) + tail for row in table.tolist()]
    return "\n".join(lines) + "\n"


def _csv_line(cells: list) -> str:
    """One CSV line, without its ending, quoted as csv.writer quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def render_json(path, summary: dict) -> str:
    """Strict JSON: a non-finite value fails the command, not the reader."""
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"{path}: {exc}") from exc
    return text + "\n"
