"""Checked reading and writing of the files the commands take and produce.

read_columns reads the numeric input CSVs; write_columns and write_json write
every CSV and JSON output.  Both writers refuse a non-finite value with
NonFiniteOutput before they open the file, so a failed write leaves no file.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import NonFiniteOutput, ParseError


def read_columns(path, columns: tuple, text: tuple = ()) -> tuple[np.ndarray,
                                                                  list]:
    """(float table of `columns`, rows as dicts) of a CSV file with a header.

    A file that is not UTF-8 text, a missing column among `columns` and
    `text`, or a non-numeric or non-finite cell in `columns`, raises
    ParseError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns + text
                       if c not in (reader.fieldnames or ())]
            if missing:
                raise ParseError(f"{path}: missing column(s) {missing}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        table = np.array([[float(row[c]) for c in columns] for row in rows],
                         dtype=float).reshape(-1, len(columns))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not np.isfinite(table).all():
        line = 2 + int(np.flatnonzero(~np.isfinite(table).all(axis=1))[0])
        raise ParseError(f"{path}: non-finite value on line {line}")
    return table, rows


def write_columns(path, columns: tuple, table, text: dict | None = None) -> None:
    """CSV with a header, one line per row of `table`, "\\n" line endings.

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
    tail = list(text.values())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns) + list(text))
        writer.writerows([repr(v) for v in row] + tail
                         for row in table.tolist())


def write_json(path, summary: dict) -> None:
    """Strict JSON: a non-finite value fails the command, not the reader."""
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
