"""Checked reading of the numeric CSV files the commands take as input."""

from __future__ import annotations

import csv

import numpy as np

from .errors import ParseError


def read_columns(path, columns: tuple, text: tuple = ()) -> tuple[np.ndarray,
                                                                  list]:
    """(float table of `columns`, rows as dicts) of a CSV file with a header.

    A missing column among `columns` and `text`, or a non-numeric or
    non-finite cell in `columns`, raises ParseError naming the file.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns + text
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(f"{path}: missing column(s) {missing}")
        rows = list(reader)
    try:
        table = np.array([[float(row[c]) for c in columns] for row in rows],
                         dtype=float).reshape(-1, len(columns))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not np.isfinite(table).all():
        line = 2 + int(np.flatnonzero(~np.isfinite(table).all(axis=1))[0])
        raise ParseError(f"{path}: non-finite value on line {line}")
    return table, rows
