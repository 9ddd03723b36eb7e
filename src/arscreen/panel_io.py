"""Text serialization for panels and result tables.

Panels are CSV files with header ``unit_id,time,value``. Lines starting
with ``#`` are comments; files written by this package carry the run seed
and config fingerprint in leading comment lines so every artifact is
traceable to the configuration that produced it. Floats are written with
``repr`` so values round-trip exactly and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Sequence
from itertools import chain, filterfalse, repeat
from operator import methodcaller

import numpy as np

from .ar_core import ObservedSeries, SeriesPanel
from .errors import InvalidInputError

PANEL_HEADER = ("unit_id", "time", "value")
_IS_COMMENT = methodcaller("startswith", "#")


def _fmt(x) -> str:
    """One value as the tables write it: a float (Python or numpy) by repr,
    anything else by str."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def read_panel(path: str, min_length: int = 1) -> SeriesPanel:
    """Read a panel file, grouping rows by unit in order of first appearance.

    Rows within a unit are sorted by time; duplicate times are rejected by
    series validation. One csv pass reads the rows, whose fields are
    converted a column at a time; only a file with a row that does not
    convert is read again row by row, to name that row's line.
    """
    if not os.path.exists(path):
        raise InvalidInputError(f"panel file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(filterfalse(_IS_COMMENT, fh))
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty panel file") from None
        if tuple(h.strip() for h in header) != PANEL_HEADER:
            raise InvalidInputError(f"{path}: expected header {','.join(PANEL_HEADER)!r}, got {header!r}")
        # Rows as tuples of strings, which the cyclic garbage collector stops
        # tracking: kept as lists, 700,000 rows cost more in collections than
        # in parsing.
        rows = list(map(tuple, filter(None, reader)))
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    if set(map(len, rows)) != {3}:
        _raise_at_bad_row(path)
    n = len(rows)
    fields = list(chain.from_iterable(rows))
    try:
        times = np.fromiter(map(int, map(str.strip, fields[1::3])), np.int64, n)
        values = np.fromiter(map(float, map(str.strip, fields[2::3])), float, n)
    except ValueError:
        _raise_at_bad_row(path)
        raise
    units = list(map(str.strip, fields[0::3]))
    first = dict.fromkeys(units)
    code = dict(zip(first, range(len(first))))
    unit = np.fromiter(map(code.__getitem__, units), np.int64, n)
    order = np.lexsort((times, unit))          # stable: equal times keep file order
    ends = np.cumsum(np.bincount(unit)).tolist()
    times, values = times[order], values[order]
    return SeriesPanel(tuple(ObservedSeries(u, times[a:b], values[a:b])
                             for u, a, b in zip(first, [0] + ends, ends)),
                       min_length=min_length)


def _raise_at_bad_row(path: str) -> None:
    """Raise the error that names the first data row of a panel file that
    does not hold three fields, an integer time and a float value; lines
    are numbered among the non-comment lines, the header being line 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(filterfalse(_IS_COMMENT, fh))
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InvalidInputError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                int(row[1].strip())
                float(row[2].strip())
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from None


def write_panel(panel: SeriesPanel, path: str, comments: tuple[str, ...] = ()) -> None:
    """Write a panel file, one row per observation, each unit's rows from
    its times' and values' ``tolist()``."""
    with open(path, "w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh)
        writer.writerow(PANEL_HEADER)
        for s in panel:
            writer.writerows(zip(repeat(s.unit_id), s.times.tolist(), s.values.tolist()))


class ColumnRows(Sequence):
    """Table rows held as equal-length columns of Python strings, ints and
    floats (as ``ndarray.tolist()`` gives them): row i is the tuple of every
    column's entry i, and no tuple is kept per row."""

    def __init__(self, *columns: list):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i: int) -> tuple:
        return tuple(c[i] for c in self.columns)

    def __iter__(self):
        return zip(*self.columns)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnRows):
            return self.columns == other.columns
        return NotImplemented


def write_table(path: str, header: tuple[str, ...], rows, comments: tuple[str, ...] = ()) -> None:
    """Write a CSV result table with leading comment lines, all rows in one
    ``csv.writer.writerows`` call. Cells must be Python scalars (strings,
    ints, floats), as ``ndarray.tolist()`` gives them: the csv module writes
    a float by repr and any other cell by str, so no Python code runs per
    cell. A numpy scalar is not a Python scalar (``repr`` of an
    ``np.float64`` is ``np.float64(...)``)."""
    with open(path, "w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: str) -> tuple[tuple[str, ...], list[list[str]]]:
    """Read a CSV table written by ``write_table``, skipping comments."""
    if not os.path.exists(path):
        raise InvalidInputError(f"table file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise InvalidInputError(f"{path}: empty table") from None
        return header, [row for row in reader if row]
