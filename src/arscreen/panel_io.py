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
from itertools import chain, filterfalse, islice, repeat
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
        times = np.fromiter(map(int, fields[1::3]), np.int64, n)     # both ignore padding
        values = np.fromiter(map(float, fields[2::3]), float, n)
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
    """Table rows held as equal-length columns, each a list of Python
    scalars or a numpy array: row i is the tuple of every column's entry i,
    and no tuple is kept per row."""

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i: int) -> tuple:
        return tuple(c[i] for c in self.columns)

    def __iter__(self):
        return zip(*self.columns)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnRows):
            return len(self.columns) == len(other.columns) and all(
                np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
        return NotImplemented


# Rows rendered and written at a time. A block's text is all the writer
# holds, whatever the table's length; at 512 rows it is small enough that
# writing a 200 x 40 band table leaves a command's peak RSS where the csv
# module's row-by-row writer left it, while each block's fixed cost (a
# np.unique per column) stays a small share of its time.
BLOCK_ROWS = 512


def _quote(s: str) -> str:
    """A string as csv's excel dialect writes it under QUOTE_MINIMAL: quoted,
    with quotes doubled, when it holds a comma, a quote, CR or LF."""
    if '"' in s or "," in s or "\r" in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _render(column) -> list[str]:
    """The cells of one block of a column as ``write_table`` writes them,
    each distinct value formatted once. A float is keyed by its bit pattern,
    so 0.0 and -0.0 (equal, with equal hashes) keep their own text; ints and
    strings are keyed by value only in a column of that one type, so 1 and
    1.0 never share a string. Any other column is formatted cell by cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        if column.dtype.kind == "f":
            keys, inverse = np.unique(column.astype(float, copy=False).view(np.int64),
                                      return_inverse=True)
            text = list(map(repr, keys.view(float).tolist()))
        else:
            keys, inverse = np.unique(column, return_inverse=True)
            text = list(map(str, keys.tolist()))
        return np.array(text, dtype=object)[inverse].tolist()
    column = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, column))
    if kinds == {float}:
        return _render(np.array(column, dtype=float))
    if kinds == {str}:
        memo = {s: _quote(s) for s in dict.fromkeys(column)}
        if all(k is v for k, v in memo.items()):
            return column
        return list(map(memo.__getitem__, column))
    if kinds == {int}:
        memo = {i: str(i) for i in dict.fromkeys(column)}
        return list(map(memo.__getitem__, column))
    return [_quote(_fmt(x)) for x in column]


def _blocks(rows):
    """The columns of each block of ``BLOCK_ROWS`` rows of a table."""
    if isinstance(rows, ColumnRows):
        for start in range(0, len(rows), BLOCK_ROWS):
            yield [c[start:start + BLOCK_ROWS] for c in rows.columns]
        return
    it = iter(rows)
    while block := list(islice(it, BLOCK_ROWS)):
        if len(set(map(len, block))) != 1:
            raise ValueError("table rows must all have the same number of cells")
        yield list(zip(*block))


def _lines(columns) -> str:
    """Rendered columns joined into CRLF-terminated CSV lines. csv quotes
    the only field of a one-column row when it is empty, so that the line
    is not blank; so does this."""
    if len(columns) == 1:
        columns = [['""' if c == "" else c for c in columns[0]]]
    text = "\r\n".join(map(",".join, zip(*columns)))
    return text + "\r\n" if text else text


def write_table(path: str, header: tuple[str, ...], rows, comments: tuple[str, ...] = ()) -> None:
    """Write a CSV result table with leading comment lines, as csv's excel
    dialect writes cells that are each formatted by ``_fmt``: a float
    (Python or numpy) by repr, anything else by str. ``rows`` is a
    ``ColumnRows`` (whose float columns may be numpy arrays) or a sequence
    of equal-length rows. The rows are rendered a block at a time
    (``_render``) and each block is written as one string."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {c}\n" for c in comments))
        fh.write(_lines([[_quote(_fmt(h))] for h in header]))    # one row of one-cell columns
        for columns in _blocks(rows):
            fh.write(_lines([_render(c) for c in columns]))


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
