"""Text serialization for panels and result tables.

Panels are CSV files with header ``unit_id,time,value``. Lines starting
with ``#`` are comments; files written by this package carry the run seed
and config fingerprint in leading comment lines so every artifact is
traceable to the configuration that produced it. Floats are written with
``repr`` so values round-trip exactly and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from itertools import chain, filterfalse, repeat
from operator import methodcaller

import numpy as np

from .ar_core import SeriesPanel
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

    Rows within a unit are sorted by time; duplicate times and non-finite
    values are rejected as ``ObservedSeries`` rejects them, naming the first
    such unit. The file is read once (``read_text``). The fields come from
    one bulk split of its text (``_bulk_fields``) or, for a text that split
    cannot read as csv would, from one csv pass; they are converted a
    column at a time, and only a text with a row that does not convert is
    read again row by row, to name that row's line.
    """
    try:
        text = read_text(path)
    except OSError as exc:      # missing, a directory, or not readable by this process
        raise InvalidInputError(f"cannot read panel file {path}: {exc.strerror}") from None
    fields = _bulk_fields(text)
    if fields is None:
        fields = _csv_fields(text, path)
    n = len(fields) // 3
    try:
        times, values = _numbers(fields[1::3], fields[2::3], n)
    except (ValueError, OverflowError):
        try:    # int and float ignore padding, but not \x1c-\x1f, which str.strip removes
            times, values = _numbers(map(str.strip, fields[1::3]), map(str.strip, fields[2::3]), n)
        except (ValueError, OverflowError):
            _raise_at_bad_row(text, path)
            raise
    units = list(map(str.strip, fields[0::3]))
    # The kept ids are fresh copies, made while the fields fill their
    # memory: the ids of the fields themselves would keep every block that
    # held any field resident for as long as the panel lives.
    first = dict.fromkeys(u.encode().decode() for u in dict.fromkeys(units))
    del fields
    code = dict(zip(first, range(len(first))))
    unit = np.fromiter(map(code.__getitem__, units), np.int64, n)
    order = np.lexsort((times, unit))          # stable: equal times keep file order
    return SeriesPanel.from_flat(tuple(first), unit[order], times[order], values[order],
                                 min_length=min_length)


def _numbers(times, values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` time fields as int64 and value fields as floats."""
    return np.fromiter(map(int, times), np.int64, n), np.fromiter(map(float, values), float, n)


def read_text(path: str) -> str:
    """The whole of a text file, read in one pass (so a pipe is read once)
    and decoded as UTF-8; bytes that are not UTF-8 raise
    ``InvalidInputError`` naming the path and the offset of the first bad
    byte. An ``OSError`` from opening or reading the file propagates."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from None


def _bulk_fields(text: str) -> list[str] | None:
    """The data fields of a panel file's text, three per row, split at
    once, as ``_csv_fields`` splits them. None for a text whose fields csv
    might read otherwise (one with a quote, a NUL, a line end
    other than LF and CRLF, or a field over csv's size limit), for one
    with a comment or blank line among its rows, and for one that does not
    read cleanly (a bad header, no data row, a row of other than three
    fields): ``_csv_fields`` reads those."""
    if '"' in text or "\0" in text:        # csv before Python 3.11 refuses a NUL
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):     # a CR that ends a line alone
            return None
        text = text.replace("\r", "")
    start = 0
    while text.startswith("#", start):         # the leading comment lines
        start = text.find("\n", start) + 1
        if start == 0:
            return None
    end = text.find("\n", start)
    header, body = text[start:end], text[end + 1:].rstrip("\n")
    limit = csv.field_size_limit()
    if (end < 0 or not body or body[0] in "\n#" or "\n\n" in body or "\n#" in body
            or len(header) > limit
            or tuple(h.strip() for h in header.split(",")) != PANEL_HEADER):
        return None
    # One scan of the encoded rows (UTF-8 keeps every multi-byte character
    # clear of the bytes sought) finds the commas and line ends: they must
    # run ",,|,,|...,,", three fields a row, with no field over the limit.
    data = np.frombuffer(body.encode(), dtype=np.uint8)
    cuts = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    kinds = data[cuts]
    if (cuts.size != 3 * body.count("\n") + 2 or (kinds[2::3] != ord("\n")).any()
            or np.diff(cuts, prepend=-1, append=data.size).max() > limit + 1):
        return None
    del data, cuts, kinds
    return body.replace("\n", ",").split(",")


def _csv_fields(text: str, path: str) -> list[str]:
    """The data fields of a panel file's text, three per row, from one csv
    pass over its non-comment lines; raises, naming ``path``, for an empty
    file, a bad header, no data rows or a row of other than three fields."""
    reader = csv.reader(filterfalse(_IS_COMMENT, io.StringIO(text, newline="")))
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
        _raise_at_bad_row(text, path)
    return list(chain.from_iterable(rows))


def _raise_at_bad_row(text: str, path: str) -> None:
    """Raise the error that names the first data row of a panel file's text
    that does not hold three fields, an int64 time and a float value;
    lines are numbered among the non-comment lines, the header being line 1."""
    reader = csv.reader(filterfalse(_IS_COMMENT, io.StringIO(text, newline="")))
    next(reader)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise InvalidInputError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            _numbers((row[1].strip(),), (row[2].strip(),), 1)
        except (ValueError, OverflowError) as exc:     # not a number, or a time beyond int64
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from None


class ColumnRows(Sequence):
    """Table rows held as equal-length columns, each a sequence of Python
    scalars or a numpy array: row i is the tuple of every column's entry i,
    and no tuple is kept per row."""

    def __init__(self, *columns):
        if len(set(map(len, columns))) != 1:
            raise ValueError("a table needs one or more columns, all of the same length")
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


def _blocks(rows: ColumnRows):
    """The columns of each block of ``BLOCK_ROWS`` rows of a table."""
    for start in range(0, len(rows), BLOCK_ROWS):
        yield [c[start:start + BLOCK_ROWS] for c in rows.columns]


def _lines(columns) -> str:
    """Rendered columns joined into CRLF-terminated CSV lines. csv quotes
    the only field of a one-column row when it is empty, so that the line
    is not blank; so does this."""
    if len(columns) == 1:
        columns = [['""' if c == "" else c for c in columns[0]]]
    text = "\r\n".join(map(",".join, zip(*columns)))
    return text + "\r\n" if text else text


def write_table(path: str, header: tuple[str, ...], rows: ColumnRows,
                comments: tuple[str, ...] = ()) -> None:
    """Write a CSV table with leading comment lines, as csv's excel dialect
    writes cells that are each formatted by ``_fmt``: a float (Python or
    numpy) by repr, anything else by str. The rows are rendered a block at
    a time (``_render``) and each block is written as one string. Panels
    and every command's result tables are written here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"# {c}\n" for c in comments))
        fh.write(_lines([[_quote(_fmt(h))] for h in header]))    # one row of one-cell columns
        for columns in _blocks(rows):
            fh.write(_lines([_render(c) for c in columns]))


def write_panel(panel: SeriesPanel, path: str, comments: tuple[str, ...] = ()) -> None:
    """Write a panel file, one row per observation, through ``write_table``
    over the panel's flat id, time and value columns."""
    ids = list(chain.from_iterable(repeat(s.unit_id, len(s)) for s in panel))
    times = np.concatenate([s.times for s in panel] + [np.empty(0, dtype=np.int64)])
    values = np.concatenate([s.values for s in panel] + [np.empty(0)])
    write_table(path, PANEL_HEADER, ColumnRows(ids, times, values), comments)
