"""Panel file round-trips and input validation."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import arscreen
from arscreen.ar_core import ObservedSeries, SeriesPanel, StepTable, step_table
from arscreen.errors import InvalidInputError
from arscreen.panel_io import ColumnRows, read_panel, write_panel, write_table

import oracles
from oracles import read_table


def small_panel() -> SeriesPanel:
    rng = np.random.default_rng(3)
    series = (
        ObservedSeries("alpha", np.arange(5), rng.normal(size=5)),
        ObservedSeries("beta", np.array([2, 4, 9]), rng.normal(size=3)),
    )
    return SeriesPanel(series)


def test_round_trip_exact(tmp_path):
    panel = small_panel()
    path = tmp_path / "panel.csv"
    write_panel(panel, str(path), comments=("seed=42", "fingerprint=abc"))
    back = read_panel(str(path))
    assert back.unit_ids == panel.unit_ids
    for a, b in zip(panel, back):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
    text = path.read_text()
    assert text.startswith("# seed=42\n# fingerprint=abc\n")
    assert text.splitlines()[2] == "unit_id,time,value"


def test_rows_sorted_by_time_within_unit(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("unit_id,time,value\na,3,0.3\na,1,0.1\na,2,0.2\n")
    panel = read_panel(str(path))
    assert np.array_equal(panel[0].times, [1, 2, 3])
    assert np.allclose(panel[0].values, [0.1, 0.2, 0.3])


def test_missing_file_names_path():
    with pytest.raises(InvalidInputError, match="no/such/panel.csv"):
        read_panel("no/such/panel.csv")


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,when,what\na,1,2.0\n")
    with pytest.raises(InvalidInputError, match="expected header"):
        read_panel(str(path))


def test_malformed_row_reports_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("unit_id,time,value\na,1,2.0\na,two,3.0\n")
    with pytest.raises(InvalidInputError, match=":3:"):
        read_panel(str(path))


def test_duplicate_times_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("unit_id,time,value\na,1,2.0\na,1,3.0\n")
    with pytest.raises(InvalidInputError):
        read_panel(str(path))


def test_min_length_filtering_error(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("unit_id,time,value\na,1,2.0\n")
    with pytest.raises(InvalidInputError, match="min_length"):
        read_panel(str(path), min_length=2)


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = ColumnRows(["a", "b"], np.array([0.5, 0.25]), np.array([1, 0]))
    write_table(str(path), ("unit_id", "p", "flag"), rows, comments=("seed=1",))
    header, back = read_table(str(path))
    assert header == ("unit_id", "p", "flag")
    assert back == [["a", "0.5", "1"], ["b", "0.25", "0"]]


def test_panel_writer_equals_per_row_writer(tmp_path):
    """Values whose repr takes exponent form, 0.0 next to -0.0 in one block,
    the smallest subnormal, and unit ids that need quoting, hold CR, LF or
    non-ASCII text, or are empty, written by ``write_table``'s columns and
    by the per-row reference."""
    panel = SeriesPanel((
        ObservedSeries('id,"quoted"', np.array([-3, 0, 7]), np.array([1e-05, -0.0, 1e16])),
        ObservedSeries("plain", np.array([1, 2, 40]), np.array([5e-324, -2.5, 0.1])),
        ObservedSeries("cr\rhere", np.array([0, 1]), np.array([0.0, -0.0])),
        ObservedSeries("lf\nhere", np.array([5]), np.array([-0.0])),
        ObservedSeries("Zürich 東京", np.array([2, 3]), np.array([0.0, 2.5])),
        ObservedSeries("", np.array([-1, 9]), np.array([-7.0, 0.0])),
    ))
    comments = ("seed = 1", "config = abc")
    write_panel(panel, str(tmp_path / "new.csv"), comments=comments)
    oracles.write_panel_per_row(panel, str(tmp_path / "ref.csv"), comments=comments)
    text = (tmp_path / "new.csv").read_bytes()
    assert text == (tmp_path / "ref.csv").read_bytes()
    assert b'"id,""quoted""",-3,1e-05' in text and b"5e-324" in text and b",-0.0\r\n" in text
    assert b'"cr\rhere",0,0.0\r\n"cr\rhere",1,-0.0\r\n' in text
    assert b'"lf\nhere",5,-0.0' in text and "Zürich 東京,2,0.0".encode() in text
    assert text.endswith(b"\r\n,-1,-7.0\r\n,9,0.0\r\n")


def _messy_panel(path, rng):
    """Rows of 30 units on gapped times, shuffled, with comment and blank
    lines and fields padded by spaces and tabs."""
    rows = []
    for i in range(30):
        times = np.sort(rng.choice(60, size=int(rng.integers(1, 40)), replace=False))
        rows += [(f"u{i:02d}", int(t), float(v))
                 for t, v in zip(times - 20, rng.normal(size=times.size) * 10.0 ** rng.integers(-3, 4))]
    lines = ["# seed = 1\n", " unit_id , time,value\t\n"]
    for k in rng.permutation(len(rows)):
        u, t, v = rows[k]
        pad = " \t"[: int(rng.integers(0, 3))]
        lines.append(f"{pad}{u}{pad},{pad}{t},{v!r}{pad}\n")
        if rng.uniform() < 0.02:
            lines.append(rng.choice(["# a comment line\n", "\n"]))
    path.write_text("".join(lines))


def test_column_reader_equals_per_row_reader(tmp_path):
    path = tmp_path / "messy.csv"
    _messy_panel(path, np.random.default_rng(8))
    got, want = read_panel(str(path)), oracles.read_panel_per_row(str(path))
    assert got.unit_ids == want.unit_ids and len(got) == 30
    for a, b in zip(got, want):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


def test_padded_fields_equal_per_row_reader(tmp_path):
    """Time and value fields with spaces and tabs on either side."""
    path = tmp_path / "padded.csv"
    path.write_text("unit_id,time,value\n"
                    "a, 3 ,\t-0.0\t\n"
                    "b,\t1\t, 1e-05 \n"
                    "a,\t 1, \t2.5e16\n"
                    "b, \t-4 \t,\t-7.25 \t\n"
                    "a,2\t ,  5e-324  \n")
    got, want = read_panel(str(path)), oracles.read_panel_per_row(str(path))
    assert got.unit_ids == want.unit_ids == ("a", "b")
    for a, b in zip(got, want):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
    assert got[0].times.tolist() == [1, 2, 3] and got[1].values.tolist() == [-7.25, 1e-05]


@pytest.mark.parametrize("text", [
    "unit_id,time,value\na,1,2.0\n\n# c\na,2\n",
    "unit_id,time,value\na,1,2.0\na,2,3.0,4\n",
    "unit_id,time,value\na,1,2.0\nb, 2.5 ,1\n",
    "unit_id,time,value\na,1,2.0\nb,3, x1 \n",
    "unit_id,time,value\na,\t1 , 2.0\t\na, 2\t,\t3.0 \na,\t2 ,1.0\n",
    "unit_id,time,value\n# only a comment\n",
    "# nothing else\n",
])
def test_errors_equal_per_row_reader(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as want:
        oracles.read_panel_per_row(str(path))
    with pytest.raises(InvalidInputError) as got:
        read_panel(str(path))
    assert str(got.value) == str(want.value)


def _read_through_pipe(tmp_path, text: str) -> SeriesPanel:
    """``read_panel`` of a FIFO filled with ``text``, in a thread. A reader
    that opens the FIFO a second time blocks until a writer opens it; it
    is then let through to an empty pipe."""
    fifo = str(tmp_path / "panel.fifo")
    os.mkfifo(fifo)
    result = {}

    def read():
        try:
            result["panel"] = read_panel(fifo)
        except InvalidInputError as exc:
            result["error"] = exc

    reader = threading.Thread(target=read)
    reader.start()
    with open(fifo, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    reader.join(timeout=10)
    if reader.is_alive():
        open(fifo, "w").close()
        reader.join(timeout=10)
    assert not reader.is_alive()
    if "error" in result:
        raise result["error"]
    return result["panel"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_pipe_is_read_once(tmp_path):
    """A pipe that the bulk split declines (a comment among the rows) is
    read by csv from the text already read, and a bad row in it is named
    by its line, as in a regular file."""
    text = "unit_id,time,value\na,1,2.0\n# c\na,2,3.0\nb,1,1.0\n"
    panel = _read_through_pipe(tmp_path, text)
    assert panel.unit_ids == ("a", "b") and panel[0].values.tolist() == [2.0, 3.0]
    (tmp_path / "panel.fifo").unlink()
    with pytest.raises(InvalidInputError, match=r"panel\.fifo:4: could not convert"):
        _read_through_pipe(tmp_path, text.replace("b,1,1.0", "b,1,x"))


def test_text_that_is_not_utf8_names_path_and_byte(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("unit_id,time,value\nZürich,1,2.0\n".encode("latin-1"))
    with pytest.raises(InvalidInputError, match=r"latin1\.csv: not UTF-8 text at byte 20"):
        read_panel(str(path))


def test_time_beyond_int64_names_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("unit_id,time,value\na,1,2.0\na,99999999999999999999,3.0\n")
    with pytest.raises(InvalidInputError, match=r"big\.csv:3: .*too large"):
        read_panel(str(path))


# Write a panel with a non-ASCII id and read it back.
ROUND_TRIP = r"""
import sys
from arscreen.ar_core import ObservedSeries, SeriesPanel
from arscreen.panel_io import read_panel, write_panel

write_panel(SeriesPanel((ObservedSeries("Z\u00fcrich", [1, 2], [0.5, 1.5]),)), sys.argv[1])
print(read_panel(sys.argv[1]).unit_ids == ("Z\u00fcrich",))
"""


def test_round_trip_is_utf8_in_any_locale(tmp_path):
    """Panels are written and read as UTF-8 under an ASCII locale too."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(arscreen.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8"))}
    env.update(LC_ALL="C", PYTHONPATH=src)
    path = tmp_path / "panel.csv"
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", ROUND_TRIP, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "True", proc.stderr
    assert "Zürich,1,0.5".encode() in path.read_bytes()


# A float column with 0.0 and -0.0 in one block (equal, with equal hashes),
# non-finite values, the smallest subnormal and exponent forms; ids that need
# quoting, non-ASCII text and the empty string; large and negative ints.
EDGE_COLUMNS = (
    ['a,b', 'say "hi"', "cr\rhere", "lf\nhere", "Zürich 東京", "", "plain", "a,b"],
    [0, -1, 2 ** 62, -(2 ** 63), 10 ** 30, 7, 7, -12345678901234567890],
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e-05, 1e16],
)
EDGE_HEADER = ("id", 'x,"y"', "value")


@pytest.mark.parametrize("n_rows", [len(EDGE_COLUMNS[0]), 0])
def test_writer_edge_cases_equal_per_cell_writer(tmp_path, n_rows):
    """``write_table`` against the per-cell reference, byte for byte, from
    columns of Python scalars and with the floats as an array; a memo of
    formatted floats keyed by value alone would write -0.0 as 0.0 (or 0.0
    as -0.0)."""
    columns = [c[:n_rows] for c in EDGE_COLUMNS]
    rows = [list(r) for r in zip(*columns)]
    comments = ("seed = 1", "config = abc")
    oracles.write_table_per_cell(str(tmp_path / "ref.csv"), EDGE_HEADER, rows, comments)
    want = (tmp_path / "ref.csv").read_bytes()
    tables = {"columns": ColumnRows(*columns), "floats as an array": ColumnRows(
        columns[0], columns[1], np.array(columns[2]))}
    for name, table in tables.items():
        write_table(str(tmp_path / "new.csv"), EDGE_HEADER, table, comments)
        assert (tmp_path / "new.csv").read_bytes() == want, name
    if n_rows:
        assert b',0.0\r\n' in want and b',-0.0\r\n' in want and b'"say ""hi"""' in want
    else:
        assert want.endswith(b'id,"x,""y""",value\r\n')


def test_writer_one_column_table_equals_per_cell_writer(tmp_path):
    """csv quotes an empty cell that is a row's only field, and an empty
    one-cell header, so that no line is blank."""
    column = ["", "a", "", -0.0]
    oracles.write_table_per_cell(str(tmp_path / "ref.csv"), ("",), [[x] for x in column])
    want = (tmp_path / "ref.csv").read_bytes()
    assert want == b'""\r\n""\r\na\r\n""\r\n-0.0\r\n'
    write_table(str(tmp_path / "new.csv"), ("",), ColumnRows(column))
    assert (tmp_path / "new.csv").read_bytes() == want


def test_column_rows_reject_columns_of_unequal_length():
    """Rows are read across the columns, so a longer column's cells past the
    shortest one would be dropped; a table without columns has no rows to
    count."""
    for columns in ((["x", "y"], np.array([1, 2, 3])), (["x"], [], ["z"]), ()):
        with pytest.raises(ValueError, match="same length"):
            ColumnRows(*columns)


def _traced_write_peak(path, n_rows: int) -> int:
    """tracemalloc's peak while ``write_table`` writes a table of
    ``n_rows``, counted from after the table exists."""
    ids = [f"unit{i % 1000:04d}" for i in range(n_rows)]
    table = ColumnRows(ids, np.arange(n_rows) % 50, np.tile(np.linspace(-1.0, 1.0, 100), n_rows // 100),
                       np.arange(n_rows) % 777 * 0.25)
    tracemalloc.start()
    try:
        write_table(str(path), ("unit_id", "time", "x", "y"), table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    """Rows are rendered and written a block at a time, so ten times the
    rows take no more than half as much memory again at the peak."""
    small = _traced_write_peak(tmp_path / "small.csv", 50_000)
    large = _traced_write_peak(tmp_path / "large.csv", 500_000)
    assert large <= 1.5 * small, (small, large)
    assert len((tmp_path / "large.csv").read_bytes().splitlines()) == 500_001


# Resident memory (from /proc/self/statm) that ``read_panel`` leaves behind.
READ_PANEL_RESIDENT = r"""
import json, os, sys
from arscreen.panel_io import read_panel

def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

before = resident_mb()
panel = read_panel(sys.argv[1])
print(json.dumps({"growth_mb": resident_mb() - before, "units": len(panel)}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_read_panel_releases_its_parse(tmp_path):
    """The panel keeps copies of its unit ids, not the parsed fields, so the
    memory that held the fields is released: a 2,000 x 50 panel leaves
    about 13 MB resident after the read, and 29 MB when the ids were the
    fields themselves."""
    rng = np.random.default_rng(8)
    path = tmp_path / "panel.csv"
    with open(path, "w") as fh:
        fh.write("unit_id,time,value\n")
        for u in range(2000):
            values = rng.normal(size=50).tolist()
            fh.writelines(f"unit_{u:05d},{t},{x!r}\n" for t, x in enumerate(values))
    src = os.path.dirname(os.path.dirname(os.path.abspath(arscreen.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", READ_PANEL_RESIDENT, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["units"] == 2000
    assert got["growth_mb"] < 20.0, got


def _constructors(tmp_path, units, min_length=1):
    """Builders of one panel from ``units`` ((id, times, values) triples):
    through ``ObservedSeries`` and ``SeriesPanel(series)``, through
    ``SeriesPanel.from_flat`` over the concatenated rows, and through
    ``read_panel`` of a file holding those rows in order."""
    ids = tuple(u for u, _, _ in units)
    bounds = np.cumsum([0] + [len(t) for _, t, _ in units])
    times = np.array([int(t) for _, ts, _ in units for t in ts], dtype=np.int64)
    values = np.array([float(v) for _, _, vs in units for v in vs])
    path = tmp_path / "panel.csv"
    path.write_text("unit_id,time,value\n" + "".join(
        f"{u},{int(t)},{float(v)!r}\n" for u, ts, vs in units for t, v in zip(ts, vs)))
    return {"series": lambda: SeriesPanel((ObservedSeries(*u) for u in units), min_length=min_length),
            "flat": lambda: SeriesPanel.from_flat(ids, bounds, times, values, min_length=min_length),
            "file": lambda: read_panel(str(path), min_length=min_length)}


OK = ("ok", [1, 2], [1.0, 2.0])

# units, min_length, and whether a file can hold the fault (it cannot hold
# two units of one id, an empty unit or rows out of time order).
INVALID_PANELS = {
    "duplicate ids": ([("a", [1], [1.0]), OK, ("a", [2], [2.0]), ("b", [3], [1.0]), ("b", [4], [2.0])],
                      1, False),
    "duplicate ids and a bad unit": ([("a", [1], [1.0]), ("a", [2], [2.0]), ("n", [1], [np.nan])],
                                     1, False),
    "empty unit": ([OK, ("e", [], []), ("n", [1], [np.nan])], 1, False),
    "repeated time": ([OK, ("r", [3, 3], [1.0, 2.0]), ("n", [1], [np.nan])], 1, True),
    "decreasing times": ([OK, ("d", [4, 2], [1.0, 2.0]), ("n", [1], [np.nan])], 1, False),
    "nan": ([OK, ("n", [1, 2], [1.0, np.nan]), ("r", [3, 3], [1.0, 2.0])], 1, True),
    "inf": ([OK, ("i", [1, 2], [np.inf, 1.0]), ("s", [1], [1.0])], 2, True),
    "short": ([OK, ("s", [1], [1.0]), ("t", [2], [1.0])], 2, True),
    "short after a bad unit": ([("s", [1], [1.0]), OK, ("n", [1, 2], [1.0, -np.inf])], 2, True),
}


@pytest.mark.parametrize("case", INVALID_PANELS)
def test_invalid_panel_raises_the_same_through_every_constructor(tmp_path, case):
    units, min_length, in_file = INVALID_PANELS[case]
    builders = _constructors(tmp_path, units, min_length)
    with pytest.raises(InvalidInputError) as want:
        builders.pop("series")()
    if not in_file:
        del builders["file"]
    for name, build in builders.items():
        with pytest.raises(InvalidInputError) as got:
            build()
        assert str(got.value) == str(want.value), name


@pytest.mark.parametrize("seed", range(4))
def test_valid_panel_is_the_same_from_every_constructor(tmp_path, seed):
    """Bit-identical columns, grid, step tables and lag statistics; the
    panel's series equal the ones it was built from."""
    rng = np.random.default_rng(seed)
    series = [ObservedSeries(f"u{i}", np.sort(rng.choice(np.arange(-5, 30), size=n, replace=False)),
                             rng.normal(size=n) * 10.0 ** rng.integers(-3, 4))
              for i, n in enumerate(rng.integers(1, 9, size=int(rng.integers(1, 30))))]
    panels = [build() for build in
              _constructors(tmp_path, [(s.unit_id, s.times, s.values) for s in series]).values()]
    want = panels[0]
    assert [(s.unit_id, s.times.tobytes(), s.values.tobytes()) for s in want] == \
        [(s.unit_id, s.times.tobytes(), s.values.tobytes()) for s in series]
    for got in panels[1:]:
        assert got.unit_ids == want.unit_ids and got.min_length == want.min_length
        for name in ("bounds", "times", "values", "grid"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for grid in (None, want.grid):
            a, b = step_table(got, grid), step_table(want, grid)
            for f in dataclasses.fields(StepTable):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert (x is None and y is None) if y is None else \
                    np.asarray(x).tobytes() == np.asarray(y).tobytes(), f.name
        for name in ("terms", "linear"):
            assert getattr(got.stats, name).tobytes() == getattr(want.stats, name).tobytes()
