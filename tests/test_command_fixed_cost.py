"""What every command pays around its sweeps: argv, chain files and panels.

``main`` reads a well-formed argv from the option table (``cli.COMMANDS``)
and leaves any other argv to argparse, built from the same table; chain
files are opened once and each entry read once (``trajectory.ChainFile``),
with what ``np.load`` gives; panel files are read once and split in bulk
when csv would split them the same way (``panel_io._bulk_fields``). The
argv and panel fast paths are checked against the paths they replace.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import struct
import tracemalloc
import zipfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import arscreen.ar_core as ar_core
import arscreen.cli as cli
import arscreen.trajectory as trajectory
import oracles
from arscreen.ar_core import ArParams, ObservedSeries, SeriesPanel
from arscreen.errors import InvalidInputError
from arscreen.mcmc import stream
from arscreen.panel_io import _bulk_fields, _csv_fields, read_panel, write_panel
from arscreen.simulation import simulate_ar1
from arscreen.trajectory import BAND_QUANTILES, ChainFile, band_quantiles, band_table, save_chain

# ---------------------------------------------------------------------------
# argv


def _same(a, b) -> bool:
    """Equal, with nan equal to nan."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


VALID_ARGV = [
    ["standardize", "--input", "p.csv", "--output-dir", "out"],
    ["standardize", "--output-dir", "out", "--input", "p.csv", "--seed", "4", "--config", "c"],
    ["simulate", "--scenario", "s.cfg", "--output-dir", "out", "--seed", " 12 "],
    ["fit-parametric", "--input", "p.csv", "--output-dir", "out"],
    ["fit-parametric", "--input", "p.csv", "--output-dir", "out", "--threshold", "nan"],
    ["fit-parametric", "--threshold", "1e-3", "--input", "", "--output-dir", "out"],
    ["fit-np", "--input", "p.csv", "--output-dir", "out"],
    ["fit-np", "--input", "p.csv", "--output-dir", "out", "--burn", "0", "--keep", "\t7 ",
     "--chains", "3", "--threshold", "0.9", "--seed", "2", "--config", "run.cfg"],
    ["report", "--chain", "c.npz", "--output-dir", "out"],
    ["report", "--output-dir", "a b", "--chain", "c=d.npz", "--seed", "+5"],
    ["cluster-mle", "--input", "p.csv", "--chain", "c.npz", "--top", "4", "--output-dir", "out"],
    ["cluster-mle", "--input", "p.csv", "--chain", "c.npz", "--top", " 2", "--burn", "1",
     "--keep", "3", "--output-dir", "out", "--seed", "13", "--config", "run.cfg"],
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=lambda a: " ".join(a))
def test_table_namespace_equals_argparse(argv):
    got = cli._table_args(argv)
    want = cli.build_parser().parse_args(argv)
    assert got is not None
    assert vars(got).keys() == vars(want).keys()
    assert all(_same(v, getattr(want, k)) for k, v in vars(got).items()), (vars(got), vars(want))


def test_every_command_is_in_the_valid_corpus():
    assert {argv[0] for argv in VALID_ARGV} == set(cli.COMMANDS)


def _run_main(argv) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


INVALID_ARGV = [
    ["fit-np", "--input", "{missing}", "--output-dir", "{out}", "--seed", "-1"],
    ["fit-np", "--input", "{missing}", "--out", "{out}"],
    ["fit-np", "--input", "{missing}", "--output-dir", "{out}", "--seed=3"],
    ["fit-np", "--input", "{missing}", "--output-dir", "{out}", "--seed", "1", "--seed", "2"],
    ["fit-np", "--input", "{missing}"],
    ["fit-np", "--input", "{missing}", "--output-dir", "{out}", "--keep", "1.5"],
    ["fit-np", "--input", "{missing}", "--output-dir", "{out}", "--burn"],
    ["fit-np", "--input", "{missing}", "--output-dir", "{out}", "stray"],
    ["report", "--input", "{missing}", "--chain", "{missing}", "--output-dir", "{out}"],
    ["no-such-command", "--output-dir", "{out}"],
    [],
    ["-h"],
    ["cluster-mle", "-h"],
    ["report", "--chain", "{missing}", "--output-dir", "{out}", "--help"],
]


@pytest.mark.parametrize("argv", INVALID_ARGV, ids=lambda a: " ".join(a) or "empty")
def test_declined_argv_is_argparses(tmp_path, monkeypatch, argv):
    """The table path declines every argv here, so ``main`` exits, prints
    and fails exactly as with argparse alone."""
    argv = [a.format(missing=str(tmp_path / "missing"), out=str(tmp_path / "out")) for a in argv]
    assert cli._table_args(argv) is None
    got = _run_main(argv)
    monkeypatch.setattr(cli, "_table_args", lambda argv: None)
    assert got == _run_main(argv)
    assert got[0] != 0


# ---------------------------------------------------------------------------
# chain files


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    """A saved chain whose gp paths are Fortran-ordered, as ``run_chain``
    keeps them."""
    times = np.arange(12, dtype=np.int64)
    panel = SeriesPanel(tuple(
        ObservedSeries(f"u{i}", times, simulate_ar1(ArParams(0.4, 0.5), 12, stream(5, "fc", i))
                       + (2.0 if i < 3 else 0.0))
        for i in range(10)))
    chain = trajectory.run_chain(panel, cli.RunConfig(trunc_gp=6, trunc_flat=5, trunc_resid=6),
                                 n_burn=3, n_keep=12, seed=2)
    assert chain.best_gp_paths.flags.f_contiguous and not chain.best_gp_paths.flags.c_contiguous
    path = str(tmp_path_factory.mktemp("chain") / "chain.npz")
    save_chain(chain, path)
    return path


def _assert_same_arrays(a: np.ndarray, b: np.ndarray, name: str) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.flags.c_contiguous == b.flags.c_contiguous, name
    assert a.flags.f_contiguous == b.flags.f_contiguous, name
    assert a.flags.writeable == b.flags.writeable, name
    assert a.tobytes(order="A") == b.tobytes(order="A"), name


def test_chain_entries_equal_np_load(chain_path):
    with np.load(chain_path) as z, ChainFile(chain_path) as c:
        assert sorted(z.files) == sorted(trajectory._CHAIN_KEYS)
        for k in z.files:
            _assert_same_arrays(c[k], z[k], k)


def test_npy_layouts_equal_np_load(tmp_path):
    """Every dtype, order and shape a chain holds, and some it does not:
    0-d, empty, one-row Fortran, big-endian and unicode."""
    rng = np.random.default_rng(0)
    arrays = {
        "i0": np.int64(3), "f0": np.float64(-0.0), "s0": np.array("abc", dtype="U16"),
        "c": rng.normal(size=(3, 4)), "f": np.asfortranarray(rng.normal(size=(3, 5))),
        "f1": np.asfortranarray(rng.normal(size=(1, 5))), "e": np.empty((0, 3)),
        "ef": np.empty((2, 0), order="F"), "i1": rng.integers(-5, 5, size=7).astype(np.int8),
        "b": rng.random(6) > 0.5, "u": np.array(["x", "Zürich", ""], dtype="U32"),
        "f4": rng.normal(size=(2, 3, 4)).astype(np.float32), "be": np.arange(5, dtype=">i4"),
        "big": rng.normal(size=(300, 200)),
    }
    path = str(tmp_path / "layouts.npz")
    np.savez(path, **arrays)
    compressed = str(tmp_path / "compressed.npz")
    np.savez_compressed(compressed, **arrays)
    for p in (path, compressed):
        with np.load(p) as z, ChainFile(p) as c:
            for k in arrays:
                _assert_same_arrays(c[k], z[k], k)


def _rewrite_member(src: str, dst: str, name: str, edit) -> None:
    """Copy the archive ``src`` to ``dst`` with member ``name``'s bytes
    replaced by ``edit(bytes)``."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            data = zin.read(info)
            zout.writestr(info.filename, edit(data) if info.filename == name else data)


def _object_member(data: bytes) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.array([1, "a"], dtype=object), allow_pickle=True)
    return buf.getvalue()


def _oversized_header(data: bytes) -> bytes:
    """A version 2 header padded past numpy's 10,000-character limit."""
    header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (0,), }"
    header += b" " * (12_000 - len(header) - 12 - 1) + b"\n"
    return b"\x93NUMPY\x02\x00" + len(header).to_bytes(4, "little") + header


@pytest.mark.parametrize("entry, edit", [
    ("logliks", lambda d: d[:-8]),                              # data shorter than the shape
    ("band_rows", lambda d: d[:200]),
    ("grid", lambda d: d.replace(b"'descr'", b"'desc!'")),      # malformed headers
    ("inclusion", lambda d: d.replace(b"), }", b"), )")),
    ("n_keep", lambda d: d.replace(b"'shape': ()", b"'shape': 1")),
    ("best_gp_paths", _object_member),
    ("unit_ids", _object_member),
    ("band_unit_row", _oversized_header),
    ("seed", lambda d: b"not an npy member"),
])
def test_bad_member_exits_3_naming_file_and_entry(chain_path, tmp_path, capsys, entry, edit):
    bad = str(tmp_path / "bad.npz")
    _rewrite_member(chain_path, bad, f"{entry}.npy", edit)
    with pytest.raises(Exception):     # np.load refuses it too
        with np.load(bad) as z:
            z[entry].shape              # noqa: B018 - a non-npy member loads as bytes
    out = tmp_path / "out"
    assert cli.main(["report", "--chain", bad, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "bad.npz" in err and repr(entry) in err
    assert not out.exists()


def test_corrupt_data_fails_the_crc(chain_path, tmp_path, capsys):
    """A flipped data byte leaves every header sound; the member's CRC-32,
    checked as zipfile checks it, refuses it."""
    bad = str(tmp_path / "flipped.npz")
    with zipfile.ZipFile(chain_path) as z:
        info = z.getinfo("logliks.npy")
    with open(chain_path, "rb") as fh:
        raw = bytearray(fh.read())
    raw[info.header_offset + info.compress_size] ^= 0xFF     # inside the data
    with open(bad, "wb") as fh:
        fh.write(raw)
    assert cli.main(["report", "--chain", bad, "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "flipped.npz" in err and "'logliks'" in err and "CRC" in err


def _directory_entry(raw: bytes, start: int, name: str) -> int:
    """The offset of member ``name``'s entry in the central directory that
    begins at ``start``."""
    pos = start
    while raw[pos + 46:pos + 46 + int.from_bytes(raw[pos + 28:pos + 30], "little")] != name.encode():
        pos = raw.index(b"PK\x01\x02", pos + 4)
    return pos


def _bad_block_type(raw: bytearray, info: zipfile.ZipInfo, entry: int) -> None:
    """The member's first deflate block takes the reserved type 3."""
    local = info.header_offset
    start = local + 30 + int.from_bytes(raw[local + 26:local + 28], "little") + int.from_bytes(
        raw[local + 28:local + 30], "little")
    raw[start] |= 0x06


# Edits of one member of a chain file, given the archive's bytes, the
# member's ZipInfo and the offset of its central directory entry.
ZIP_EDITS = {
    "flag bit 5": lambda raw, info, entry: struct.pack_into("<H", raw, entry + 8,
                                                            info.flag_bits | 1 << 5),
    "encrypted": lambda raw, info, entry: struct.pack_into("<H", raw, entry + 8,
                                                           info.flag_bits | 1),
    "compression method": lambda raw, info, entry: struct.pack_into("<H", raw, entry + 10, 99),
    # The local header's extra field runs past the end of the file.
    "cut short": lambda raw, info, entry: struct.pack_into("<H", raw, info.header_offset + 28,
                                                           0xFFFF),
    "invalid block type": _bad_block_type,
}


def _huge_shape(data: bytes) -> bytes:
    """The header's first dimension prefixed by 15 digits (2 PiB of float64),
    in place of 15 bytes of its padding."""
    return data.replace(b"'shape': (", b"'shape': (300000000000000", 1).replace(
        b" " * 15 + b"\n", b"\n", 1)


@pytest.mark.parametrize("archive, entry, edit, cause", [
    ("stored", "logliks", "flag bit 5", "NotImplementedError"),
    ("compressed", "logliks", "flag bit 5", "NotImplementedError"),
    ("stored", "logliks", "encrypted", "RuntimeError"),
    ("stored", "band_unit_row", "compression method", "NotImplementedError"),
    ("compressed", "kernel_length_scale", "cut short", "EOFError"),   # the last member
    ("stored", "kernel_length_scale", "cut short", "EOFError"),
    ("compressed", "band_unit_row", "invalid block type", "error"),   # zlib.error
])
def test_zip_refusals_exit_3_naming_file_and_entry(chain_path, tmp_path, capsys,
                                                   archive, entry, edit, cause):
    """What zipfile refuses in a member (patched data, encryption, an
    unknown method), a member cut short by the end of the file and a
    corrupt deflate stream exit 3, naming the file and the entry."""
    src = chain_path
    if archive == "compressed":
        src = str(tmp_path / "compressed.npz")
        with np.load(chain_path) as z:
            np.savez_compressed(src, **{k: z[k] for k in z.files})
    with open(src, "rb") as fh:
        raw = bytearray(fh.read())
    with zipfile.ZipFile(src) as z:
        info = z.getinfo(f"{entry}.npy")
        ZIP_EDITS[edit](raw, info, _directory_entry(raw, z.start_dir, info.filename))
    bad = tmp_path / "edited.npz"
    bad.write_bytes(raw)
    with pytest.raises(InvalidInputError) as exc:
        trajectory.load_chain(str(bad))
    assert type(exc.value.__cause__).__name__ == cause
    assert cli.main(["report", "--chain", str(bad), "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "edited.npz" in err and repr(entry) in err, err


def test_shape_too_large_to_allocate_exits_3(chain_path, tmp_path, capsys):
    bad = str(tmp_path / "huge.npz")
    _rewrite_member(chain_path, bad, "logliks.npy", _huge_shape)
    assert cli.main(["report", "--chain", bad, "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "huge.npz" in err and "'logliks'" in err and "allocate" in err, err


def test_not_an_archive_and_missing_chain(tmp_path):
    text = tmp_path / "chain.npz"
    text.write_text("unit_id,time,value\n")
    with pytest.raises(InvalidInputError, match="not a chain file .*chain.npz"):
        trajectory.load_chain(str(text))
    with pytest.raises(InvalidInputError, match="not a chain file .*"):
        trajectory.load_chain(str(tmp_path))
    with pytest.raises(InvalidInputError, match="chain file not found: .*nowhere.npz"):
        trajectory.load_inclusion(str(tmp_path / "nowhere.npz"))


# ---------------------------------------------------------------------------
# panel files


def _same_outcome(path: str) -> None:
    """``read_panel`` and the per-row reference give equal panels or raise
    the same error."""
    try:
        want = oracles.read_panel_per_row(path)
    except Exception as exc:     # noqa: BLE001 - compared below
        with pytest.raises(type(exc)) as got:
            read_panel(path)
        assert str(got.value) == str(exc)
        return
    got = read_panel(path)
    assert got.unit_ids == want.unit_ids
    for a, b in zip(got, want):
        assert a.times.tobytes() == b.times.tobytes() and a.values.tobytes() == b.values.tobytes()


def _written_panel(tmp_path) -> str:
    rng = np.random.default_rng(4)
    panel = SeriesPanel(tuple(
        ObservedSeries(f"unit {i}", np.sort(rng.choice(30, size=8, replace=False)),
                       rng.normal(size=8)) for i in range(25)))
    path = str(tmp_path / "written.csv")
    write_panel(panel, path, comments=("seed = 1", "config = abc"))
    return path


@pytest.mark.parametrize("eol", ["\r\n", "\n"])
def test_bulk_fields_equal_csv_fields(tmp_path, eol):
    """A file as ``write_panel`` writes it (CRLF), or with LF line ends, is
    split in bulk into csv's fields."""
    path = _written_panel(tmp_path)
    text = open(path, newline="").read().replace("\r\n", eol)
    for name, body in {"plain": text, "trailing blank lines": text + eol + eol,
                       "padded": text.replace(",", " ,\t")}.items():
        p = tmp_path / f"{name}.csv"
        p.write_bytes(body.encode())
        fields = _bulk_fields(body)
        assert fields is not None and fields == _csv_fields(body, str(p)), name
        _same_outcome(str(p))


@pytest.mark.parametrize("text", [
    'unit_id,time,value\n"a,b",1,2.0\n"a,b",2,3.0\nc,1,"4.5"\n',          # quoted ids
    "unit_id,time,value\r\na,1,2.0\r\n\r\nb,1,3.0\r\n# c\r\na,2,1.0\r\n",  # blank, comment
    "unit_id,time,value\ra,1,2.0\rb,1,3.0\r",                             # CR alone
    "unit_id,time,value\r\na,1,2.0\nb,1,3.0\r\n",                         # mixed ends
    "# a\rb,1,2.0\nunit_id,time,value\na,1,2.0\n",                          # CR in a comment
    "unit_id,time\r,value\na,1,2.0\n",
    "unit_id,time,value\r\r\na,1,2.0\r\n",
    "unit_id,time,value\na,1,2.0\n\nb,1,3.0\n",
    "\nunit_id,time,value\na,1,2.0\n",
    "unit_id,time,value\na\vb,1,2.0\na\vb,2,3.0\n",                      # vertical tab
    "unit_id,time,value\na,1,2.0\x1c\nb,1\x1c,3.0\n",
    "unit_id,time,value\na\x1cb,1,2.0\n",
    "unit_id,time,value\na\u2028b,1,2.0\nc,1,2.0\u2028\n",
    "unit_id,time,value\na\x00,1,2.0\n",                                  # NUL
    "unit_id,time,value\na,1,2.0\nb,1,2.0,5\nc,1\n",                     # 4 then 2 fields
    "unit_id,time,value\n1,1,2,3\n4,5\n",
    "unit_id,time,value\na,1,2.0\na,1,3.0\n",
    "# only\n# comments\n",
    "unit_id,time,value\n",
    "unit_id , time , value\t\na , 1 , 2.0\n",
])
def test_odd_files_equal_per_row_reader(tmp_path, text):
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode())
    _same_outcome(str(path))


def test_only_plain_files_are_split_in_bulk(tmp_path):
    """Quotes, NUL, a CR alone, comment or blank lines among the rows and
    rows of other than three fields go to the csv reader."""
    for text in ('unit_id,time,value\n"a",1,2.0\n', "unit_id,time,value\na\x00,1,2.0\n",
                 "unit_id,time,value\na,1,2.0\n# c\nb,1,2.0\n",
                 "unit_id,time,value\na,1,2.0\n\nb,1,2.0\n", "unit_id,time,value\na,1,2.0\rb,1,2\n",
                 "unit_id,time,value\na,1,2.0,4\nb,1\n", "unit_id,time,value\n"):
        assert _bulk_fields(text) is None, text


def test_first_failing_unit_in_file_order_is_named(tmp_path):
    """Units fail on a repeated time and on a non-finite value; the error
    names the unit that appears first in the file, as a per-unit check in
    that order does."""
    cases = ["unit_id,time,value\nz,1,1.0\nb,2,nan\nz,1,2.0\nb,1,1.0\n",
             "unit_id,time,value\nb,2,inf\nz,1,1.0\nz,1,2.0\n",
             "unit_id,time,value\nq,3,nan\nq,3,1.0\nz,1,-inf\n",
             "unit_id,time,value\nok,1,1.0\nq,5,2.0\nq,5,nan\n"]
    for k, text in enumerate(cases):
        path = tmp_path / f"bad{k}.csv"
        path.write_text(text)
        _same_outcome(str(path))
    with pytest.raises(InvalidInputError, match="'z': times must be strictly increasing"):
        read_panel(str(tmp_path / "bad0.csv"))


def test_min_length_named_after_series_checks(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("unit_id,time,value\na,1,1.0\nb,1,2.0\nb,2,2.0\n")
    with pytest.raises(InvalidInputError, match="unit 'a' has 1 observations"):
        read_panel(str(path), min_length=2)
    _same_outcome(str(path))


# ---------------------------------------------------------------------------
# grid, quantiles and what a command builds once


def test_grid_equals_np_unique():
    rng = np.random.default_rng(7)
    series = []
    for i in range(15):
        t = np.sort(rng.choice(np.arange(-20, 40), size=int(rng.integers(1, 9)), replace=False))
        series.append(ObservedSeries(f"u{i}", t, np.zeros(t.size)))
    panel = SeriesPanel(tuple(series))
    want = np.unique(np.concatenate([s.times for s in panel]))
    assert panel.grid.dtype == want.dtype and np.array_equal(panel.grid, want)
    assert panel.grid is panel.grid


@pytest.mark.parametrize("n", [1, 2, 3, 5, 60])
def test_band_quantiles_equal_np_quantile_bitwise(n):
    """Ties, +0.0 and -0.0 side by side, and NaN columns."""
    rng = np.random.default_rng(n)
    pool = np.array([0.0, -0.0, 1.5, -2.25, 1e-300, 5e-324, 3.0])
    for trial in range(40):
        if trial % 2:
            x = rng.choice(pool, size=(n, 7, 6))
        else:
            x = rng.normal(size=(n, 7, 6))
        if trial % 5 == 0:
            x[rng.integers(n), rng.integers(7), rng.integers(6)] = np.nan
        x = x.astype(np.float32 if trial % 3 == 0 else np.float64)
        want = np.quantile(np.asarray(x, dtype=float), BAND_QUANTILES, axis=0)
        got = band_quantiles(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), trial


def test_band_table_copies_one_block_of_units_at_a_time(chain_path, monkeypatch):
    """With the block cap lowered so that a chain's 400 units span 8
    blocks, ``band_table``'s traced peak stays below half of one float64
    copy of its bands, gathered for every unit, and its columns are
    whole-array ``band_quantiles`` of those bands bit for bit."""
    n, G, S, rows = 400, 20, 64, 91
    rng = np.random.default_rng(11)
    band_rows = rng.normal(size=(S, rows, G)).astype(np.float32)
    band_rows[:, 0] = 0.0                               # the null's row
    band_rows[rng.integers(S), 7, 7] = np.nan
    unit_row = rng.integers(0, rows, size=(S, n)).astype(np.int32)
    unit_row[:, ::3] = 0                                # null units: ties at zero
    chain = dataclasses.replace(
        trajectory.load_chain(chain_path), unit_ids=tuple(f"u{i}" for i in range(n)),
        grid=np.arange(G, dtype=np.int64), band_sweeps=np.arange(S) * 10, band_rows=band_rows,
        band_unit_row=unit_row)
    samples = oracles.band_samples(chain)
    monkeypatch.setattr(trajectory, "_BAND_BLOCK_ENTRIES", S * G * n // 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = band_table(chain)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < samples.size * 8 / 2, peak
    want = band_quantiles(samples).reshape(len(BAND_QUANTILES), -1)
    for got, col in zip(table.columns[2:], want):
        assert got.dtype == col.dtype and got.tobytes() == col.tobytes()
    assert np.isnan(want).any()
    assert table.columns[0][G] == "u1" and np.array_equal(table.columns[1], np.tile(chain.grid, n))


README_PIPELINE = [
    ["simulate", "--scenario", "{scenario}", "--output-dir", "{w}/sim", "--seed", "1"],
    ["standardize", "--input", "{w}/sim/panel.csv", "--output-dir", "{w}/std"],
    ["fit-parametric", "--input", "{w}/std/standardized.csv", "--config", "{cfg}",
     "--output-dir", "{w}/par", "--seed", "7"],
    ["fit-np", "--input", "{w}/std/standardized.csv", "--config", "{cfg}", "--burn", "1",
     "--keep", "2", "--chains", "2", "--output-dir", "{w}/fit", "--seed", "11"],
    ["report", "--chain", "{w}/fit/chain_0.npz", "--output-dir", "{w}/rep"],
    ["cluster-mle", "--input", "{w}/std/standardized.csv", "--config", "{cfg}",
     "--chain", "{w}/fit/chain_0.npz", "--top", "2", "--burn", "1", "--keep", "2",
     "--output-dir", "{w}/clus", "--seed", "13"],
]


def test_pipeline_pays_each_fixed_cost_once(tmp_path, monkeypatch):
    """The six README-pipeline commands run without building argparse;
    ``report`` and ``cluster-mle`` read each chain entry once, ``fit-np``
    reads two entries of chain 1; ``fit-parametric`` builds the panel's lag
    statistics once and ``cluster-mle`` prepares one GP workspace."""
    scenario, cfg = tmp_path / "scenario.cfg", tmp_path / "run.cfg"
    scenario.write_text("kind = mixture\nn_units = 12\nlength = 10\n"
                        "components = 0.3:0.4:0.5; 0.9:0.1:0.5\nshift_prob = 0.5\n")
    cfg.write_text("n_draws = 50\n")

    def refuse():
        raise AssertionError("argparse was built")

    reads, builds = Counter(), Counter()
    zip_open = zipfile.ZipFile.open
    lag_stats, prepare = ar_core.lag_stats, trajectory.prepare_gp_workspace

    def count_open(self, name, mode="r", *args, **kwargs):
        if mode == "r":
            reads[getattr(name, "filename", name)] += 1
        return zip_open(self, name, mode, *args, **kwargs)

    def count(name, fn):
        def counted(*args, **kwargs):
            builds[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(zipfile.ZipFile, "open", count_open)
    monkeypatch.setattr(ar_core, "lag_stats", count("lag_stats", lag_stats))
    monkeypatch.setattr(trajectory, "prepare_gp_workspace", count("workspace", prepare))
    entries = Counter(f"{k}.npy" for k in trajectory._CHAIN_KEYS)
    for argv in README_PIPELINE:
        argv = [a.format(w=tmp_path, scenario=scenario, cfg=cfg) for a in argv]
        reads.clear()
        builds.clear()
        assert cli.main(argv) == 0, argv
        if argv[0] in ("report", "cluster-mle"):
            assert reads == entries
        if argv[0] == "fit-np":
            assert reads == Counter(["unit_ids.npy", "inclusion.npy"])
        if argv[0] == "fit-parametric":
            assert builds["lag_stats"] == 1
        if argv[0] == "cluster-mle":
            assert builds["workspace"] == 1
    assert os.path.exists(tmp_path / "clus" / "membership.csv")


def test_commands_build_no_per_unit_series(tmp_path, monkeypatch):
    """``standardize``, ``fit-parametric``, ``fit-np`` and ``cluster-mle``
    read a 2,000-unit ragged panel through its columns: no ``ObservedSeries``
    is built, by its own constructor or by ``_checked``. Iterating the panel
    afterwards counts one view per unit, so the counters do count."""
    rng = np.random.default_rng(8)
    panel = SeriesPanel(tuple(
        ObservedSeries(f"u{i:04d}", np.sort(rng.choice(12, size=n, replace=False)), rng.normal(size=n))
        for i, n in enumerate(rng.integers(2, 7, size=2000))))
    path, cfg = str(tmp_path / "panel.csv"), tmp_path / "run.cfg"
    write_panel(panel, path)
    cfg.write_text("n_draws = 50\n")

    calls = Counter()
    post_init, checked = ObservedSeries.__post_init__, ObservedSeries._checked.__func__

    def counted_post_init(self):
        calls["__post_init__"] += 1
        post_init(self)

    def counted_checked(cls, *args):
        calls["_checked"] += 1
        return checked(cls, *args)

    monkeypatch.setattr(ObservedSeries, "__post_init__", counted_post_init)
    monkeypatch.setattr(ObservedSeries, "_checked", classmethod(counted_checked))
    fit = str(tmp_path / "fit")
    for argv in (["standardize", "--input", path],
                 ["fit-parametric", "--input", path, "--config", str(cfg)],
                 ["fit-np", "--input", path, "--chains", "1", "--burn", "0", "--keep", "1"],
                 ["cluster-mle", "--input", path, "--chain", f"{fit}/chain_0.npz",
                  "--top", "2", "--burn", "0", "--keep", "1"]):
        out = fit if argv[0] == "fit-np" else str(tmp_path / argv[0])
        assert cli.main(argv + ["--output-dir", out]) == 0, argv
    assert calls == Counter()
    assert len(list(read_panel(path))) == 2000
    assert calls == Counter(_checked=2000)
