"""Seeded byte mutations of every file a command reads.

A valid panel, config, scenario and chain file are mutated one edit at a
time (bytes overwritten, inserted, deleted, repeated or cut off), with
``random.Random`` seeds fixed here, and each mutant is run through a
command that reads it, in process through ``cli.main``. Whatever the
bytes, the command returns 0, 3 (invalid input) or 4 (numerical failure)
and raises nothing; a chain that still reads writes what the valid one
writes. Inserted and repeated spans are at most two bytes, so
that no mutant asks ``simulate`` for a panel much larger than the valid one.
"""

from __future__ import annotations

import random
import shutil
import zipfile
from collections import Counter

import numpy as np
import pytest

import arscreen.cli as cli
from arscreen.ar_core import ArParams, ObservedSeries, SeriesPanel
from arscreen.mcmc import stream
from arscreen.panel_io import write_panel
from arscreen.simulation import simulate_ar1
from arscreen.trajectory import RunConfig, run_chain, save_chain

CONFIG = b"n_draws = 50\ntrunc_gp = 6  # a comment\ntrunc_flat = 5\ntrunc_resid = 6\n"
SCENARIO = (b"kind = mixture\nn_units = 6\nlength = 8\n"
            b"components = 0.3:0.4:0.5; 0.9:0.1:0.5\nshift_prob = 0.5\n")


def _mutate(data: bytes, rng: random.Random, positions=None) -> bytes:
    """``data`` with one edit at a position drawn from ``positions`` (all of
    ``data`` by default)."""
    i = rng.choice(positions) if positions else rng.randrange(len(data))
    kind = rng.choice(("overwrite", "insert", "delete", "repeat", "truncate"))
    k = rng.randint(1, 2)
    if kind == "overwrite":
        return data[:i] + rng.randbytes(k) + data[i + k:]
    if kind == "insert":
        return data[:i] + rng.randbytes(k) + data[i:]
    if kind == "delete":
        return data[:i] + data[i + rng.randint(1, 8):]
    if kind == "repeat":
        return data[:i + k] + data[i:i + k] + data[i + k:]
    return data[:i]


def _run(argv: list[str], capsys) -> int:
    code = cli.main(argv)
    capsys.readouterr()
    assert code in (0, 3, 4), argv
    return code


def _panel_bytes(tmp_path) -> bytes:
    times = np.arange(8, dtype=np.int64)
    panel = SeriesPanel(tuple(
        ObservedSeries(f"u{i}", times, simulate_ar1(ArParams(0.4, 0.5), 8, stream(3, "mut", i)))
        for i in range(6)))
    path = tmp_path / "panel.csv"
    write_panel(panel, str(path), comments=("seed = 3",))
    return path.read_bytes()


@pytest.fixture(scope="module")
def chains(tmp_path_factory) -> tuple[str, dict[str, bytes]]:
    """The panel file of a small chain, the chain as ``save_chain`` writes
    it, and the same entries as ``np.savez_compressed`` writes them."""
    work = tmp_path_factory.mktemp("chains")
    times = np.arange(8, dtype=np.int64)
    panel = SeriesPanel(tuple(
        ObservedSeries(f"u{i}", times, simulate_ar1(ArParams(0.4, 0.5), 8, stream(4, "mut", i))
                       + (2.0 if i < 2 else 0.0))
        for i in range(6)))
    write_panel(panel, str(work / "panel.csv"))
    chain = run_chain(panel, RunConfig(trunc_gp=4, trunc_flat=3, trunc_resid=4),
                      n_burn=1, n_keep=2, seed=1)
    stored, compressed = work / "stored.npz", work / "compressed.npz"
    save_chain(chain, str(stored))
    with np.load(stored) as z:
        np.savez_compressed(compressed, **{k: z[k] for k in z.files})
    return str(work / "panel.csv"), {"stored": stored.read_bytes(),
                                     "compressed": compressed.read_bytes()}


def _structure(path) -> list[int]:
    """The offsets of an archive's local headers (with the 128 bytes that
    follow each, which hold an uncompressed member's ``.npy`` header) and of
    its central directory."""
    size = path.stat().st_size
    with zipfile.ZipFile(path) as z:
        spans = [range(i.header_offset, min(i.header_offset + 30 + len(i.filename) + 128, size))
                 for i in z.infolist()]
        spans.append(range(z.start_dir, size))
    return sorted({i for span in spans for i in span})


def test_mutated_text_inputs_exit_0_3_or_4(tmp_path, capsys):
    panel, config, scenario = tmp_path / "p.csv", tmp_path / "c.cfg", tmp_path / "s.cfg"
    out = str(tmp_path / "out")
    valid = _panel_bytes(tmp_path)
    config.write_bytes(CONFIG)
    codes = Counter()
    rng = random.Random(5)
    for _ in range(300):
        panel.write_bytes(_mutate(valid, rng))
        codes["panel", _run(["standardize", "--input", str(panel), "--output-dir", out],
                            capsys)] += 1
    panel.write_bytes(valid)
    for _ in range(150):
        config.write_bytes(_mutate(CONFIG, rng))
        codes["config", _run(["standardize", "--input", str(panel), "--config", str(config),
                              "--output-dir", out], capsys)] += 1
    for _ in range(150):
        scenario.write_bytes(_mutate(SCENARIO, rng))
        codes["scenario", _run(["simulate", "--scenario", str(scenario), "--output-dir", out],
                               capsys)] += 1
    # Each kind of file both reads and fails in some of its mutants.
    assert all(codes[kind, c] for kind in ("panel", "config", "scenario") for c in (0, 3)), codes


def test_mutated_chains_exit_0_3_or_4(chains, tmp_path, capsys):
    """Half of the mutants are of the uncompressed chain, half of its
    compressed copy; half of each are edits in the zip and ``.npy``
    headers, half anywhere in the file. Each mutant goes through
    ``report``, and every other one through ``cluster-mle`` too; where a
    command reads the mutant (exit 0), it writes the valid chain's files
    byte for byte."""
    panel, files = chains
    config = tmp_path / "c.cfg"
    config.write_bytes(CONFIG)
    options = {"report": [], "cluster-mle": ["--input", panel, "--config", str(config),
                                             "--top", "2", "--burn", "1", "--keep", "2"]}

    def outputs(command: str, path) -> tuple[int, dict[str, bytes]]:
        out = tmp_path / command
        shutil.rmtree(out, ignore_errors=True)
        code = _run([command, "--chain", str(path), *options[command], "--output-dir", str(out)],
                    capsys)
        return code, {p.name: p.read_bytes() for p in out.iterdir()} if code == 0 else {}

    codes = Counter()
    rng = random.Random(6)
    for name, valid in files.items():
        path = tmp_path / f"{name}.npz"
        path.write_bytes(valid)
        structure = _structure(path)
        want = {command: outputs(command, path)[1] for command in options}
        for j in range(200):
            path.write_bytes(_mutate(valid, rng, structure if j % 2 else None))
            for command in options if j % 4 < 2 else ("report",):
                code, got = outputs(command, path)
                codes[name, command, code] += 1
                if code == 0:
                    assert got == want[command], (name, j, command)
    assert all(codes[name, command, c] for name in files for command in options
               for c in (0, 3)), codes
