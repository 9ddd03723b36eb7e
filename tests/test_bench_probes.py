"""The benchmark's layer probes (``bench/layers.py``) find every name they wrap."""

import importlib
import os

import numpy as np

import arscreen.cli
import arscreen.dp_residual
import arscreen.mcmc
import arscreen.parametric
import arscreen.trajectory
from arscreen.ar_core import ArParams, ObservedSeries, SeriesPanel
from arscreen.cli import main
from arscreen.mcmc import stream
from arscreen.panel_io import write_panel
from arscreen.simulation import simulate_ar1

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_probe_stays_bound(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install(layers.PROBES)
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
    assert arscreen.cli.run_chain is arscreen.trajectory.run_chain
    assert arscreen.dp_residual.rw_metropolis_step is arscreen.mcmc.rw_metropolis_step
    assert arscreen.dp_residual.gumbel_argmax is arscreen.mcmc.gumbel_argmax
    for name in ("save_chain", "mle_trajectory_set", "report_summaries"):
        assert getattr(arscreen.cli, name) is getattr(arscreen.trajectory, name)
    for name in ("build_importance_sampler", "inclusion_probabilities_parametric",
                 "posterior_mixing_mode"):
        assert getattr(arscreen.cli, name) is getattr(arscreen.parametric, name)


def test_write_table_rows_count_band_and_inclusion_rows(monkeypatch, tmp_path):
    """A traced ``fit-np`` counts one ``panel_io.write_table`` row per band
    row (unit and time) and per inclusion row: N x G + N."""
    n_units, n_times = 5, 7
    times = np.arange(n_times, dtype=np.int64)
    panel = SeriesPanel(tuple(
        ObservedSeries(f"u{i}", times, simulate_ar1(ArParams(0.3, 0.5), n_times, stream(2, "probe", i)))
        for i in range(n_units)))
    path = str(tmp_path / "panel.csv")
    write_panel(panel, path)
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    tracer.install(layers.PROBES)
    try:
        rc = main(["fit-np", "--input", path, "--burn", "2", "--keep", "3",
                   "--output-dir", str(tmp_path / "fit")])
    finally:
        tracer.uninstall()
    assert rc == 0
    totals = tracer_module.summarize(tracer.spans)
    assert totals["panel_io.write_table"].attrs["rows"] == n_units * n_times + n_units


def test_write_table_rows_count_report_rows(monkeypatch, tmp_path):
    """A traced ``report`` counts the same N x G + N ``panel_io.write_table``
    rows as ``fit-np``, which writes its bands before pooling."""
    n_units, n_times = 4, 6
    times = np.arange(n_times, dtype=np.int64)
    panel = SeriesPanel(tuple(
        ObservedSeries(f"u{i}", times, simulate_ar1(ArParams(0.3, 0.5), n_times, stream(3, "probe", i)))
        for i in range(n_units)))
    path = str(tmp_path / "panel.csv")
    write_panel(panel, path)
    assert main(["fit-np", "--input", path, "--burn", "2", "--keep", "3",
                 "--output-dir", str(tmp_path / "fit")]) == 0
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    tracer.install(layers.PROBES)
    try:
        rc = main(["report", "--chain", str(tmp_path / "fit" / "chain_0.npz"),
                   "--output-dir", str(tmp_path / "rep")])
    finally:
        tracer.uninstall()
    assert rc == 0
    totals = tracer_module.summarize(tracer.spans)
    assert totals["panel_io.write_table"].attrs["rows"] == n_units * n_times + n_units
    assert totals["panel_io.write_table"].calls == 2
