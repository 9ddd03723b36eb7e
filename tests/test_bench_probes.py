"""The benchmark's layer probes (``bench/layers.py``) find every name they wrap."""

import importlib
import os

import arscreen.cli
import arscreen.dp_residual
import arscreen.mcmc
import arscreen.parametric
import arscreen.trajectory

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
    assert arscreen.cli.save_chain is arscreen.trajectory.save_chain
    for name in ("build_importance_sampler", "inclusion_probabilities_parametric",
                 "posterior_mixing_mode"):
        assert getattr(arscreen.cli, name) is getattr(arscreen.parametric, name)
