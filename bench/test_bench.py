"""Smoke tests of the benchmark harness: ``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import Runner, auc, check_outputs, end_to_end, read_column  # noqa: E402
from tracer import Probe, Span, Tracer, merge, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, delete_interior  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # parent [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    spans = [Span("parent", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0),
             Span("g", 2.0, 3.0, parent=1), Span("b", 5.0, 6.0, parent=0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    totals = summarize(spans)
    assert totals["parent"].total_s == 10.0 and totals["parent"].self_s == 6.0


def test_tracer_nests_counts_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    original_inner = mod.inner
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 10.0]))
    tracer.install([
        Probe("outer", "fake_layer", "outer"),
        Probe("inner", "fake_layer", "inner", lambda a, k, r: {"items": a[0]}),
        Probe("moved", "fake_layer", "no_such_function"),
    ])
    try:
        assert mod.outer(4) == 10
    finally:
        tracer.uninstall()
    assert mod.inner is original_inner
    assert tracer.missing == {"moved"}
    totals = summarize(tracer.spans)
    assert totals["outer"].total_s == 10.0 and totals["outer"].self_s == 8.0
    assert totals["inner"].attrs["items"] == 4
    assert totals["outer"].attrs["child:inner"] == 1


def test_layer_metrics_reports_missing_probes_without_failing():
    spans = [Span("mcmc.rw_metropolis_step", 0.0, 4.0, attrs={"accepted": 1}),
             Span("ar_core.whiten_resid", 1.0, 2.0, parent=0),
             Span("ar_core.whiten_resid", 2.0, 3.0, parent=0),
             Span("ar_core.whiten_resid", 5.0, 6.0)]
    # two processes' totals, as command.py children report them, merged
    totals = merge([summarize(spans), summarize(spans[:1])])
    metrics, gone = layers.layer_metrics(totals, pipelines=2, missing={"ar_core.gaussian_parts"})
    assert metrics["mcmc.rw_metropolis_step.whiten_calls"]["value"] == 1
    assert metrics["mcmc.rw_metropolis_step.self_s"]["value"] == 3.0
    assert metrics["ar_core.whiten_resid.calls"]["value"] == 1.5
    assert metrics["mcmc.rw_metropolis_step.accept_ratio"]["value"] == 1.0
    assert "ar_core.gaussian_parts.self_s" in gone
    assert "ar_core.gaussian_parts.self_s" not in metrics


def test_auc_counts_ties_as_half():
    assert auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == 0.75
    assert auc([0.5, 0.5], [False, True]) == 0.5


def test_delete_interior_keeps_endpoints(tmp_path):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    rows = [f"u{u},{t},{u + t / 10}" for u in range(3) for t in range(20)]
    src.write_text("# seed = 1\nunit_id,time,value\n" + "\n".join(rows) + "\n")
    deleted = delete_interior(str(src), str(dst), 0.5, seed=3)
    lines = dst.read_text().splitlines()
    assert lines[0] == "# seed = 1" and lines[1] == "unit_id,time,value"
    kept = [line.split(",") for line in lines[2:]]
    assert len(kept) == 60 - deleted and 0 < deleted < 54
    for u in range(3):
        times = [int(t) for uid, t, _ in kept if uid == f"u{u}"]
        assert times[0] == 0 and times[-1] == 19


def test_harness_end_to_end_on_toy_panel(tmp_path):
    """run.py on the toy workload: both modes print a checked result line."""
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, info
        assert info["checks"]["outputs_identical"]
        if trace:
            assert "ar_core.whiten_resid.dense_rows" in result["metrics"]
            assert not info["missing_layers"]
        else:
            assert result["metrics"]["command_success_rate"]["value"] == 1.0
            assert result["metrics"]["setup_s"]["unit"] == "s"
    assert not os.path.exists(os.path.join(ROOT, ".bench_work"))


def test_run_refuses_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_check_outputs_flags_nonidentical_pipelines(tmp_path):
    wl = WORKLOADS["smoke"]
    truth = tmp_path / "truth.csv"
    truth.write_text("unit_id,nonnull,component\na,1,0\nb,0,0\n")
    pipes = []
    for k, p_a in enumerate(("0.9", "0.8")):
        d = tmp_path / f"pipeline_{k}"
        for rel in ("par/parametric_inclusion.csv", "fit/inclusion.csv", "rep/inclusion.csv"):
            f = d / rel
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_text(f"# seed = 1\nunit_id,inclusion\na,{p_a}\nb,0.1\n")
        pipes.append({"dir": str(d), "panel": 0, "commands": [{"name": "fit-np", "rc": 0}]})
    checks, aucs, _ = check_outputs(wl, pipes, [str(truth)])
    assert checks["inclusion_valid"] and aucs["fit-np"] == 1.0
    assert not checks["outputs_identical"]
    # the same outputs on two panels are no repetition: nothing was compared
    pipes[1]["panel"] = 1
    checks, _, _ = check_outputs(wl, pipes, [str(truth), str(truth)])
    assert not checks["outputs_identical"]
    assert read_column(str(truth), "nonnull") == {"a": "1", "b": "0"}


def test_session_stops_at_first_failed_command(tmp_path):
    run_session = Runner(ROOT, str(tmp_path), trace=0, deadline=time.perf_counter() + 60.0)
    import_s, results = run_session([["no-such-command"], ["simulate", "--help"]])
    assert import_s > 0.0
    assert len(results) == 1 and results[0]["rc"] != 0


def test_end_to_end_takes_median_repetition_and_averages_panels():
    wl = WORKLOADS["smoke"]

    def pipe(panel, seconds, rc=0, names=wl.commands):
        return {"panel": panel, "commands": [{"name": n, "rc": rc, "command_s": seconds,
                                              "rss_mb": 100.0} for n in names]}

    pipes = [pipe(0, 1.0), pipe(1, 3.0), pipe(0, 2.0), pipe(1, 5.0), pipe(0, 9.0),
             pipe(1, 0.1, rc=4, names=("fit-parametric", "fit-np"))]
    metrics = end_to_end(wl, pipes, setup_s=1.5)
    assert metrics["command_success_rate"]["value"] == 20 / 22
    assert metrics["fit_np_s"]["value"] == 3.0       # mean of medians 2.0 and 4.0
    assert metrics["pipeline_s"]["value"] == 12.0    # four commands per pipeline
    assert metrics["setup_s"]["value"] == 1.5
    assert set(end_to_end(wl, pipes[-1:], setup_s=1.5)) == {"setup_s", "command_success_rate"}
