"""Which library functions the traced run wraps, and the per-layer metrics.

Each probe names the module whose binding is replaced. Metrics are
reported per pipeline (totals over the run divided by the pipelines run),
except ratios and ``simulation.generate.s``, which is one input generation.
"""

from __future__ import annotations

import os

from tracer import Probe, SpanTotals


def _whiten_rows(args, kwargs, result):
    group = args[0]
    values = kwargs.get("values", args[2] if len(args) > 2 else None)
    rows = group.n if values is None else (values.shape[0] if values.ndim == 2 else 1)
    return {"rows": rows, "dense_rows": 0 if group.contiguous else rows}


def _group_rows(args, kwargs, result):
    group = args[0]
    return {"rows": group.n, "dense_rows": 0 if group.contiguous else group.n}


PROBES = (
    Probe("ar_core.whiten_resid", "arscreen.dp_residual", "group_whiten", _whiten_rows),
    Probe("ar_core.whiten_traj", "arscreen.trajectory", "group_whiten", _whiten_rows),
    Probe("ar_core.gaussian_parts", "arscreen.parametric", "group_gaussian_parts", _group_rows),
    Probe("ar_core.ar1_precision", "arscreen.trajectory", "ar1_precision"),
    *(Probe("ar_core.panel_groups", m, "panel_groups",
            lambda a, k, r: {"groups": len(r)})
      for m in ("arscreen.parametric", "arscreen.trajectory", "arscreen.dp_residual")),
    Probe("trajectory.gibbs_sweep_joint", "arscreen.trajectory", "gibbs_sweep_joint"),
    Probe("trajectory.complete_data_loglik", "arscreen.trajectory", "complete_data_loglik"),
    Probe("trajectory.run_chain", "arscreen.cli", "run_chain"),
    *(Probe("trajectory.prepare_gp_workspace", m, "prepare_gp_workspace")
      for m in ("arscreen.trajectory", "arscreen.cli")),
    Probe("trajectory.clone", "arscreen.trajectory", "FdpState.clone"),
    Probe("mcmc.rw_metropolis_step", "arscreen.dp_residual", "rw_metropolis_step",
          lambda a, k, r: {"accepted": int(r[2])}),
    Probe("mcmc.gumbel_argmax", "arscreen.dp_residual", "gumbel_argmax"),
    Probe("parametric.build_importance_sampler", "arscreen.cli", "build_importance_sampler",
          lambda a, k, r: {"ess": r.ess, "draws": r.n_draws}),
    Probe("parametric.inclusion", "arscreen.cli", "inclusion_probabilities_parametric"),
    Probe("parametric.mixing_mode", "arscreen.cli", "posterior_mixing_mode"),
    Probe("cli.save_chain", "arscreen.cli", "save_chain",
          lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    Probe("cli.load_chain", "arscreen.cli", "load_chain"),
    Probe("cli.report_summaries", "arscreen.cli", "report_summaries"),
    Probe("cli.write_report", "arscreen.cli", "write_report"),
    Probe("cli.mle_trajectory_set", "arscreen.cli", "mle_trajectory_set"),
    Probe("cli.frozen_cluster_rerun", "arscreen.cli", "frozen_cluster_rerun"),
    Probe("panel_io.read_panel", "arscreen.cli", "read_panel",
          lambda a, k, r: {"rows": sum(len(s) for s in r)}),
    Probe("panel_io.write_table", "arscreen.cli", "write_table",
          lambda a, k, r: {"rows": len(a[2])}),
)

# (metric, unit, span name, field): field is "calls", "s" (total time),
# "self_s", or a count the probe adds to its spans.
_PER_PIPELINE = (
    *((f"ar_core.whiten_resid.{f}", u, "ar_core.whiten_resid", f)
      for f, u in (("calls", "count"), ("rows", "count"), ("dense_rows", "count"), ("self_s", "s"))),
    *((f"ar_core.whiten_traj.{f}", u, "ar_core.whiten_traj", f)
      for f, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))),
    *((f"ar_core.gaussian_parts.{f}", u, "ar_core.gaussian_parts", f)
      for f, u in (("calls", "count"), ("rows", "count"), ("dense_rows", "count"), ("self_s", "s"))),
    ("ar_core.ar1_precision.calls", "count", "ar_core.ar1_precision", "calls"),
    ("ar_core.ar1_precision.self_s", "s", "ar_core.ar1_precision", "self_s"),
    ("ar_core.panel_groups.groups", "count", "ar_core.panel_groups", "groups"),
    ("ar_core.panel_groups.self_s", "s", "ar_core.panel_groups", "self_s"),
    ("trajectory.gibbs_sweep_joint.calls", "count", "trajectory.gibbs_sweep_joint", "calls"),
    ("trajectory.gibbs_sweep_joint.s", "s", "trajectory.gibbs_sweep_joint", "s"),
    ("trajectory.gibbs_sweep_joint.self_s", "s", "trajectory.gibbs_sweep_joint", "self_s"),
    ("trajectory.complete_data_loglik.s", "s", "trajectory.complete_data_loglik", "s"),
    ("trajectory.run_chain.s", "s", "trajectory.run_chain", "s"),
    ("trajectory.prepare_gp_workspace.s", "s", "trajectory.prepare_gp_workspace", "s"),
    ("trajectory.clone.calls", "count", "trajectory.clone", "calls"),
    ("trajectory.clone.s", "s", "trajectory.clone", "s"),
    ("mcmc.rw_metropolis_step.calls", "count", "mcmc.rw_metropolis_step", "calls"),
    ("mcmc.rw_metropolis_step.self_s", "s", "mcmc.rw_metropolis_step", "self_s"),
    ("mcmc.gumbel_argmax.self_s", "s", "mcmc.gumbel_argmax", "self_s"),
    *((f"parametric.{n}.{f}", "s", f"parametric.{n}", f)
      for n in ("build_importance_sampler", "inclusion", "mixing_mode") for f in ("s", "self_s")),
    *((f"cli.{n}.s", "s", f"cli.{n}", "s")
      for n in ("save_chain", "load_chain", "report_summaries", "write_report",
                "mle_trajectory_set", "frozen_cluster_rerun")),
    ("cli.save_chain.bytes", "bytes", "cli.save_chain", "bytes"),
    *((f"panel_io.{n}.{f}", u, f"panel_io.{n}", f)
      for n in ("read_panel", "write_table") for f, u in (("s", "s"), ("rows", "count"))),
)


def _field(t, field: str) -> float:
    if field == "calls":
        return t.calls
    if field == "s":
        return t.total_s
    if field == "self_s":
        return t.self_s
    return t.attrs.get(field, 0.0)


def layer_metrics(totals: dict, pipelines: int, missing=(), n_spans: int = 0,
                  overhead_per_span: float = 0.0, generate_s: float = 0.0):
    """Per-layer metrics from the merged span totals of a traced run.

    Returns ``(metrics, missing_metrics)``: ``metrics`` maps a name to
    ``{"value", "unit"}``; a metric whose probe could not be installed is
    listed in ``missing_metrics`` instead. A probe that is installed but
    never called reads 0.
    """
    out, gone = {}, []

    def put(name, unit, value, span_names):
        if any(s in missing for s in span_names):
            gone.append(name)
        else:
            out[name] = {"value": value, "unit": unit}

    def get(span, field):
        return _field(totals.get(span) or SpanTotals(), field)

    for name, unit, span, field in _PER_PIPELINE:
        put(name, unit, get(span, field) / pipelines, (span,))

    step = "mcmc.rw_metropolis_step"
    steps = get(step, "calls")
    put(f"{step}.accept_ratio", "ratio",
        get(step, "accepted") / steps if steps else 0.0, (step,))
    put(f"{step}.whiten_calls", "count",
        get(step, "child:ar_core.whiten_resid") / steps if steps else 0.0,
        (step, "ar_core.whiten_resid"))
    sampler = "parametric.build_importance_sampler"
    draws = get(sampler, "draws")
    put("parametric.ess_ratio", "ratio", get(sampler, "ess") / draws if draws else 0.0, (sampler,))
    put("simulation.generate.s", "s", generate_s, ())
    put("trace.overhead_s", "s", n_spans * overhead_per_span / pipelines, ())
    return out, gone
