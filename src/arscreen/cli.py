"""Command-line driver tying the pipeline together.

Subcommands: ``standardize`` (rank-normalize a panel), ``simulate``
(generate a panel plus truth labels from a scenario file),
``fit-parametric`` (importance-sampling screen), ``fit-np`` (joint
trajectory model by MCMC), ``report`` (tables and bands from a saved
chain), and ``cluster-mle`` (extract the maximum-likelihood trajectory
set and re-run with those atoms frozen to get cluster memberships).

Every output file embeds the seed and a fingerprint of the run
configuration, and identical invocations produce byte-identical outputs.
Exit codes: 0 success, 2 usage errors, 3 invalid input or domain errors,
4 numerical failures.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .ar_core import SeriesPanel, cdf_standardize
from .errors import ArscreenError, DomainError, InvalidInputError, NumericalError
from .panel_io import _fmt, read_panel, write_panel, write_table
from .parametric import (
    ParametricPrior,
    build_importance_sampler,
    inclusion_probabilities_parametric,
    posterior_mixing_mode,
)
from .simulation import simulate_from_scenario
from .trajectory import (
    DEFAULT_THRESHOLDS,
    ChainOutput,
    GpKernelParams,
    MleTrajectorySet,
    ModelConfig,
    ReportBundle,
    default_hyperparameters,
    frozen_initial_state,
    load_chain,
    merge_inclusion,
    mle_trajectory_set,
    report_summaries,
    run_chain,
    save_chain,
)
# Bound only for the probes in bench/layers.py; not called here (counts read 0).
from .trajectory import prepare_gp_workspace  # noqa: F401


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Scalar knobs of a run; the fingerprint of its canonical text keys outputs."""

    kernel_variance: float = 1.25
    kernel_length_scale: float = 13.0
    resid_concentration: float = 0.0     # 0 means elicit 10 / ln(n_units)
    traj_concentration: float = 0.0      # 0 means elicit 15 / ln(n_units)
    trunc_resid: int = 60
    trunc_gp: int = 60
    trunc_flat: int = 30
    phi_mean: float = 0.5
    phi_var: float = 0.0625
    var_shape: float = 2.0
    var_scale: float = 1.0
    shift_var: float = 1.0
    n_draws: int = 5000

    def canonical(self) -> str:
        pairs = sorted((f.name, getattr(self, f.name)) for f in fields(self))
        return "\n".join(f"{k} = {_fmt(v)}" for k, v in pairs)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def parametric_prior(self) -> ParametricPrior:
        return ParametricPrior(phi_mean=self.phi_mean, phi_var=self.phi_var,
                               var_shape=self.var_shape, var_scale=self.var_scale,
                               shift_var=self.shift_var)

    def model_config(self, n_units: int) -> ModelConfig:
        elicited = default_hyperparameters(max(n_units, 2))
        return ModelConfig(
            kernel=GpKernelParams(self.kernel_variance, self.kernel_length_scale),
            base=self.parametric_prior(),
            resid_concentration=self.resid_concentration or elicited.resid_concentration,
            traj_concentration=self.traj_concentration or elicited.traj_concentration,
            trunc_resid=self.trunc_resid,
            trunc_gp=self.trunc_gp,
            trunc_flat=self.trunc_flat,
        )


def parse_kv_file(path: str) -> dict[str, str]:
    """Read a ``key = value`` text file; '#' starts a comment."""
    if not os.path.exists(path):
        raise InvalidInputError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise InvalidInputError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise InvalidInputError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    raw = parse_kv_file(path)
    known = {f.name: f.type for f in fields(RunConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise InvalidInputError(f"unknown config key {key!r} in {path}")
        try:
            kwargs[key] = int(value) if known[key] == "int" else float(value)
        except ValueError as exc:
            raise InvalidInputError(f"config key {key!r}: cannot parse {value!r}") from exc
    return RunConfig(**kwargs)


def _output_comments(seed: int, fingerprint: str) -> tuple[str, str]:
    return (f"seed = {seed}", f"config = {fingerprint}")


def _write_lines(path: str, comments, lines) -> None:
    """A text file of one '# ' line per comment, then ``lines``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([f"# {c}\n" for c in comments] + [f"{line}\n" for line in lines])


# ---------------------------------------------------------------------------
# frozen reruns and reports


@dataclass
class FrozenRerunResult:
    """Membership table from a chain run with the MLE atoms held fixed."""

    unit_ids: tuple[str, ...]
    cluster_names: tuple[str, ...]        # columns between id and other/null
    membership_percent: np.ndarray        # (N, len(cluster_names) + 2)
    chain: ChainOutput
    atom_digest: str


def frozen_cluster_rerun(panel: SeriesPanel, frozen: MleTrajectorySet,
                         config: ModelConfig, seed: int,
                         n_burn: int = 200, n_keep: int = 500) -> FrozenRerunResult:
    """Re-run the joint chain with the given atoms' values and weights fixed.

    Free atoms fill the remaining truncation slots and the leftover stick
    mass; every retained sweep bins each unit into {one of the frozen
    atoms, other, null}, and the table reports percentages summing to 100.
    The frozen atoms are fingerprinted before and after to guarantee the
    run never mutated them.
    """
    state, names = frozen_initial_state(panel, frozen, config, seed)
    digest = state.frozen_digest()
    chain = run_chain(panel, config, n_burn=n_burn, n_keep=n_keep, seed=seed,
                      initial_state=state)
    if state.frozen_digest() != digest:
        raise NumericalError("frozen atoms were mutated during the re-run")
    percent = chain.membership_counts * (100.0 / n_keep)
    return FrozenRerunResult(chain.unit_ids, names, percent, chain, digest)


def write_report(bundle: ReportBundle, outdir: str, seed: int, fingerprint: str) -> None:
    comments = _output_comments(seed, fingerprint)
    write_table(os.path.join(outdir, "inclusion.csv"), bundle.inclusion_header,
                bundle.inclusion_rows, comments)
    if bundle.band_rows:
        write_table(os.path.join(outdir, "bands.csv"), bundle.band_header, bundle.band_rows,
                    comments)
    _write_lines(os.path.join(outdir, "summary.txt"), comments, bundle.summary_lines)


# ---------------------------------------------------------------------------
# subcommand bodies


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_standardize(args) -> int:
    panel = read_panel(args.input)
    config = load_run_config(args.config)
    out = cdf_standardize(panel)
    outdir = _ensure_outdir(args.output_dir)
    write_panel(out, os.path.join(outdir, "standardized.csv"),
                comments=_output_comments(args.seed, config.fingerprint()))
    return 0


def _cmd_simulate(args) -> int:
    raw = parse_kv_file(args.scenario)
    panel, truth = simulate_from_scenario(raw, args.seed)
    outdir = _ensure_outdir(args.output_dir)
    config = load_run_config(args.config)
    comments = _output_comments(args.seed, config.fingerprint())
    write_panel(panel, os.path.join(outdir, "panel.csv"), comments=comments)
    rows = [[u, int(nn), int(c)]
            for u, nn, c in zip(truth.unit_ids, truth.nonnull, truth.component)]
    write_table(os.path.join(outdir, "truth.csv"),
                ("unit_id", "nonnull", "component"), rows, comments)
    return 0


def _cmd_fit_parametric(args) -> int:
    panel = read_panel(args.input, min_length=2)
    config = load_run_config(args.config)
    prior = config.parametric_prior()
    draws = build_importance_sampler(panel, prior, n_draws=config.n_draws, seed=args.seed)
    summary = inclusion_probabilities_parametric(draws, panel, prior)
    mix_mode = posterior_mixing_mode(draws)
    outdir = _ensure_outdir(args.output_dir)
    comments = _output_comments(args.seed, config.fingerprint())
    rows = [[u, p, se, int(p >= args.threshold)]
            for u, p, se in zip(summary.unit_ids, summary.probability, summary.mc_stderr)]
    write_table(os.path.join(outdir, "parametric_inclusion.csv"),
                ("unit_id", "inclusion", "mc_stderr", f"flagged_at_{_fmt(args.threshold)}"),
                rows, comments)
    n_flag = int(np.sum(summary.probability >= args.threshold))
    _write_lines(os.path.join(outdir, "parametric_summary.txt"), comments, [
        f"importance draws = {draws.draws.shape[0]}",
        f"effective sample size = {_fmt(draws.ess)}",
        f"posterior mode of mixing fraction = {_fmt(mix_mode)}",
        f"posterior mode (phi, v, p) = ({', '.join(map(_fmt, draws.mode.phi_v_p))})",
        f"Newton iterations to the mode = {draws.mode.iterations}",
        f"max |gradient| at the mode = {_fmt(draws.mode.max_grad)}",
        f"flagged {n_flag} of {len(panel)} units at threshold {_fmt(args.threshold)}",
        *(f"note: {msg}" for msg in draws.messages)])
    return 0


def _cmd_fit_np(args) -> int:
    panel = read_panel(args.input, min_length=2)
    config = load_run_config(args.config)
    model = config.model_config(len(panel))
    fingerprint = config.fingerprint()
    outdir = _ensure_outdir(args.output_dir)
    chains = []
    for c in range(args.chains):
        chain = run_chain(panel, model, n_burn=args.burn, n_keep=args.keep,
                          seed=args.seed + c, fingerprint=fingerprint)
        save_chain(chain, os.path.join(outdir, f"chain_{c}.npz"))
        chains.append(chain)
    pooled = merge_inclusion(chains)
    thresholds = tuple(sorted(set(DEFAULT_THRESHOLDS) | {args.threshold}))
    bundle = report_summaries(replace(chains[0], inclusion=pooled), thresholds=thresholds)
    write_report(bundle, outdir, args.seed, fingerprint)
    return 0


def _cmd_report(args) -> int:
    chain = load_chain(args.chain)
    bundle = report_summaries(chain)
    outdir = _ensure_outdir(args.output_dir)
    write_report(bundle, outdir, chain.seed, chain.fingerprint)
    return 0


def _cmd_cluster_mle(args) -> int:
    panel = read_panel(args.input, min_length=2)
    chain = load_chain(args.chain)
    if tuple(chain.unit_ids) != panel.unit_ids:
        raise InvalidInputError("chain was fit on a different panel than --input")
    config = load_run_config(args.config)
    model = config.model_config(len(panel))
    frozen = mle_trajectory_set(chain, args.top)
    result = frozen_cluster_rerun(panel, frozen, model, args.seed,
                                  n_burn=args.burn, n_keep=args.keep)
    outdir = _ensure_outdir(args.output_dir)
    comments = _output_comments(args.seed, config.fingerprint())

    atom_rows = [[name, atom.kind, atom.weight,
                  _fmt(atom.level) if atom.kind == "flat" else " ".join(map(_fmt, atom.path))]
                 for name, atom in zip(frozen.names, frozen.atoms)]
    write_table(os.path.join(outdir, "mle_atoms.csv"),
                ("name", "kind", "weight", "values"), atom_rows,
                comments + (f"mle sweep = {frozen.sweep}",
                            f"complete-data loglik = {_fmt(frozen.loglik)}"))

    header = ("identifier", "name") + result.cluster_names + ("other", "null")
    rows = [[u, u, *row] for u, row in zip(result.unit_ids, result.membership_percent)]
    write_table(os.path.join(outdir, "membership.csv"), header, rows, comments)

    width = max(len(h) for h in header)
    table = [header] + [[u, u] + [f"{x:.0f}" for x in row]
                        for u, row in zip(result.unit_ids, result.membership_percent)]
    _write_lines(os.path.join(outdir, "membership_summary.txt"),
                 comments + (f"frozen atom digest = {result.atom_digest}",),
                 ["  ".join(c.ljust(width) for c in cells).rstrip() for cells in table])
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arscreen",
        description="Screen panels of AR(1) series for nonzero mean trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", required=True, help="directory for outputs")
        p.add_argument("--seed", type=int, default=0, help="integer seed")
        p.add_argument("--config", default=None, help="key = value config file")

    p = sub.add_parser("standardize", help="rank-normalize a panel to normal scores")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_standardize)

    p = sub.add_parser("simulate", help="generate a panel and truth labels")
    p.add_argument("--scenario", required=True, help="scenario key = value file")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-parametric", help="importance-sampling screen")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    common(p)
    p.set_defaults(func=_cmd_fit_parametric)

    p = sub.add_parser("fit-np", help="joint trajectory model by MCMC")
    p.add_argument("--input", required=True)
    p.add_argument("--burn", type=int, default=200)
    p.add_argument("--keep", type=int, default=500)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--threshold", type=float, default=0.5)
    common(p)
    p.set_defaults(func=_cmd_fit_np)

    p = sub.add_parser("report", help="tables and bands from a saved chain")
    p.add_argument("--chain", required=True, help="chain .npz from fit-np")
    common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("cluster-mle", help="extract and freeze the MLE trajectory set")
    p.add_argument("--input", required=True)
    p.add_argument("--chain", required=True, help="chain .npz from fit-np")
    p.add_argument("--top", type=int, required=True, help="number of clusters to keep")
    p.add_argument("--burn", type=int, default=200)
    p.add_argument("--keep", type=int, default=500)
    common(p)
    p.set_defaults(func=_cmd_cluster_mle)
    return parser


def cli_dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {args.seed}")
    if not (0.0 < getattr(args, "threshold", 0.5) <= 1.0):
        raise DomainError(f"threshold must lie in (0, 1], got {args.threshold}")
    if getattr(args, "chains", 1) < 1:
        raise InvalidInputError(f"need at least one chain, got {args.chains}")
    return args.func(args)


def main(argv=None) -> int:
    try:
        return cli_dispatch(sys.argv[1:] if argv is None else argv)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArscreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
