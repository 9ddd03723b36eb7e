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
import warnings
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
from .simulation import MixtureScenario, generate_mixture_panel, generate_prior_study
from .trajectory import (
    ChainOutput,
    FLAT,
    GP,
    ModelConfig,
    GpKernelParams,
    TrajectoryAtom,
    default_hyperparameters,
    init_fdp_state,
    load_chain,
    merge_inclusion,
    prepare_gp_workspace,
    run_chain,
    save_chain,
)
from .ar_core import ArParams
from .mcmc import stream, stick_weights

DEFAULT_THRESHOLDS = (0.5, 0.9)
BAND_QUANTILES = (0.05, 0.5, 0.95)


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


# ---------------------------------------------------------------------------
# maximum-likelihood trajectory set and frozen reruns


@dataclass
class MleTrajectorySet:
    """Top trajectory atoms of the best retained sweep, ranked by weight.

    ``atoms[k].weight`` is the atom's share of the combined alternative
    (flat + gp) mixture at that sweep; ``set_weights[k]`` is its weight
    within its own stick-breaking set, which is what a frozen re-run holds
    fixed. Weights are nonincreasing in rank.
    """

    sweep: int
    loglik: float
    component_probs: np.ndarray
    names: tuple[str, ...]
    atoms: tuple[TrajectoryAtom, ...]
    set_weights: np.ndarray
    grid: np.ndarray
    requested: int

    def __len__(self) -> int:
        return len(self.atoms)


def mle_trajectory_set(chain: ChainOutput, top_k: int) -> MleTrajectorySet:
    """Extract the top-``top_k`` trajectory atoms from the best retained sweep.

    The best sweep maximizes the complete-data log-likelihood over all
    retained sweeps. Atoms from the flat and gp sets are ranked together by
    their share of the combined alternative mixture; ``top_k`` is clamped
    (with a warning) when it exceeds the number of positive-weight atoms.
    """
    if top_k < 1:
        raise DomainError(f"top_k must be at least 1, got {top_k}")
    cp, f_weights, g_weights = (chain.best_component_probs, chain.best_flat_weights,
                                chain.best_gp_weights)
    alt_mass = cp[FLAT] + cp[GP]
    ranked = [("flat", l, float(cp[FLAT] * f_weights[l]), float(f_weights[l]))
              for l in range(f_weights.size)]
    ranked += [("gp", l, float(cp[GP] * g_weights[l]), float(g_weights[l]))
               for l in range(g_weights.size)]
    if alt_mass > 0.0:
        ranked = [(k, l, w / alt_mass, sw) for k, l, w, sw in ranked]
    ranked.sort(key=lambda r: (-r[2], r[0], r[1]))
    available = sum(1 for r in ranked if r[2] > 0.0)
    k_eff = min(top_k, available)
    if k_eff < top_k:
        warnings.warn(f"requested {top_k} clusters but only {available} atoms carry "
                      f"positive weight; returning {k_eff}")
    chosen = ranked[:k_eff]
    atoms, names, set_w = [], [], []
    for rank, (kind, l, w, sw) in enumerate(chosen, start=1):
        names.append(f"c{rank:02d}_{kind}")
        set_w.append(sw)
        if kind == "flat":
            atoms.append(TrajectoryAtom("flat", weight=w, level=float(chain.best_flat_levels[l])))
        else:
            atoms.append(TrajectoryAtom("gp", weight=w, path=chain.best_gp_paths[l].copy(),
                                        grid=chain.grid.copy()))
    return MleTrajectorySet(chain.best_sweep, float(chain.logliks[chain.best_sweep]),
                            np.asarray(cp, dtype=float).copy(), tuple(names), tuple(atoms),
                            np.asarray(set_w), chain.grid.copy(), top_k)


def _atom_digest(levels, f_weights, paths, g_weights) -> str:
    h = hashlib.sha256()
    for arr in (levels, f_weights, paths, g_weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


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
    grid = np.unique(np.concatenate([s.times for s in panel]))
    if not np.array_equal(grid, frozen.grid):
        raise InvalidInputError("panel time grid differs from the frozen atoms' grid")
    flat_sel = [i for i, a in enumerate(frozen.atoms) if a.kind == "flat"]
    gp_sel = [i for i, a in enumerate(frozen.atoms) if a.kind == "gp"]
    if len(flat_sel) >= config.trunc_flat or len(gp_sel) >= config.trunc_gp:
        raise InvalidInputError("frozen atom count must stay below the truncation level")
    workspace = prepare_gp_workspace(config.kernel, grid)
    init_rng = stream(seed, "frozen-rerun", "init")
    state = init_fdp_state(len(panel), config, grid, rng=init_rng, workspace=workspace)

    def install(tset, sel):
        k = len(sel)
        if k == 0:
            return
        head_w = np.array([frozen.set_weights[i] for i in sel])
        if head_w.sum() >= 1.0:
            raise InvalidInputError("frozen atom weights must leave free stick mass")
        if tset.kind == "flat":
            tset.levels[:k] = [frozen.atoms[i].level for i in sel]
        else:
            tset.paths[:k] = np.stack([frozen.atoms[i].path for i in sel])
        free = 1.0 - head_w.sum()
        sticks = init_rng.beta(1.0, config.traj_concentration, size=tset.truncation - k - 1)
        tset.sticks = sticks
        tset.weights = np.concatenate([head_w, free * stick_weights(sticks)])
        tset.n_frozen = k

    install(state.flat_set, flat_sel)
    install(state.gp_set, gp_sel)
    state.unit_component[:] = 0
    state.unit_atom[:] = -1
    digest_before = _atom_digest(state.flat_set.levels[:len(flat_sel)],
                                 state.flat_set.weights[:len(flat_sel)],
                                 state.gp_set.paths[:len(gp_sel)],
                                 state.gp_set.weights[:len(gp_sel)])
    chain = run_chain(panel, config, n_burn=n_burn, n_keep=n_keep, seed=seed,
                      collect_bands=False, initial_state=state,
                      membership_tracking=True)
    digest_after = _atom_digest(state.flat_set.levels[:len(flat_sel)],
                                state.flat_set.weights[:len(flat_sel)],
                                state.gp_set.paths[:len(gp_sel)],
                                state.gp_set.weights[:len(gp_sel)])
    if digest_after != digest_before:
        raise NumericalError("frozen atoms were mutated during the re-run")
    counts = chain.membership_counts
    percent = counts * (100.0 / n_keep)
    order = [frozen.names[i] for i in flat_sel] + [frozen.names[i] for i in gp_sel]
    return FrozenRerunResult(chain.unit_ids, tuple(order), percent, chain, digest_before)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ReportBundle:
    inclusion_header: tuple[str, ...]
    inclusion_rows: list[list]
    band_header: tuple[str, ...]
    band_rows: list[list]
    summary_lines: list[str]


def report_summaries(chain: ChainOutput,
                     thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS) -> ReportBundle:
    """Inclusion table with flag columns, plot-ready trajectory bands, and
    one discovery-count line per threshold."""
    for t in thresholds:
        if not (0.0 < t <= 1.0):
            raise DomainError(f"thresholds must lie in (0, 1], got {t}")
    unit_ids = chain.unit_ids
    inclusion = np.asarray(chain.inclusion)
    inc_header = ("unit_id", "inclusion") + tuple(f"flagged_at_{_fmt(t)}" for t in thresholds)
    inc_rows = [[u, p] + [int(p >= t) for t in thresholds]
                for u, p in zip(unit_ids, inclusion)]
    band_header = ("unit_id", "time", "band_lo", "band_mid", "band_hi")
    band_rows: list[list] = []
    if len(chain.band_samples):
        qs = np.quantile(np.asarray(chain.band_samples, dtype=float), BAND_QUANTILES, axis=0)
        for i, u in enumerate(unit_ids):
            for j, t in enumerate(chain.grid):
                band_rows.append([u, int(t), qs[0, i, j], qs[1, i, j], qs[2, i, j]])
    lines = [f"flagged {int(np.sum(inclusion >= t))} of {len(unit_ids)} units "
             f"at threshold {_fmt(t)}" for t in thresholds]
    return ReportBundle(inc_header, inc_rows, band_header, band_rows, lines)


def write_report(bundle: ReportBundle, outdir: str, seed: int, fingerprint: str) -> list[str]:
    comments = _output_comments(seed, fingerprint)
    paths = []
    inc_path = os.path.join(outdir, "inclusion.csv")
    write_table(inc_path, bundle.inclusion_header, bundle.inclusion_rows, comments)
    paths.append(inc_path)
    if bundle.band_rows:
        band_path = os.path.join(outdir, "bands.csv")
        write_table(band_path, bundle.band_header, bundle.band_rows, comments)
        paths.append(band_path)
    summary_path = os.path.join(outdir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        for line in bundle.summary_lines:
            fh.write(line + "\n")
    paths.append(summary_path)
    return paths


# ---------------------------------------------------------------------------
# scenarios


def _parse_triples(text: str, what: str) -> list[tuple[float, float, float]]:
    out = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"{what}: expected 'a:b:c' triples, got {piece!r}")
        try:
            out.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise InvalidInputError(f"{what}: cannot parse {piece!r}") from exc
    if not out:
        raise InvalidInputError(f"{what}: no components given")
    return out


@dataclass(frozen=True)
class _ResidMix:
    weights: np.ndarray
    phi: np.ndarray
    v: np.ndarray


def simulate_from_scenario(raw: dict[str, str], seed: int):
    """Build a panel plus truth labels from a parsed scenario file."""
    kind = raw.get("kind")
    if kind == "mixture":
        comps = _parse_triples(raw.get("components", ""), "components")
        scenario = MixtureScenario(
            components=tuple((ArParams(phi, v), w) for phi, v, w in comps),
            n_units=int(raw.get("n_units", "0")),
            length=int(raw.get("length", "0")),
            shift_prob=float(raw.get("shift_prob", "0.0")),
            shift_var=float(raw.get("shift_var", "1.0")),
        )
        return generate_mixture_panel(scenario, seed)
    if kind == "prior-study":
        comps = _parse_triples(raw.get("mixture", ""), "mixture")
        weights = np.array([w for _, _, w in comps])
        mix = _ResidMix(weights, np.array([p for p, _, _ in comps]),
                        np.array([v for _, v, _ in comps]))
        length = int(raw.get("length", "0"))
        grid = np.arange(length, dtype=np.int64)
        kernel = GpKernelParams(float(raw.get("kernel_variance", "1.25")),
                                float(raw.get("kernel_length_scale", "13.0")))
        ws = prepare_gp_workspace(kernel, grid)

        def sampler(rng, times):
            if not np.array_equal(times, grid):
                raise InvalidInputError("trajectory sampler called off the scenario grid")
            return ws.chol @ rng.standard_normal(grid.size)

        noise_seed = int(raw["noise_seed"]) if "noise_seed" in raw else None
        return generate_prior_study(int(raw.get("n_units", "0")), grid,
                                    float(raw.get("signal_prob", "0.0")), mix,
                                    sampler, seed, noise_seed=noise_seed)
    raise InvalidInputError(f"scenario kind must be 'mixture' or 'prior-study', got {kind!r}")


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
    with open(os.path.join(outdir, "parametric_summary.txt"), "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"importance draws = {draws.draws.shape[0]}\n")
        fh.write(f"effective sample size = {_fmt(draws.ess)}\n")
        fh.write(f"posterior mode of mixing fraction = {_fmt(mix_mode)}\n")
        fh.write(f"flagged {n_flag} of {len(panel)} units "
                 f"at threshold {_fmt(args.threshold)}\n")
        for msg in draws.messages:
            fh.write(f"note: {msg}\n")
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

    atom_rows = []
    for name, atom in zip(frozen.names, frozen.atoms):
        desc = _fmt(atom.level) if atom.kind == "flat" else \
            " ".join(_fmt(x) for x in atom.path)
        atom_rows.append([name, atom.kind, atom.weight, desc])
    write_table(os.path.join(outdir, "mle_atoms.csv"),
                ("name", "kind", "weight", "values"), atom_rows,
                comments + (f"mle sweep = {frozen.sweep}",
                            f"complete-data loglik = {_fmt(frozen.loglik)}"))

    header = ("identifier", "name") + result.cluster_names + ("other", "null")
    rows = [[u, u] + [x for x in row]
            for u, row in zip(result.unit_ids, result.membership_percent)]
    write_table(os.path.join(outdir, "membership.csv"), header, rows, comments)

    with open(os.path.join(outdir, "membership_summary.txt"), "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"# frozen atom digest = {result.atom_digest}\n")
        width = max(len(h) for h in header)
        fh.write("  ".join(h.ljust(width) for h in header).rstrip() + "\n")
        for u, row in zip(result.unit_ids, result.membership_percent):
            cells = [u.ljust(width), u.ljust(width)]
            cells += [f"{x:.0f}".ljust(width) for x in row]
            fh.write("  ".join(cells).rstrip() + "\n")
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
    return args.func(args)


def main(argv=None) -> int:
    try:
        return cli_dispatch(sys.argv[1:] if argv is None else argv)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InvalidInputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArscreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
