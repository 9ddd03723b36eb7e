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

# Besides what it uses, this module imports what numpy and zipfile would
# otherwise load inside a command: encodings.cp437 (zipfile reading a chain)
# and numpy.random (the first random stream). Every CLI call pays this
# import, and no command imports a module; only an argv that argparse reads
# (help, an error) loads more: argparse itself, with its gettext and locale.
import encodings.cp437  # noqa: F401
import io
import os
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import numpy.random  # noqa: F401

from .ar_core import cdf_standardize
from .errors import ArscreenError, DomainError, InvalidInputError, NumericalError
from .panel_io import ColumnRows, _fmt, read_panel, read_text, write_panel, write_table
from .parametric import (
    build_importance_sampler,
    inclusion_probabilities_parametric,
    posterior_mixing_mode,
)
from .simulation import simulate_from_scenario
from .trajectory import (
    BAND_HEADER,
    DEFAULT_THRESHOLDS,
    ReportBundle,
    RunConfig,
    band_table,
    frozen_cluster_rerun,
    load_chain,
    load_inclusion,
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


def parse_kv_file(path: str) -> dict[str, str]:
    """Read a ``key = value`` UTF-8 text file; '#' starts a comment."""
    try:
        text = read_text(path)
    except OSError as exc:      # missing, a directory, or not readable by this process
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):   # universal newlines
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
    known = {f.name: f.type for f in fields(RunConfig) if f.init}
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
# reports


def write_report(bundle: ReportBundle, outdir: str, seed: int, fingerprint: str) -> None:
    comments = _output_comments(seed, fingerprint)
    write_table(os.path.join(outdir, "inclusion.csv"), bundle.inclusion_header,
                bundle.inclusion_rows, comments)
    _write_lines(os.path.join(outdir, "summary.txt"), comments, bundle.summary_lines)


# ---------------------------------------------------------------------------
# subcommand bodies


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _check_outdir(path: str) -> None:
    """Reject an empty output directory, or one that is a file or lies under one."""
    if not path:
        raise InvalidInputError("--output-dir must not be empty")
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise InvalidInputError(f"--output-dir {path}: {existing} is not a directory")


def _cmd_standardize(args, config: RunConfig) -> int:
    panel = read_panel(args.input)
    out = cdf_standardize(panel)
    outdir = _ensure_outdir(args.output_dir)
    write_panel(out, os.path.join(outdir, "standardized.csv"),
                comments=_output_comments(args.seed, config.fingerprint()))
    return 0


def _cmd_simulate(args, config: RunConfig) -> int:
    raw = parse_kv_file(args.scenario)
    panel, truth = simulate_from_scenario(raw, args.seed)
    outdir = _ensure_outdir(args.output_dir)
    comments = _output_comments(args.seed, config.fingerprint())
    write_panel(panel, os.path.join(outdir, "panel.csv"), comments=comments)
    write_table(os.path.join(outdir, "truth.csv"), ("unit_id", "nonnull", "component"),
                ColumnRows(truth.unit_ids, truth.nonnull.astype(np.int64),
                           truth.component.astype(np.int64)), comments)
    return 0


def _cmd_fit_parametric(args, config: RunConfig) -> int:
    panel = read_panel(args.input, min_length=2)
    draws = build_importance_sampler(panel, config.base, n_draws=config.n_draws, seed=args.seed)
    summary = inclusion_probabilities_parametric(draws, panel, config.base)
    mix_mode = posterior_mixing_mode(draws)
    outdir = _ensure_outdir(args.output_dir)
    comments = _output_comments(args.seed, config.fingerprint())
    flags = (summary.probability >= args.threshold).astype(np.int64)
    write_table(os.path.join(outdir, "parametric_inclusion.csv"),
                ("unit_id", "inclusion", "mc_stderr", f"flagged_at_{_fmt(args.threshold)}"),
                ColumnRows(summary.unit_ids, summary.probability, summary.mc_stderr, flags),
                comments)
    n_flag = int(flags.sum())
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps
    one (``taskset`` narrows it), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _failure_record(c: int, exc: Exception) -> bytes:
    """What a worker sends for its failing chain ``c``: the chain, the exit
    code ``main`` would give, and the error line or the traceback."""
    if isinstance(exc, ArscreenError):
        code, text = (4 if isinstance(exc, NumericalError) else 3), str(exc)
    else:
        import traceback   # loaded only in a failing worker, never in the command process
        code, text = 1, "".join(traceback.format_exception(exc))
    return f"{c}\n{code}\n{text}".encode()


def _worker_failure(record: bytes) -> tuple[int, Exception]:
    """The chain and the exception of a worker's failure record, raised as
    the command process would raise it from that chain."""
    c, code, text = record.decode().split("\n", 2)
    if code == "1":
        return int(c), RuntimeError(f"chain {c} failed in a worker process:\n{text}")
    return int(c), (NumericalError if code == "4" else ArscreenError)(text)


def _run_chains(run, n_chains: int, n_proc: int):
    """Run chains 0 .. n_chains - 1 through ``run(c)`` in ``n_proc`` processes
    and return ``run(0)``.

    This process runs chains 0, n_proc, 2 n_proc, ...; worker j, forked
    before any chain starts, runs chains j, j + n_proc, ... and leaves only
    through ``os._exit``. Each process stops at its first failing chain, and
    the failure of the lowest-numbered failing chain is raised, as a loop
    over the chains in order would raise it. Every worker is reaped before
    this returns or raises; when chain 0 fails or this process is
    interrupted, it is killed first.
    """
    workers = {}            # pid -> (its first chain, read end of the pipe it reports on)
    failures = []           # (chain, exception), at most one per process
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for j in range(1, n_proc):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    record = b""
                    for c in range(j, n_chains, n_proc):
                        try:
                            run(c)
                        except Exception as exc:
                            record = _failure_record(c, exc)
                            break
                    with os.fdopen(write_fd, "wb") as fh:
                        fh.write(record)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            workers[pid] = (j, os.fdopen(read_fd, "rb"))
        first = run(0)      # no chain comes before it: if it fails, the finally stops the workers
        for c in range(n_proc, n_chains, n_proc):
            try:
                run(c)
            except Exception as exc:
                failures.append((c, exc))
                break
        for pid, (j, fh) in list(workers.items()):
            record = fh.read()
            fh.close()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if record:
                failures.append(_worker_failure(record))
            elif status != 0:     # killed before it could report: counted at its first chain
                failures.append((j, RuntimeError(f"chain worker {pid} ended with exit status "
                                                 f"{os.waitstatus_to_exitcode(status)}")))
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return first
    finally:
        for pid, (_, fh) in workers.items():
            fh.close()
            os.kill(pid, 9)    # SIGKILL: os.fork, and so a worker, exists only on POSIX
            os.waitpid(pid, 0)


def _cmd_fit_np(args, config: RunConfig) -> int:
    panel = read_panel(args.input, min_length=2)
    fingerprint = config.fingerprint()
    comments = _output_comments(args.seed, fingerprint)
    outdir = _ensure_outdir(args.output_dir)
    paths = [os.path.join(outdir, f"chain_{c}.npz") for c in range(args.chains)]

    def run(c: int) -> SimpleNamespace:
        chain = run_chain(panel, config, n_burn=args.burn, n_keep=args.keep, seed=args.seed + c)
        save_chain(chain, paths[c])
        if c == 0:      # its bands are written while the workers run their chains
            write_table(os.path.join(outdir, "bands.csv"), BAND_HEADER, band_table(chain),
                        comments)
        return SimpleNamespace(unit_ids=chain.unit_ids, inclusion=chain.inclusion)

    n_proc = min(args.chains, _usable_cpus()) if hasattr(os, "fork") else 1
    pooled = _run_chains(run, args.chains, n_proc)
    # Only chain 0's ids and inclusion outlive its run; a later chain is
    # pooled from its file's, so no process holds two chains' bands.
    pooled.inclusion = merge_inclusion([pooled] + [load_inclusion(p) for p in paths[1:]])
    thresholds = tuple(sorted(set(DEFAULT_THRESHOLDS) | {args.threshold}))
    bundle = report_summaries(pooled, thresholds=thresholds)
    write_report(bundle, outdir, args.seed, fingerprint)
    return 0


def _cmd_report(args, config: RunConfig) -> int:
    chain = load_chain(args.chain)
    bundle = report_summaries(chain)
    outdir = _ensure_outdir(args.output_dir)
    write_table(os.path.join(outdir, "bands.csv"), BAND_HEADER, band_table(chain),
                _output_comments(chain.seed, chain.fingerprint))
    write_report(bundle, outdir, chain.seed, chain.fingerprint)
    return 0


def _cmd_cluster_mle(args, config: RunConfig) -> int:
    panel = read_panel(args.input, min_length=2)
    chain = load_chain(args.chain)
    if tuple(chain.unit_ids) != panel.unit_ids:
        raise InvalidInputError("chain was fit on a different panel than --input")
    frozen = mle_trajectory_set(chain, args.top)
    names, percent, digest = frozen_cluster_rerun(panel, frozen, config, args.seed,
                                                  n_burn=args.burn, n_keep=args.keep)
    outdir = _ensure_outdir(args.output_dir)
    comments = _output_comments(args.seed, config.fingerprint())

    atoms = frozen.atoms
    values = [_fmt(a.level) if a.kind == "flat" else " ".join(map(_fmt, a.path)) for a in atoms]
    write_table(os.path.join(outdir, "mle_atoms.csv"), ("name", "kind", "weight", "values"),
                ColumnRows(frozen.names, [a.kind for a in atoms], [a.weight for a in atoms], values),
                comments + (f"mle sweep = {frozen.sweep}",
                            f"complete-data loglik = {_fmt(frozen.loglik)}"))

    header = ("identifier", "name") + names + ("other", "null")
    ids = panel.unit_ids
    write_table(os.path.join(outdir, "membership.csv"), header,
                ColumnRows(ids, ids, *percent.T), comments)

    width = max(len(h) for h in header)
    table = [header] + [[u, u] + [f"{x:.0f}" for x in row]
                        for u, row in zip(ids, percent.tolist())]
    _write_lines(os.path.join(outdir, "membership_summary.txt"),
                 comments + (f"frozen atom digest = {digest}",),
                 ["  ".join(c.ljust(width) for c in cells).rstrip() for cells in table])
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# Options as (flag, type, default, required, help). Every command takes its
# own options, then the common ones.
_COMMON = (("--output-dir", str, None, True, "directory for outputs"),
           ("--seed", int, 0, False, "integer seed"),
           ("--config", str, None, False, "key = value config file"))
_INPUT = ("--input", str, None, True, None)
_CHAIN = ("--chain", str, None, True, "chain .npz from fit-np")
_BURN = ("--burn", int, 200, False, None)
_KEEP = ("--keep", int, 500, False, None)
_THRESHOLD = ("--threshold", float, 0.5, False, None)

# Each command's help, function and own options: the one table ``main`` reads
# argv from, and ``build_parser`` builds argparse from.
COMMANDS = {
    "standardize": ("rank-normalize a panel to normal scores", _cmd_standardize, (_INPUT,)),
    "simulate": ("generate a panel and truth labels", _cmd_simulate,
                 (("--scenario", str, None, True, "scenario key = value file"),)),
    "fit-parametric": ("importance-sampling screen", _cmd_fit_parametric, (_INPUT, _THRESHOLD)),
    "fit-np": ("joint trajectory model by MCMC", _cmd_fit_np,
               (_INPUT, _BURN, _KEEP, ("--chains", int, 1, False, None), _THRESHOLD)),
    "report": ("tables and bands from a saved chain", _cmd_report, (_CHAIN,)),
    "cluster-mle": ("extract and freeze the MLE trajectory set", _cmd_cluster_mle,
                    (_INPUT, _CHAIN, ("--top", int, None, True, "number of clusters to keep"),
                     _BURN, _KEEP)),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, for every argv ``_table_args``
    declines; argparse is imported here, so a well-formed argv never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="arscreen",
        description="Screen panels of AR(1) series for nonzero mean trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, kind, default, required, help_option in options + _COMMON:
            p.add_argument(flag, type=kind, default=default, required=required, help=help_option)
        p.set_defaults(func=func)
    return parser


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse sets for a well-formed ``argv``, read from
    ``COMMANDS``: a command, then ``--option value`` pairs of its options,
    each option at most once and every required one present, no value
    starting with '-' and every value converting. None for any other argv
    (a help request, an error, an abbreviation, ``--option=value``, a
    negative number), which argparse reads."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, func, options = COMMANDS[argv[0]]
    table = {option[0]: option for option in options + _COMMON}
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in table or flag in given or value.startswith("-"):
            return None
        try:
            given[flag] = table[flag][1](value)
        except ValueError:
            return None
    if any(required and flag not in given for flag, _, _, required, _ in table.values()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **{
        flag[2:].replace("-", "_"): given.get(flag, default)
        for flag, _, default, _, _ in table.values()})


def cli_dispatch(argv) -> int:
    argv = list(argv)
    args = _table_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {args.seed}")
    if not (0.0 < getattr(args, "threshold", 0.5) <= 1.0):
        raise DomainError(f"threshold must lie in (0, 1], got {args.threshold}")
    if getattr(args, "chains", 1) < 1:
        raise InvalidInputError(f"need at least one chain, got {args.chains}")
    if getattr(args, "burn", 0) < 0:
        raise InvalidInputError(f"--burn must be nonnegative, got {args.burn}")
    if getattr(args, "keep", 1) < 1:
        raise InvalidInputError(f"--keep must be at least 1, got {args.keep}")
    if getattr(args, "top", 1) < 1:
        raise InvalidInputError(f"--top must be at least 1, got {args.top}")
    _check_outdir(args.output_dir)
    return args.func(args, load_run_config(args.config))


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
