"""arscreen benchmark: one workload run, printed as one JSON line.

Run from the repository root:

    python3 bench/run.py --workload contiguous --seed 1 --seconds 55 --trace 0

The run simulates the workload's panels from ``--seed`` (``arscreen
simulate`` and ``standardize``), then runs rounds of the workload's
pipeline, one pipeline per panel, until ``--seconds`` are spent, and at
least two rounds. A round runs in a fresh interpreter through
``command.py``, which imports ``arscreen`` (one sample of ``setup_s``) and
forks a cold child per command. Each command time is the median over a
panel's repetitions averaged over the panels, so that neither one panel's
data-dependent cost nor one slowed repetition sets the figure.
This script checks the outputs and prints the metrics: end-to-end metrics
with ``--trace 0``, per-layer metrics from traced commands with
``--trace 1``. The last line of standard output is the result object; the
line before it carries the checks, output digests, raw timing samples and
machine details. Scratch files go to ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from layers import layer_metrics
from tracer import merge, per_span_overhead
from workloads import CLUSTER_SEED, NP_SEED, PARAMETRIC_SEED, WORKLOADS, delete_interior

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND = os.path.join(HERE, "command.py")
MAX_PIPELINES = 50
# Single-threaded BLAS: the matrices are at most 200 x 200, and on a small
# shared machine a second BLAS thread adds contention noise, not speed.
BLAS_THREADS = 1
DEADLINE_S = 165.0
# Time a session may take past the run's deadline before it is killed.
GRACE_S = 10.0
# Output directory and inclusion table of each command, relative to a pipeline's directory.
OUTPUT_DIR = {"fit-parametric": "par", "fit-np": "fit", "report": "rep", "cluster-mle": "clus"}
INCLUSION_FILE = {"fit-parametric": "par/parametric_inclusion.csv",
                  "fit-np": "fit/inclusion.csv", "report": "rep/inclusion.csv"}
# Parametric inclusion is a weighted mean whose weights sum to 1 only up to
# rounding, so it may exceed 1 by a few ulps.
PROBABILITY_SLACK = 1e-12


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    return env


def environment(env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    """Starts ``command.py`` sessions, each with its own job and result file."""

    def __init__(self, root: str, workdir: str, trace: int, deadline: float):
        self.root, self.workdir, self.trace, self.deadline = root, workdir, trace, deadline
        self.env = child_env(os.path.join(root, "src"))
        self.count = 0

    def __call__(self, commands: list[list[str]]) -> tuple[float | None, list[dict]]:
        """Run CLI commands in one session: (import time, one result per command run).

        The session stops at the first command that fails; a crash or a
        timeout reads as a nonzero ``rc``.
        """
        self.count += 1
        job = os.path.join(self.workdir, f"session_{self.count}.json")
        path = os.path.join(self.workdir, f"session_{self.count}_result.json")
        timeout_s = max(self.deadline - time.perf_counter(), 1.0)
        with open(job, "w", encoding="utf-8") as fh:
            json.dump({"commands": commands, "trace": self.trace, "timeout_s": timeout_s}, fh)
        # Own session, so that a kill reaches the forked command children too.
        proc = subprocess.Popen([sys.executable, COMMAND, job, path], env=self.env,
                                cwd=self.root, stdout=sys.stderr, start_new_session=True)
        try:
            rc = proc.wait(timeout=timeout_s + GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None, [{"rc": "timeout"}]
        if rc != 0 or not os.path.exists(path):
            return None, [{"rc": f"command.py exited with {rc}"}]
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        return result["import_s"], result["commands"]


def generate(run_session, wl, seed: int, workdir: str):
    """Simulate and standardize the run's panels.

    Returns (command results, import times, [(panel path, truth path)]),
    stopping at the first failure.
    """
    dirs = [os.path.join(workdir, f"panel_{k}") for k in range(wl.panels)]
    seeds = wl.panel_seeds(seed)
    scenario = os.path.join(workdir, "scenario.cfg")
    with open(scenario, "w", encoding="utf-8") as fh:
        fh.write(wl.scenario)
    import_s, results = run_session(
        [["simulate", "--scenario", scenario, "--output-dir", os.path.join(d, "sim"),
          "--seed", str(s)] for d, s in zip(dirs, seeds)])
    imports = [import_s] if import_s is not None else []
    if len(results) < wl.panels or any(r["rc"] != 0 for r in results):
        return results, imports, []
    raws = [os.path.join(d, "sim", "panel.csv") for d in dirs]
    if wl.gap_prob > 0.0:
        for k, (d, s) in enumerate(zip(dirs, seeds)):
            raws[k] = os.path.join(d, "sim", "gapped.csv")
            delete_interior(os.path.join(d, "sim", "panel.csv"), raws[k], wl.gap_prob, s)
    import_s, more = run_session(
        [["standardize", "--input", raw, "--output-dir", os.path.join(d, "std"), "--seed", str(s)]
         for raw, d, s in zip(raws, dirs, seeds)])
    imports += [import_s] if import_s is not None else []
    panels = [(os.path.join(d, "std", "standardized.csv"), os.path.join(d, "sim", "truth.csv"))
              for d in dirs]
    return results + more, imports, panels


def pipeline_commands(wl, panel: str, config: str, out: str) -> list[tuple[str, list[str]]]:
    chain = os.path.join(out, "fit", "chain_0.npz")
    sweeps = ["--burn", str(wl.burn), "--keep", str(wl.keep)]
    argv = {
        "fit-parametric": ["--input", panel, "--config", config,
                           "--output-dir", os.path.join(out, "par"), "--seed", str(PARAMETRIC_SEED)],
        "fit-np": ["--input", panel, "--config", config, *sweeps, "--chains", str(wl.chains),
                   "--output-dir", os.path.join(out, "fit"), "--seed", str(NP_SEED)],
        "report": ["--chain", chain, "--output-dir", os.path.join(out, "rep"), "--seed", str(NP_SEED)],
        "cluster-mle": ["--input", panel, "--config", config, "--chain", chain,
                        "--top", str(wl.top), *sweeps, "--output-dir", os.path.join(out, "clus"),
                        "--seed", str(CLUSTER_SEED)],
    }
    return [(c, [c, *argv[c]]) for c in wl.commands]


def run_pipelines(run_session, wl, panels: list[str], workdir: str,
                  seconds: float) -> tuple[list[dict], list[float]]:
    """Run rounds of the pipeline, one per panel, until ``seconds`` are spent.

    A round is one session, so one ``setup_s`` sample. There are at least
    two rounds, so that every panel has a repetition to compare. Stops at
    the first failure. Returns (pipelines, import times).
    """
    config = os.path.join(workdir, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(wl.config)
    pipes: list[dict] = []
    imports: list[float] = []
    start = time.perf_counter()
    while len(pipes) < MAX_PIPELINES:
        round_start = time.perf_counter()
        base = len(pipes)
        named = []
        for k, panel in enumerate(panels):
            out = os.path.join(workdir, f"pipeline_{base + k}")
            pipes.append({"dir": out, "panel": k, "commands": []})
            named += [(k, name, argv) for name, argv in pipeline_commands(wl, panel, config, out)]
        import_s, results = run_session([argv for _, _, argv in named])
        if import_s is not None:
            imports.append(import_s)
        for (k, name, _), r in zip(named, results):
            pipes[base + k]["commands"].append({"name": name, **r})
        del pipes[base + len({k for k, _, _ in named[:len(results)]}):]
        now = time.perf_counter()
        if len(results) < len(named) or any(r["rc"] != 0 for r in results):
            break   # failures are counted, never retried
        if len(pipes) >= 2 * len(panels) and now - start + (now - round_start) > seconds:
            break
    return pipes, imports


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(directory: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(directory):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, directory)] = sha256(p)
    return out


def read_column(path: str, column: str) -> dict[str, str]:
    """``unit_id`` -> ``column`` from a CSV table with '#' comment lines."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#")) if r]
    header = rows[0]
    iu, ic = header.index("unit_id"), header.index(column)
    return {r[iu]: r[ic] for r in rows[1:]}


def auc(scores: list[float], labels: list[bool]) -> float:
    """Area under the ROC curve (Mann-Whitney statistic, ties at average rank)."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    u = sum(r for r, y in zip(ranks, labels) if y) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def check_outputs(wl, pipes: list[dict], truths: list[str]) -> tuple[dict, dict, dict]:
    """Correctness checks on the pipelines run: (checks, aucs, combined digests).

    ``truths[k]`` is the truth table of panel ``k``; a pipeline's
    ``panel`` names the panel it ran on.
    """
    checks = {"all_exit_zero": all(c["rc"] == 0 for p in pipes for c in p["commands"])}
    aucs, digests = {}, {}
    if not checks["all_exit_zero"]:
        return checks, aucs, digests
    truth = [{u: v == "1" for u, v in read_column(t, "nonnull").items()} for t in truths]

    inclusion_files = [INCLUSION_FILE[c] for c in wl.commands if c in INCLUSION_FILE]
    bad = []
    for p in pipes:
        for rel in inclusion_files:
            inc = read_column(os.path.join(p["dir"], rel), "inclusion")
            values = [float(x) for x in inc.values()]
            if sorted(inc) != sorted(truth[p["panel"]]) or not all(
                    math.isfinite(x) and -PROBABILITY_SLACK <= x <= 1.0 + PROBABILITY_SLACK
                    for x in values):
                bad.append(rel)
    checks["inclusion_valid"] = not bad

    trees: dict[int, list[dict]] = {}
    for p in pipes:
        trees.setdefault(p["panel"], []).append(tree_digests(p["dir"]))
    checks["outputs_identical"] = (any(len(ts) >= 2 for ts in trees.values()) and
                                   all(t == ts[0] for ts in trees.values() for t in ts[1:]))
    for k, ts in sorted(trees.items()):
        for d in (OUTPUT_DIR[c] for c in wl.commands):
            lines = "".join(f"{n}:{v}\n" for n, v in sorted(ts[0].items()) if n.startswith(d + "/"))
            digests[f"{k}/{d}"] = hashlib.sha256(lines.encode()).hexdigest()[:16]

    # AUC over the units of all panels together, from each panel's first pipeline
    firsts = {}
    for p in pipes:
        firsts.setdefault(p["panel"], p["dir"])
    for command, floor in wl.auc_floors.items():
        scores, labels = [], []
        for k, first in sorted(firsts.items()):
            inc = read_column(os.path.join(first, INCLUSION_FILE[command]), "inclusion")
            scores += [float(inc[u]) for u in sorted(truth[k])]
            labels += [truth[k][u] for u in sorted(truth[k])]
        aucs[command] = auc(scores, labels)
        checks[f"{command}_auc_at_least_{floor}"] = aucs[command] >= floor
    return checks, aucs, digests


def end_to_end(wl, pipes: list[dict], setup_s: float) -> dict:
    """End-to-end metrics from the pipelines whose commands all exited 0.

    A time is the median over a panel's repetitions, which sheds the odd
    repetition a busy host slowed, averaged over the panels, whose costs
    differ with their data.
    """
    commands = [c for p in pipes for c in p["commands"]]
    values = {"setup_s": (setup_s, "s"),
              "command_success_rate": (sum(c["rc"] == 0 for c in commands) / len(commands), "ratio")}
    by_panel: dict[int, list[list[dict]]] = {}
    for p in pipes:
        if len(p["commands"]) == len(wl.commands) and all(c["rc"] == 0 for c in p["commands"]):
            by_panel.setdefault(p["panel"], []).append(p["commands"])
    if by_panel:
        def over_panels(f):
            return statistics.fmean(statistics.median(f(cs) for cs in done)
                                    for done in by_panel.values())

        def command_s(name):
            return over_panels(lambda cs: sum(c["command_s"] for c in cs if c["name"] == name))

        values.update({
            "fit_np_s": (command_s("fit-np"), "s"),
            "cluster_mle_s": (command_s("cluster-mle"), "s"),
            "pipeline_s": (over_panels(lambda cs: sum(c["command_s"] for c in cs)), "s"),
            "np_unit_sweeps_per_s": (wl.n_units * wl.sweeps / command_s("fit-np"), "1/s"),
            "peak_rss_mb": (over_panels(lambda cs: max(c["rss_mb"] for c in cs)), "MB"),
        })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def emit(info: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run(args, root: str, workdir: str) -> int:
    wl = WORKLOADS[args.workload]
    run_session = Runner(root, workdir, args.trace, time.perf_counter() + DEADLINE_S)
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "panel_seeds": wl.panel_seeds(args.seed), "env": environment(run_session.env)}

    generated, imports, panels = generate(run_session, wl, args.seed, workdir)
    if not panels or any(r["rc"] != 0 for r in generated):
        info["error"] = f"input generation failed: {[r['rc'] for r in generated]}"
        return emit(info, False, max(len(generated), 1), 1, {})
    pipes, round_imports = run_pipelines(run_session, wl, [p for p, _ in panels], workdir,
                                         args.seconds)

    checks, aucs, digests = check_outputs(wl, pipes, [t for _, t in panels])
    commands = [c for p in pipes for c in p["commands"]]
    imports += round_imports
    info.update(pipelines=len(pipes), checks=checks, auc=aucs, digests=digests,
                samples={"setup": imports,
                         **{n: [[c.get("command_s") for c in p["commands"] if c["name"] == n]
                                for p in pipes] for n in wl.commands}})
    attempted = len(commands)
    failed = sum(1 for c in commands if c["rc"] != 0)
    if args.trace and failed:
        metrics = {}
    elif args.trace:
        totals = merge(c["spans"] for c in commands)
        metrics, gone = layer_metrics(
            totals, len(pipes), set(commands[0]["missing"]), sum(c["n_spans"] for c in commands),
            per_span_overhead(), sum(r["command_s"] for r in generated) / len(panels))
        info["missing_layers"] = gone
    else:
        metrics = end_to_end(wl, pipes, statistics.median(imports))
    return emit(info, all(checks.values()), attempted, failed, metrics)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arscreen", "__init__.py")):
        print("error: src/arscreen not found; run from the repository root", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
