"""Run arscreen CLI commands from one fresh interpreter, each in its own fork.

    python3 bench/command.py JOB.json RESULT.json

JOB.json holds ``{"commands": [[arscreen arguments], ...], "trace": 0|1,
"timeout_s": seconds}``. Started by ``run.py`` with ``src`` on
``PYTHONPATH``. The interpreter imports ``arscreen.cli`` once and times
that import (``setup_s``, which every CLI call pays); then each command
runs in a child forked from this state, so it starts cold, as a user's
CLI call does after its import, without paying the import again. RESULT.json
gets the import time and, per command, its exit code, its own wall time,
the child's peak resident memory and, with trace 1, the span totals of the
library functions listed in ``layers.PROBES``.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_command(argv: list[str], trace: bool) -> dict:
    """Run one CLI command in this process; a crash reads as exit code 1."""
    from arscreen.cli import main as cli_main
    from layers import PROBES
    from tracer import Tracer, summarize

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(PROBES)
    c0 = time.perf_counter()
    try:
        rc = int(cli_main(argv))
    except SystemExit as exc:   # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is a failed command, reported and counted
        traceback.print_exc()
        rc = 1
    finally:
        command_s = time.perf_counter() - c0
        if tracer is not None:
            tracer.uninstall()
    result = {"rc": rc, "command_s": command_s,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["spans"] = {k: {**vars(v), "attrs": dict(v.attrs)}
                           for k, v in summarize(tracer.spans).items()}
        result["n_spans"] = len(tracer.spans)
        result["missing"] = sorted(tracer.missing)
    return result


def forked(argv: list[str], trace: bool, path: str, timeout_s: float) -> dict:
    """Run one command in a forked child and wait for it to end."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(max(int(timeout_s), 1))   # the default action ends the child
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(run_command(argv, trace), fh)
            code = 0
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not os.path.exists(path):
        return {"rc": f"command child ended with status {os.waitstatus_to_exitcode(status)}"}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    job_path, result_path = sys.argv[1:]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import arscreen.cli  # noqa: F401
    import_s = time.perf_counter() - T_START
    deadline = time.perf_counter() + job["timeout_s"]

    results = []
    for k, argv in enumerate(job["commands"]):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            results.append({"rc": "timeout"})
            break
        results.append(forked(argv, bool(job["trace"]), f"{result_path}.{k}", remaining))
        if results[-1]["rc"] != 0:
            break
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "commands": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
