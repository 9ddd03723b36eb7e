"""What ``import arscreen.cli`` loads, and that the commands load nothing more.

Every CLI call pays the import before it starts, and the package runs on
numpy alone: no scipy module is loaded, by the import or by a command (the
tests use scipy only as a reference). A module imported inside a command
would only move its cost into the command's time, so the six commands of
the README pipeline must run without importing one. Nor does a
well-formed argv load argparse. Nor does ``import arscreen`` load the
command line at all.
"""

import json
import os
import subprocess
import sys

import arscreen

PIPELINE = r"""
import json, os, sys
import arscreen.cli as cli

scipy_at_import = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
argv_modules_at_import = sorted(m for m in ("argparse", "gettext") if m in sys.modules)
before = set(sys.modules)
w = sys.argv[1]
with open(os.path.join(w, "scenario.cfg"), "w") as fh:
    fh.write("kind = mixture\nn_units = 12\nlength = 10\n"
             "components = 0.3:0.4:0.5; 0.9:0.1:0.5\nshift_prob = 0.5\n")
with open(os.path.join(w, "run.cfg"), "w") as fh:
    fh.write("n_draws = 50\n")
p = lambda *parts: os.path.join(w, *parts)
panel, cfg, chain = p("std", "standardized.csv"), p("run.cfg"), p("fit", "chain_0.npz")
commands = [
    ["simulate", "--scenario", p("scenario.cfg"), "--output-dir", p("sim"), "--seed", "1"],
    ["standardize", "--input", p("sim", "panel.csv"), "--output-dir", p("std")],
    ["fit-parametric", "--input", panel, "--config", cfg, "--output-dir", p("par"), "--seed", "7"],
    ["fit-np", "--input", panel, "--config", cfg, "--burn", "1", "--keep", "2", "--chains", "2",
     "--output-dir", p("fit"), "--seed", "11"],
    ["report", "--chain", chain, "--output-dir", p("rep")],
    ["cluster-mle", "--input", panel, "--config", cfg, "--chain", chain, "--top", "2",
     "--burn", "1", "--keep", "2", "--output-dir", p("clus"), "--seed", "13"],
]
codes = {c[0]: cli.main(c) for c in commands}
print(json.dumps({"scipy_at_import": scipy_at_import, "codes": codes,
                  "argv_modules_at_import": argv_modules_at_import,
                  "argv_modules_after": sorted(m for m in ("argparse", "gettext")
                                               if m in sys.modules),
                  "scipy_after": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "new": sorted(set(sys.modules) - before)}))
"""

# Refuses every scipy import before the package is imported.
BLOCK_SCIPY = r"""
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def _run(script: str, workdir) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(arscreen.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", script, str(workdir)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_imports_no_heavy_scipy_and_commands_import_nothing(tmp_path):
    got = _run(PIPELINE, tmp_path)
    assert got["scipy_at_import"] == []
    assert got["scipy_after"] == []
    assert list(got["codes"]) == ["simulate", "standardize", "fit-parametric", "fit-np",
                                  "report", "cluster-mle"]
    assert all(rc == 0 for rc in got["codes"].values()), got["codes"]
    assert got["new"] == []
    # A well-formed argv is read from ``cli.COMMANDS``: argparse, with the
    # gettext it loads, is imported only for an argv that it reads.
    assert got["argv_modules_at_import"] == []
    assert got["argv_modules_after"] == []


def test_package_import_leaves_the_cli_out(tmp_path):
    """The library does not load its command line: a fresh ``import
    arscreen`` imports no ``arscreen.cli``."""
    got = _run("import json, sys\nimport arscreen\n"
               "print(json.dumps({'cli': 'arscreen.cli' in sys.modules}))", tmp_path)
    assert got == {"cli": False}


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    got = _run(BLOCK_SCIPY + PIPELINE, tmp_path)
    assert got["codes"] == {c: 0 for c in ("simulate", "standardize", "fit-parametric", "fit-np",
                                           "report", "cluster-mle")}
    assert got["scipy_after"] == []
