"""Workload definitions: panel scenario, run config and CLI pipeline per workload.

Each workload is a set of simulated panels (made from the run's seed) plus
the README pipeline commands it runs on each panel. How long a command
takes depends on the panel (how many units the sampler puts on GP atoms,
for one), so a run averages over several panels. Sizes are chosen so that
a run repeats every panel within its time budget.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass

# README mixture: four (phi, v) components with equal weight.
MIXTURE_COMPONENTS = "0.2:0.05:0.25; 0.2:0.5:0.25; 0.95:0.05:0.25; 0.95:0.5:0.25"

# Fixed command seeds, as in the README pipeline; the workload seed only
# changes the simulated panels.
PARAMETRIC_SEED, NP_SEED, CLUSTER_SEED = 7, 11, 13

FULL_PIPELINE = ("fit-parametric", "fit-np", "report", "cluster-mle")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # scenario file text for ``arscreen simulate``
    n_units: int
    panels: int            # panels per run, each simulated from its own seed
    gap_prob: float        # chance each interior observation is deleted
    commands: tuple[str, ...]
    n_draws: int           # importance-sampling draws (run config)
    burn: int
    keep: int
    chains: int
    top: int
    # command -> lowest acceptable inclusion AUC over the units of all the
    # run's panels. A floor catches inference that stopped working (random
    # scores give 0.5) and sits below the lowest AUC seen over seeds 1 to 10.
    auc_floors: dict

    @property
    def config(self) -> str:
        return f"n_draws = {self.n_draws}\n"

    def panel_seeds(self, seed: int) -> list[int]:
        """Generator seeds of a run's panels; runs at distinct seeds share none."""
        return [seed * self.panels + k for k in range(self.panels)]

    @property
    def sweeps(self) -> int:
        """Joint-sampler sweeps run by ``fit-np`` over all chains."""
        return (self.burn + self.keep) * self.chains


def _mixture(n_units: int) -> str:
    return (f"kind = mixture\nn_units = {n_units}\nlength = 40\n"
            f"components = {MIXTURE_COMPONENTS}\nshift_prob = 0.2\n")


WORKLOADS = {
    w.name: w for w in (
        # The paper's standard use: every unit shares one time vector, so all
        # whitening takes the O(T) path. Bypass case for gap-path changes.
        Workload(
            name="contiguous", scenario=_mixture(200), n_units=200, panels=4, gap_prob=0.0,
            commands=FULL_PIPELINE, n_draws=2000, burn=10, keep=20, chains=2, top=4,
            auc_floors={"fit-parametric": 0.6, "fit-np": 0.55}),
        # Same mixture with 5% of interior observations missing: nearly every
        # unit has its own time vector and takes the dense-Cholesky path.
        # fit-parametric is left out: its mode search raises NumericalError
        # (exit 4) on about one gapped panel in five, a known defect.
        Workload(
            name="gapped", scenario=_mixture(40), n_units=40, panels=4, gap_prob=0.05,
            commands=("fit-np", "report", "cluster-mle"), n_draws=5000,
            burn=2, keep=4, chains=2, top=4,
            auc_floors={"fit-np": 0.55}),
        # Toy size for the harness smoke test; not a benchmark workload.
        Workload(
            name="smoke",
            scenario=("kind = mixture\nn_units = 16\nlength = 12\n"
                      "components = 0.3:0.4:1.0\nshift_prob = 0.5\n"),
            n_units=16, panels=2, gap_prob=0.1, commands=FULL_PIPELINE, n_draws=50,
            burn=1, keep=2, chains=2, top=2,
            auc_floors={"fit-parametric": 0.0, "fit-np": 0.0}),
    )
}


def delete_interior(src: str, dst: str, prob: float, seed: int) -> int:
    """Copy a panel CSV, deleting each unit's interior observations with ``prob``.

    Every unit keeps its first and last observation. Returns the number of
    rows deleted.
    """
    rng = random.Random(f"gaps-{seed}")
    with open(src, newline="") as fh:
        lines = fh.readlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    header, body = rows[0], [r for r in rows[1:] if r]
    by_unit: dict[str, list[list[str]]] = {}
    for r in body:
        by_unit.setdefault(r[0], []).append(r)
    kept, deleted = [], 0
    for unit_rows in by_unit.values():
        unit_rows.sort(key=lambda r: int(r[1]))
        last = len(unit_rows) - 1
        for i, r in enumerate(unit_rows):
            if 0 < i < last and rng.random() < prob:
                deleted += 1
            else:
                kept.append(r)
    with open(dst, "w", newline="") as fh:
        fh.writelines(comments)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(kept)
    return deleted
