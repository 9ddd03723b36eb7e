"""Synthetic panel generation and error accounting for operating-characteristic studies.

Panels are generated with stationary initialization (the first value is
drawn from the marginal distribution, no burn-in) and per-unit random
streams derived from the run seed, so a unit's data do not depend on how
many units precede it. A study can reuse one fixed set of noise streams
across signal configurations by passing the same ``noise_seed``, which
isolates the effect of the signal from Monte Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .ar_core import ArParams, ObservedSeries, SeriesPanel, stationary_variance
from .errors import DomainError, InvalidInputError
from .mcmc import stream
from .trajectory import GpKernelParams, prepare_gp_workspace


def simulate_ar1(params: ArParams, length: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate a stationary AR(1) path of the given length.

    y_0 ~ N(0, v / (1 - phi^2)) and y_t = phi y_{t-1} + sqrt(v) e_t, so no
    burn-in is needed; marginals are exactly stationary.
    """
    if length < 1:
        raise DomainError(f"path length must be positive, got {length}")
    z = rng.standard_normal(length)
    y0 = np.sqrt(stationary_variance(params)) * z[0]
    # The recursion runs over Python floats, which on short paths is faster
    # than any numpy filter call.
    phi, path = params.phi, [float(y0)]
    for e in (np.sqrt(params.v) * z[1:]).tolist():
        path.append(e + phi * path[-1])
    return np.array(path)


@dataclass(frozen=True)
class MixtureScenario:
    """Panel design: units drawn from a finite mixture of AR(1) components.

    ``components`` pairs each ArParams with its mixing probability (summing
    to one). When ``shift_prob`` is positive, each unit independently gets a
    constant mean shift drawn N(0, shift_var) with that probability.
    """

    components: tuple[tuple[ArParams, float], ...]
    n_units: int
    length: int
    shift_prob: float = 0.0
    shift_var: float = 1.0

    def __post_init__(self):
        probs = np.array([p for _, p in self.components], dtype=float)
        if probs.size == 0 or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise InvalidInputError(f"component probabilities must be nonnegative and sum to 1, got {probs}")
        if self.n_units < 1 or self.length < 1:
            raise InvalidInputError("scenario needs at least one unit and one time point")
        if not (0.0 <= self.shift_prob <= 1.0):
            raise DomainError(f"shift probability must lie in [0, 1], got {self.shift_prob}")
        if not (0.0 <= self.shift_var < np.inf):
            raise DomainError(f"shift variance must be finite and nonnegative, got {self.shift_var}")


@dataclass(frozen=True)
class TruthLabels:
    """Ground truth for a generated panel, aligned with panel order."""

    unit_ids: tuple[str, ...]
    nonnull: np.ndarray          # bool: unit has a mean trajectory
    component: np.ndarray        # int: residual mixture component index

    def __post_init__(self):
        if len(self.unit_ids) != self.nonnull.size or self.nonnull.size != self.component.size:
            raise InvalidInputError("truth labels misaligned with unit ids")


def _unit_id(i: int, n: int) -> str:
    return f"u{i:0{len(str(n - 1))}d}"


def generate_mixture_panel(scenario: MixtureScenario, seed: int) -> tuple[SeriesPanel, TruthLabels]:
    """Generate a panel from a finite AR(1) mixture, optionally with mean shifts.

    Each unit consumes only its own named substream of ``seed``, so results
    are independent of generation order and of the number of other units.
    """
    probs = np.array([p for _, p in scenario.components], dtype=float)
    times = np.arange(scenario.length, dtype=np.int64)
    series = []
    nonnull = np.zeros(scenario.n_units, dtype=bool)
    comp = np.zeros(scenario.n_units, dtype=np.int64)
    for i in range(scenario.n_units):
        rng = stream(seed, "mixture-unit", i)
        c = int(rng.choice(probs.size, p=probs))
        comp[i] = c
        y = simulate_ar1(scenario.components[c][0], scenario.length, rng)
        if scenario.shift_prob > 0.0 and rng.uniform() < scenario.shift_prob:
            nonnull[i] = True
            y = y + rng.normal(0.0, np.sqrt(scenario.shift_var))
        series.append(ObservedSeries(_unit_id(i, scenario.n_units), times, y))
    panel = SeriesPanel(tuple(series))
    return panel, TruthLabels(panel.unit_ids, nonnull, comp)


def generate_prior_study(n_units: int, grid: np.ndarray, signal_prob: float,
                         residual_mixture, trajectory_sampler, seed: int,
                         noise_seed: int | None = None) -> tuple[SeriesPanel, TruthLabels]:
    """Generate a panel whose residuals come from a discrete AR(1) mixing measure.

    ``residual_mixture`` exposes arrays ``weights``, ``phi`` and ``v`` (a
    stick-breaking state qualifies); each unit's residual component and
    innovations come from a noise stream keyed by ``noise_seed`` (default:
    derived from ``seed``), while the signal labels and trajectories come
    from ``seed``. Holding ``noise_seed`` fixed while varying ``seed`` or
    ``signal_prob`` reuses the identical noise paths across study arms.

    ``trajectory_sampler(rng, grid)`` returns the mean trajectory for a
    signal unit.
    """
    if n_units < 1:
        raise InvalidInputError(f"study needs at least one unit, got {n_units}")
    if not (0.0 <= signal_prob <= 1.0):
        raise DomainError(f"signal probability must lie in [0, 1], got {signal_prob}")
    grid = np.asarray(grid, dtype=np.int64)
    weights = np.asarray(residual_mixture.weights, dtype=float)
    phis = np.asarray(residual_mixture.phi, dtype=float)
    vs = np.asarray(residual_mixture.v, dtype=float)
    if noise_seed is None:
        noise_seed = seed
    series = []
    nonnull = np.zeros(n_units, dtype=bool)
    comp = np.zeros(n_units, dtype=np.int64)
    for i in range(n_units):
        noise_rng = stream(noise_seed, "study-noise", i)
        c = int(noise_rng.choice(weights.size, p=weights))
        comp[i] = c
        y = simulate_ar1(ArParams(float(phis[c]), float(vs[c])), grid.size, noise_rng)
        label_rng = stream(seed, "study-signal", i)
        if label_rng.uniform() < signal_prob:
            nonnull[i] = True
            y = y + np.asarray(trajectory_sampler(label_rng, grid), dtype=float)
        series.append(ObservedSeries(_unit_id(i, n_units), grid, y))
    panel = SeriesPanel(tuple(series))
    return panel, TruthLabels(panel.unit_ids, nonnull, comp)


def _parse_components(text: str, key: str) -> list[tuple[ArParams, float]]:
    """(AR(1) parameters, weight) pairs from the 'phi:v:weight' triples of
    scenario key ``key``; every error names the key."""
    out = []
    for piece in filter(None, (p.strip() for p in text.split(";"))):
        try:
            phi, v, w = (float(x) for x in piece.split(":"))
            out.append((ArParams(phi, v), w))
        except ValueError as exc:
            raise InvalidInputError(f"scenario key {key!r}: expected 'phi:v:weight' "
                                    f"triples of numbers, got {piece!r}") from exc
        except DomainError as exc:
            raise DomainError(f"scenario key {key!r}: {exc}") from exc
    if not out:
        raise InvalidInputError(f"scenario key {key!r}: no components given")
    return out


def _scalar(raw: dict[str, str], key: str, kind, default: str, positive: bool = False):
    text = raw.get(key, default)
    try:
        x = kind(text)
    except ValueError as exc:
        raise InvalidInputError(f"scenario key {key!r}: cannot parse {text!r}") from exc
    if positive and not 0 < x < np.inf:
        raise DomainError(f"scenario key {key!r} must be positive and finite, got {x}")
    return x


# The keys each scenario kind reads; any other key is rejected.
_SCENARIO_KEYS = {
    "mixture": {"kind", "components", "n_units", "length", "shift_prob", "shift_var"},
    "prior-study": {"kind", "mixture", "n_units", "length", "signal_prob", "noise_seed",
                    "kernel_variance", "kernel_length_scale"},
}


def simulate_from_scenario(raw: dict[str, str], seed: int) -> tuple[SeriesPanel, TruthLabels]:
    """Build a panel plus truth labels from a parsed scenario file. An
    unknown key, a value that does not parse, or prior-study mixture weights
    off the simplex raise ``InvalidInputError`` naming the key; a component
    (phi, v) outside the AR(1) domain, a ``length`` or kernel parameter that
    is not positive, or a negative ``noise_seed`` raise ``DomainError``
    naming it."""
    kind = raw.get("kind")
    if kind not in _SCENARIO_KEYS:
        raise InvalidInputError(f"scenario kind must be 'mixture' or 'prior-study', got {kind!r}")
    unknown = sorted(set(raw) - _SCENARIO_KEYS[kind])
    if unknown:
        raise InvalidInputError(f"unknown scenario key {unknown[0]!r} for kind {kind!r}")
    length = _scalar(raw, "length", int, "0", positive=True)
    if kind == "mixture":
        scenario = MixtureScenario(
            components=tuple(_parse_components(raw.get("components", ""), "components")),
            n_units=_scalar(raw, "n_units", int, "0"),
            length=length,
            shift_prob=_scalar(raw, "shift_prob", float, "0.0"),
            shift_var=_scalar(raw, "shift_var", float, "1.0"),
        )
        return generate_mixture_panel(scenario, seed)
    params, weights = zip(*_parse_components(raw.get("mixture", ""), "mixture"))
    w = np.array(weights)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise InvalidInputError(f"scenario key 'mixture': weights must be nonnegative "
                                f"and sum to 1, got {w}")
    mix = SimpleNamespace(weights=w, phi=[p.phi for p in params], v=[p.v for p in params])
    grid = np.arange(length, dtype=np.int64)
    kernel = GpKernelParams(_scalar(raw, "kernel_variance", float, "1.25", positive=True),
                            _scalar(raw, "kernel_length_scale", float, "13.0", positive=True))
    chol = prepare_gp_workspace(kernel, grid).chol
    noise_seed = _scalar(raw, "noise_seed", int, "") if "noise_seed" in raw else None
    if noise_seed is not None and noise_seed < 0:
        raise DomainError(f"scenario key 'noise_seed' must be nonnegative, got {noise_seed}")
    return generate_prior_study(_scalar(raw, "n_units", int, "0"), grid,
                                _scalar(raw, "signal_prob", float, "0.0"), mix,
                                lambda rng, times: chol @ rng.standard_normal(times.size),
                                seed, noise_seed=noise_seed)


@dataclass(frozen=True)
class ErrorReport:
    """Confusion counts and false discovery rate for one flagging rule."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def discoveries(self) -> int:
        return self.true_positives + self.false_positives

    @property
    def fdr(self) -> float:
        """False discoveries over discoveries; zero when nothing is flagged."""
        d = self.discoveries
        return self.false_positives / d if d > 0 else 0.0


def error_report(flagged, truth: TruthLabels) -> ErrorReport:
    """Confusion counts for a set of flagged unit ids against ground truth."""
    flagged = set(flagged)
    unknown = flagged - set(truth.unit_ids)
    if unknown:
        raise InvalidInputError(f"flagged ids not present in truth labels: {sorted(unknown)[:5]}")
    tp = fp = tn = fn = 0
    for uid, is_signal in zip(truth.unit_ids, truth.nonnull):
        hit = uid in flagged
        if hit and is_signal:
            tp += 1
        elif hit:
            fp += 1
        elif is_signal:
            fn += 1
        else:
            tn += 1
    return ErrorReport(tp, fp, tn, fn)
