"""Dirichlet process mixture over AR(1) residual laws, truncated for blocked Gibbs.

The mixing distribution over (phi, v) gets a stick-breaking prior truncated
to a fixed number of atoms: weights w_l = s_l * prod_{j<l}(1 - s_j) with
s_l ~ Beta(1, concentration) and the last weight taking the remainder.
One Gibbs sweep resamples unit assignments from their exact conditionals,
stick fractions from their Beta conditionals, and then the atoms, which are
conditionally independent given the assignments (Ishwaran & James 2001).
Every empty atom is redrawn from the base measure in one
``ParametricPrior.sample_phi_v`` call. Every occupied atom takes one
random-walk Metropolis step on (atanh phi, log v) targeting the base prior
times the likelihood of its assigned units, all atoms in one vector step
that scores row k of the pooled lag statistics under pair k. Proposal
scales adapt toward 25% acceptance only while ``adapt`` is set (burn-in),
so the post-burn-in chain has a fixed kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ar_core import ArParams, LagStats, SeriesPanel, StepTable, step_table
# Bound only for the probes in bench/layers.py; not called here (counts read 0).
from .ar_core import group_whiten, panel_groups  # noqa: F401
from .errors import DomainError, NumericalError
from .mcmc import ADAPT_DECAY, TARGET_ACCEPT, gumbel_argmax, sample_sticks, stick_weights, stream
# Bound only for the mcmc.rw_metropolis_step probe, as tests/test_bench_probes.py
# pins; not called here (counts read 0).
from .mcmc import rw_metropolis_step  # noqa: F401
from .parametric import ParametricPrior

DEFAULT_TRUNCATION = 60


def expected_clusters(concentration: float, n_units: int) -> float:
    """Prior expected number of occupied clusters among n units.

    Equals sum_{i=0}^{n-1} concentration / (concentration + i).
    """
    if concentration <= 0.0:
        raise DomainError(f"concentration must be positive, got {concentration}")
    if n_units < 1:
        raise DomainError(f"need at least one unit, got {n_units}")
    i = np.arange(n_units, dtype=float)
    return float(np.sum(concentration / (concentration + i)))


def elicit_concentration(target_clusters: float, n_units: int, tol: float = 1e-10) -> float:
    """Concentration whose prior expected cluster count equals the target.

    The expected count is strictly increasing in the concentration with
    range (1, n); solved by bisection on the log scale to ``tol`` in the
    cluster count.
    """
    if n_units < 2:
        raise DomainError("cluster-count elicitation needs at least two units")
    if not (1.0 < target_clusters < n_units):
        raise DomainError(
            f"target cluster count must lie strictly between 1 and {n_units}, got {target_clusters}"
        )
    lo, hi = -30.0, 30.0
    while expected_clusters(np.exp(lo), n_units) > target_clusters:
        lo -= 10.0
    while expected_clusters(np.exp(hi), n_units) < target_clusters:
        hi += 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_clusters(np.exp(mid), n_units) < target_clusters:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    alpha = np.exp(0.5 * (lo + hi))
    if abs(expected_clusters(alpha, n_units) - target_clusters) > max(tol, 1e-8):
        raise NumericalError(f"concentration elicitation did not converge for target {target_clusters}")
    return float(alpha)


@dataclass
class StickState:
    """Truncated stick-breaking state: fractions, weights, and AR(1) atoms."""

    sticks: np.ndarray    # shape (L-1,)
    weights: np.ndarray   # shape (L,), sums to 1
    phi: np.ndarray       # shape (L,)
    v: np.ndarray         # shape (L,)

    @property
    def truncation(self) -> int:
        return int(self.weights.size)

    def atom(self, l: int) -> ArParams:
        return ArParams(float(self.phi[l]), float(self.v[l]))


@dataclass
class DpResidualState:
    """Full sampler state for the residual mixture."""

    stick: StickState
    assignments: np.ndarray      # shape (N,), atom index per unit
    concentration: float
    base: ParametricPrior
    prop_scale: np.ndarray       # shape (L, 2), RW proposal scales per atom
    adapt_steps: np.ndarray      # shape (L,), adaptation step counters
    # Row l pools the lag statistics of the units on atom l, as the last
    # sweep scored them; None before any sweep or with the likelihood off.
    pooled: LagStats | None = None

    @property
    def truncation(self) -> int:
        return self.stick.truncation

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.truncation)


def init_residual_state(n_units: int, concentration: float, base: ParametricPrior,
                        truncation: int = DEFAULT_TRUNCATION, seed: int = 0,
                        rng: np.random.Generator | None = None) -> DpResidualState:
    """Draw an initial state from the prior.

    Sticks come from Beta(1, concentration), atoms from the base measure,
    and assignments from the prior weights, so the state is an exact prior
    draw and prior-invariance tests can start a chain here.
    """
    if concentration <= 0.0:
        raise DomainError(f"concentration must be positive, got {concentration}")
    if truncation < 2:
        raise DomainError(f"truncation must be at least 2, got {truncation}")
    if rng is None:
        rng = stream(seed, "residual-init")
    sticks = rng.beta(1.0, concentration, size=truncation - 1)
    weights = stick_weights(sticks)
    phi, v = base.sample_phi_v(rng, truncation)
    assignments = rng.choice(truncation, size=n_units, p=weights)
    return DpResidualState(
        stick=StickState(sticks, weights, phi, v),
        assignments=assignments.astype(np.int64),
        concentration=float(concentration),
        base=base,
        prop_scale=np.full((truncation, 2), 0.25),
        adapt_steps=np.zeros(truncation, dtype=np.int64),
    )


def _atom_log_target(base: ParametricPrior, pooled: LagStats | None, xs: np.ndarray) -> np.ndarray:
    """Log conditional of atom k at row k of ``xs`` = (atanh phi, log v),
    Jacobian included; -inf where the prior is not finite.

    ``pooled`` holds one pooled lag-statistics row per atom (None holds the
    likelihood constant); row k is scored under pair k only.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi, v = np.tanh(xs[:, 0]), np.exp(xs[:, 1])
        lp = base.log_density_phi_v(phi, v) + np.log1p(-phi * phi) + np.log(v)
        total = lp if pooled is None else lp + np.diagonal(pooled.loglik(phi, v))
    # lp is not finite exactly where tanh rounds to +-1 or v to 0 or inf.
    return np.where(np.isfinite(lp), total, -np.inf)


def _step_atoms(state: DpResidualState, pooled: LagStats | None, atoms: np.ndarray,
                rng: np.random.Generator, adapt: bool) -> None:
    """One random-walk Metropolis step on (atanh phi, log v) for every atom
    in ``atoms`` at once, each under its own proposal scale; ``pooled`` has
    one row per atom of the state. Adapts the scales while ``adapt`` is set."""
    stick = state.stick
    x = np.column_stack([np.arctanh(stick.phi[atoms]), np.log(stick.v[atoms])])
    prop = x + state.prop_scale[atoms] * rng.standard_normal(x.shape)
    # Proposals and current points scored in one call: rows k and K + k are atom k's.
    rows = np.concatenate([atoms, atoms])
    log_target = _atom_log_target(state.base, None if pooled is None else pooled[rows],
                                  np.concatenate([prop, x]))
    log_target_prop, log_target_x = log_target[:len(atoms)], log_target[len(atoms):]
    if np.any(np.isnan(log_target_prop)):
        k = np.flatnonzero(np.isnan(log_target_prop))[0]
        raise NumericalError(f"random-walk proposal produced NaN log target for atom "
                             f"{int(atoms[k])} at {prop[k]!r}")
    log_ratio = log_target_prop - log_target_x
    accept = np.log(rng.uniform(size=len(atoms))) < log_ratio
    moved = atoms[accept]
    stick.phi[moved] = np.tanh(prop[accept, 0])
    stick.v[moved] = np.exp(prop[accept, 1])
    if adapt:
        gain = (state.adapt_steps[atoms] + 1.0) ** -ADAPT_DECAY
        state.prop_scale[atoms] *= np.exp(gain * (accept - TARGET_ACCEPT))[:, None]
        state.adapt_steps[atoms] += 1


def _sweep_residual(state: DpResidualState, table: StepTable, stats: LagStats | None,
                    rng: np.random.Generator, adapt: bool) -> None:
    """One blocked Gibbs sweep over assignments, sticks, and atoms.

    ``stats`` are the lag statistics of the values the mixture models (the
    joint trajectory sampler passes those of the current residuals); None
    holds the likelihood constant. ``table`` only names units in errors.
    Mutates ``state`` in place and leaves the statistics pooled by the new
    assignments in ``state.pooled``.
    """
    L = state.truncation
    n_units = state.assignments.size
    log_w = np.full(L, -np.inf)
    pos = state.stick.weights > 0
    log_w[pos] = np.log(state.stick.weights[pos])

    if stats is None:
        ll = np.zeros((n_units, L))
    else:
        ll = stats.loglik(state.stick.phi, state.stick.v)
        if not np.all(np.isfinite(ll)):
            unit, atom = np.argwhere(~np.isfinite(ll))[0]
            raise NumericalError(f"non-finite residual log-likelihood for unit "
                                 f"{table.unit_ids[unit]!r} under atom {int(atom)}")
    ll += log_w
    state.assignments = gumbel_argmax(ll, rng).astype(np.int64)

    counts = state.counts()
    sticks, weights = sample_sticks(counts, state.concentration, rng)
    state.stick.sticks = sticks
    state.stick.weights = weights

    empty = counts == 0
    state.stick.phi[empty], state.stick.v[empty] = state.base.sample_phi_v(rng, int(empty.sum()))
    state.pooled = None if stats is None else stats.pool(state.assignments, L)
    _step_atoms(state, state.pooled, np.flatnonzero(~empty), rng, adapt)


def gibbs_sweep_residual(state: DpResidualState, panel, rng: np.random.Generator,
                         adapt: bool = False, likelihood_off: bool = False) -> DpResidualState:
    """One full Gibbs sweep for a standalone residual mixture fit.

    ``panel`` may be a SeriesPanel or a prebuilt step table. With
    ``likelihood_off`` the likelihood is held constant (every unit scores
    zero under every atom), which turns the sweep into a prior-preserving
    kernel for invariance testing. The state is updated in place and
    returned.
    """
    table = panel if isinstance(panel, StepTable) else step_table(panel)
    _sweep_residual(state, table, None if likelihood_off else table.stats, rng, adapt)
    return state


def run_residual_chain(panel: SeriesPanel, concentration: float, base: ParametricPrior,
                       truncation: int = DEFAULT_TRUNCATION, n_burn: int = 200,
                       n_keep: int = 300, seed: int = 0) -> tuple[DpResidualState, list[dict]]:
    """Burn-in plus retained sweeps for a standalone residual mixture fit.

    Returns the final state and one record per retained sweep with the
    stick weights, atoms, and assignment histogram.
    """
    table = step_table(panel)
    state = init_residual_state(len(panel), concentration, base, truncation,
                                rng=stream(seed, "residual-chain", "init"))
    rng = stream(seed, "residual-chain", "sweeps")
    for _ in range(n_burn):
        _sweep_residual(state, table, table.stats, rng, adapt=True)
    records = []
    for _ in range(n_keep):
        _sweep_residual(state, table, table.stats, rng, adapt=False)
        records.append({
            "weights": state.stick.weights.copy(),
            "phi": state.stick.phi.copy(),
            "v": state.stick.v.copy(),
            "counts": state.counts(),
        })
    return state, records
