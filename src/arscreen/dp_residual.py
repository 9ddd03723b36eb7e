"""Dirichlet process mixture over AR(1) residual laws, truncated for blocked Gibbs.

The mixing distribution over (phi, v) gets a stick-breaking prior truncated
to a fixed number of atoms: weights w_l = s_l * prod_{j<l}(1 - s_j) with
s_l ~ Beta(1, concentration) and the last weight taking the remainder.
One Gibbs sweep resamples unit assignments from their exact conditionals,
stick fractions from their Beta conditionals, and then the atoms, which are
conditionally independent given the assignments (Ishwaran & James 2001).
Every empty atom is redrawn from the base measure in one
``ParametricPrior.sample_phi_v`` call. Every occupied atom then takes one
collapsed step, all at once from the pooled lag statistics: phi moves by
Metropolis in arcsin phi with v integrated out, at a scale read off the
atom's size, and v is drawn exactly given phi. Nothing is tuned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ar_core import ArParams, LagStats, SeriesPanel, StepTable, _lag_coefficients, step_table
# Bound only for the probes in bench/layers.py; not called here (counts read 0).
from .ar_core import group_whiten, panel_groups  # noqa: F401
from .errors import DomainError, NumericalError
from .mcmc import gumbel_argmax, sample_sticks, stick_weights, stream
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
    # Row l pools the lag statistics of the units on atom l, as the last
    # sweep scored them; None before the first sweep.
    pooled: LagStats | None = None

    @property
    def truncation(self) -> int:
        return self.stick.truncation

    def counts(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.truncation)


def init_residual_state(n_units: int, concentration: float, base: ParametricPrior,
                        truncation: int = DEFAULT_TRUNCATION, *,
                        rng: np.random.Generator) -> DpResidualState:
    """Draw an initial state from the prior.

    Sticks come from Beta(1, concentration), atoms from the base measure,
    and assignments from the prior weights, so the state is an exact prior
    draw and prior-invariance tests can start a chain here.
    """
    if not (concentration > 0.0 and np.isfinite(concentration)):
        raise DomainError(f"concentration must be finite and positive, got {concentration}")
    if truncation < 2:
        raise DomainError(f"truncation must be at least 2, got {truncation}")
    sticks = rng.beta(1.0, concentration, size=truncation - 1)
    weights = stick_weights(sticks)
    phi, v = base.sample_phi_v(rng, truncation)
    assignments = rng.choice(truncation, size=n_units, p=weights)
    return DpResidualState(
        stick=StickState(sticks, weights, phi, v),
        assignments=assignments.astype(np.int64),
        concentration=float(concentration),
        base=base,
    )


def _v_conditional(base: ParametricPrior, pooled: LagStats,
                   phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row k of ``pooled`` at phi[k], with n its observation count and
    D, Q the log-determinant and quadratic form of its AR(1) likelihood at
    v = 1: the shape a + n/2 and scale b + Q/2 of v's inverse-gamma
    conditional, and D."""
    logdet, q_yy, _, _ = _lag_coefficients(phi, 1.0, pooled.sizes)
    counts, quad = np.split(pooled.terms, [1 + len(pooled.sizes)], axis=1)
    return (base.var_shape + 0.5 * counts.sum(axis=1),
            base.var_scale + 0.5 * (quad * q_yy).sum(axis=1), (counts * logdet).sum(axis=1))


def _phi_log_target(base: ParametricPrior, pooled: LagStats, theta: np.ndarray) -> np.ndarray:
    """log p(phi) + log cos theta - D/2 - (a + n/2) log(b + Q/2) at
    phi = sin theta[k] for row k of ``pooled``: atom k's log conditional
    with v integrated out, in theta = arcsin phi, up to a constant per row.
    -inf where |theta| >= pi/2 or sin theta rounds to +-1."""
    phi = np.sin(theta)
    ok = (np.abs(theta) < 0.5 * np.pi) & (np.abs(phi) < 1.0)
    shape, scale, logdet = _v_conditional(base, pooled[ok], phi[ok])
    out = np.full(theta.shape, -np.inf)
    out[ok] = (-0.5 * (phi[ok] - base.phi_mean) ** 2 / base.phi_var + np.log(np.cos(theta[ok]))
               - 0.5 * logdet - shape * np.log(scale))
    return out


def _draw_atom_v(base: ParametricPrior, pooled: LagStats, phi: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One exact draw of v per row k of ``pooled`` from its conditional at phi[k]."""
    shape, scale, _ = _v_conditional(base, pooled, phi)
    return scale / rng.gamma(shape)


def _step_atoms(state: DpResidualState, pooled: LagStats, atoms: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """The collapsed step for every atom in ``atoms`` at once (``pooled``
    has one row per atom); returns which phi proposals were accepted. In
    theta = arcsin phi the AR(1) Fisher information is 1 per observation, so
    an atom of n observations steps theta at the 1-d optimal standard
    deviation 2.4 / sqrt(n + 1 / phi_var) (Gelman, Roberts & Gilks 1996)."""
    stick, base = state.stick, state.base
    theta = np.arcsin(stick.phi[atoms])
    scale = 2.4 / np.sqrt(pooled.length[atoms] + 1.0 / base.phi_var)
    prop = theta + scale * rng.standard_normal(len(atoms))
    # Proposals and current points scored in one call: rows k and K + k are atom k's.
    log_target = _phi_log_target(base, pooled[np.concatenate([atoms, atoms])],
                                 np.concatenate([prop, theta]))
    log_target_prop, log_target_x = log_target[:len(atoms)], log_target[len(atoms):]
    if np.any(np.isnan(log_target_prop)):
        k = np.flatnonzero(np.isnan(log_target_prop))[0]
        raise NumericalError(f"arcsin phi proposal produced NaN log target for atom "
                             f"{int(atoms[k])} at {prop[k]!r}")
    accept = np.log(rng.uniform(size=len(atoms))) < log_target_prop - log_target_x
    stick.phi[atoms] = np.where(accept, np.sin(prop), stick.phi[atoms])
    stick.v[atoms] = _draw_atom_v(base, pooled[atoms], stick.phi[atoms], rng)
    return accept


def _sweep_residual(state: DpResidualState, table: StepTable, stats: LagStats,
                    rng: np.random.Generator) -> None:
    """One blocked Gibbs sweep over assignments, sticks, and atoms.

    ``stats`` are the lag statistics of the values the mixture models (the
    joint trajectory sampler passes those of the current residuals).
    ``table`` only names units in errors.
    Mutates ``state`` in place and leaves the statistics pooled by the new
    assignments in ``state.pooled``.
    """
    ll = stats.loglik(state.stick.phi, state.stick.v)
    if not np.all(np.isfinite(ll)):
        unit, atom = np.argwhere(~np.isfinite(ll))[0]
        raise NumericalError(f"non-finite residual log-likelihood for unit "
                             f"{table.unit_ids[unit]!r} under atom {int(atom)}")
    with np.errstate(divide="ignore"):     # an atom of zero weight scores -inf
        ll += np.log(state.stick.weights)
    state.assignments = gumbel_argmax(ll, rng).astype(np.int64)

    counts = state.counts()
    sticks, weights = sample_sticks(counts, state.concentration, rng)
    state.stick.sticks = sticks
    state.stick.weights = weights

    empty = counts == 0
    state.stick.phi[empty], state.stick.v[empty] = state.base.sample_phi_v(rng, int(empty.sum()))
    state.pooled = stats.pool(state.assignments, state.truncation)
    _step_atoms(state, state.pooled, np.flatnonzero(~empty), rng)


def gibbs_sweep_residual(state: DpResidualState, panel, rng: np.random.Generator) -> DpResidualState:
    """One full Gibbs sweep for a standalone residual mixture fit.

    ``panel`` may be a SeriesPanel or a prebuilt step table. The state is
    updated in place and returned.
    """
    table = panel if isinstance(panel, StepTable) else step_table(panel)
    _sweep_residual(state, table, table.stats, rng)
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
        _sweep_residual(state, table, table.stats, rng)
    records = []
    for _ in range(n_keep):
        _sweep_residual(state, table, table.stats, rng)
        records.append({
            "weights": state.stick.weights.copy(),
            "phi": state.stick.phi.copy(),
            "v": state.stick.v.copy(),
            "counts": state.counts(),
        })
    return state, records
