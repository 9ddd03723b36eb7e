"""Trajectory alternative model and the joint blocked Gibbs sampler.

Every unit carries a latent component indicator: null (trajectory
identically zero), flat (constant level drawn from a DP mixture of
levels), or gp (a smooth path drawn from a functional DP whose atoms are
Gaussian-process draws on the global time grid). Unit observations are
the trajectory restricted to the unit's times plus AR(1) noise whose
(phi, v) law is itself a DP mixture shared across all units.

One sweep updates, in order: (a) each unit's (component, atom) pair from
its exact discrete conditional; (b) component probabilities from a
Dirichlet posterior; (c) flat levels by conjugate normal draws; (d) gp
paths by their exact Gaussian conditionals (a kriging update in precision
form); (e) both trajectory stick sets; (f) the residual mixture on the
de-trended series. Inclusion probabilities are retained-sweep frequencies
of a unit being non-null.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, lu_factor, lu_solve

from .ar_core import (
    LOG_2PI,
    ArParams,
    ObservedSeries,
    SeriesPanel,
    TimesGroup,
    ar1_loglik,
    ar1_precision,
    group_whiten,
    panel_groups,
)
from .dp_residual import DpResidualState, init_residual_state, _sweep_residual
from .errors import DomainError, InvalidInputError, NumericalError
from .mcmc import sample_sticks, stick_weights, stream
from .parametric import ParametricPrior

NULL, FLAT, GP = 0, 1, 2
COMPONENT_NAMES = ("null", "flat", "gp")

# Diagonal jitter ladder for GP factorizations, relative to the kernel variance.
JITTER_LADDER = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


@dataclass(frozen=True)
class GpKernelParams:
    """Squared-exponential kernel: marginal variance and length scale in time units."""

    variance: float = 1.25
    length_scale: float = 13.0

    def __post_init__(self):
        if not (self.variance > 0.0 and np.isfinite(self.variance)):
            raise DomainError(f"kernel variance must be positive, got {self.variance}")
        if not (self.length_scale > 0.0 and np.isfinite(self.length_scale)):
            raise DomainError(f"kernel length scale must be positive, got {self.length_scale}")


def gp_covariance(kernel: GpKernelParams, times) -> np.ndarray:
    """Kernel matrix over integer times: variance * exp(-0.5 ((dt)/scale)^2)."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0 or (t.size > 1 and not np.all(np.diff(t) > 0)):
        raise InvalidInputError("kernel times must be a nonempty strictly increasing vector")
    dt = (t[:, None] - t[None, :]) / kernel.length_scale
    return kernel.variance * np.exp(-0.5 * dt * dt)


def _stable_cholesky(cov: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of cov + jitter*scale*I, escalating jitter on failure."""
    eye = np.eye(cov.shape[0])
    for jitter in JITTER_LADDER:
        try:
            return cholesky(cov + jitter * scale * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"covariance factorization failed after jitter escalation to {JITTER_LADDER[-1]:g} x scale"
    )


@dataclass
class GpWorkspace:
    """Per-chain cache of the grid kernel: jittered covariance and its factor."""

    grid: np.ndarray
    kernel: GpKernelParams
    cov: np.ndarray        # jittered covariance actually factorized
    chol: np.ndarray       # lower Cholesky of cov
    jitter: float


def prepare_gp_workspace(kernel: GpKernelParams, grid) -> GpWorkspace:
    grid = np.asarray(grid, dtype=np.int64)
    cov = gp_covariance(kernel, grid)
    chol, jitter = _stable_cholesky(cov, kernel.variance)
    eye = np.eye(grid.size)
    return GpWorkspace(grid, kernel, cov + jitter * kernel.variance * eye, chol, jitter)


@dataclass
class TrajectoryAtom:
    """One trajectory mixture atom: a constant level or a grid-valued path."""

    kind: str                      # "flat" | "gp"
    weight: float = 0.0
    level: float | None = None
    path: np.ndarray | None = None
    grid: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "flat":
            if self.level is None or self.path is not None:
                raise InvalidInputError("flat atom must carry a level and no path")
        elif self.kind == "gp":
            if self.path is None or self.level is not None or self.grid is None:
                raise InvalidInputError("gp atom must carry a path on its grid and no level")
            if len(self.path) != len(self.grid):
                raise InvalidInputError("gp atom path and grid lengths differ")
        else:
            raise InvalidInputError(f"unknown atom kind {self.kind!r}")
        if self.weight < 0.0:
            raise InvalidInputError(f"atom weight must be nonnegative, got {self.weight}")


def sample_trajectory_atom(kernel: GpKernelParams, grid, rng: np.random.Generator,
                           workspace: GpWorkspace | None = None) -> TrajectoryAtom:
    """Fresh zero-mean GP path atom on the grid (weight left at 0)."""
    if workspace is None:
        workspace = prepare_gp_workspace(kernel, grid)
    z = rng.standard_normal(workspace.grid.size)
    return TrajectoryAtom(kind="gp", path=workspace.chol @ z, grid=workspace.grid.copy())


def component_loglik(series: ObservedSeries, atom: TrajectoryAtom | None,
                     params: ArParams) -> float:
    """Log-likelihood of a unit under one trajectory atom (None for the null).

    Null: log N(y | 0, Sigma). Flat: the level is subtracted. GP: the path is
    restricted to the unit's times, which must all lie on the atom's grid.
    """
    if atom is None:
        return ar1_loglik(series, params)
    if atom.kind == "flat":
        shifted = ObservedSeries(series.unit_id, series.times, series.values - atom.level)
        return ar1_loglik(shifted, params)
    pos = np.searchsorted(atom.grid, series.times)
    clipped = np.minimum(pos, atom.grid.size - 1)
    if np.any(pos >= atom.grid.size) or not np.array_equal(atom.grid[clipped], series.times):
        raise InvalidInputError(
            f"unit {series.unit_id!r} has observation times outside the atom grid"
        )
    resid = ObservedSeries(series.unit_id, series.times, series.values - atom.path[pos])
    return ar1_loglik(resid, params)


@dataclass
class TrajectorySticks:
    """A truncated stick-breaking set of trajectory atoms of one kind.

    With ``n_frozen`` > 0 the leading atoms keep their values and weights
    fixed; stick updates redistribute only the remaining tail mass.
    """

    kind: str
    sticks: np.ndarray            # Beta fractions of the free tail
    weights: np.ndarray           # all atom weights, sum to 1
    levels: np.ndarray | None = None    # flat: (L,)
    paths: np.ndarray | None = None     # gp: (L, G)
    n_frozen: int = 0

    @property
    def truncation(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the joint model."""

    kernel: GpKernelParams = GpKernelParams()
    base: ParametricPrior = ParametricPrior()
    resid_concentration: float = 1.0
    traj_concentration: float = 1.0
    trunc_resid: int = 60
    trunc_gp: int = 60
    trunc_flat: int = 30

    def __post_init__(self):
        if self.resid_concentration <= 0.0 or self.traj_concentration <= 0.0:
            raise DomainError("concentration parameters must be positive")
        for name in ("trunc_resid", "trunc_gp", "trunc_flat"):
            if getattr(self, name) < 2:
                raise DomainError(f"{name} must be at least 2")


def default_hyperparameters(n_units: int) -> ModelConfig:
    """Elicited defaults: kernel (1.25, 13), concentrations 10/ln N and 15/ln N."""
    if n_units < 2:
        raise DomainError(f"defaults need a panel of at least 2 units, got {n_units}")
    log_n = np.log(n_units)
    return ModelConfig(
        kernel=GpKernelParams(variance=1.25, length_scale=13.0),
        base=ParametricPrior(phi_mean=0.5, phi_var=0.0625, var_shape=2.0, var_scale=1.0),
        resid_concentration=10.0 / log_n,
        traj_concentration=15.0 / log_n,
    )


@dataclass
class FdpState:
    """Complete sampler state for the joint model."""

    component_probs: np.ndarray       # (3,), on the simplex
    unit_component: np.ndarray        # (N,), values in {NULL, FLAT, GP}
    unit_atom: np.ndarray             # (N,), atom index; -1 for null units
    flat_set: TrajectorySticks
    gp_set: TrajectorySticks
    residual: DpResidualState
    grid: np.ndarray
    kernel: GpKernelParams
    traj_concentration: float

    @property
    def n_units(self) -> int:
        return int(self.unit_component.size)

    def trajectory_atom(self, kind: str, index: int) -> TrajectoryAtom:
        if kind == "flat":
            return TrajectoryAtom("flat", weight=float(self.flat_set.weights[index]),
                                  level=float(self.flat_set.levels[index]))
        return TrajectoryAtom("gp", weight=float(self.gp_set.weights[index]),
                              path=self.gp_set.paths[index].copy(), grid=self.grid.copy())

    def validate(self) -> None:
        if abs(self.component_probs.sum() - 1.0) > 1e-9 or np.any(self.component_probs < 0):
            raise InvalidInputError("component probabilities must lie on the simplex")
        nonnull = self.unit_component != NULL
        if np.any(self.unit_atom[~nonnull] != -1):
            raise InvalidInputError("null units must carry atom index -1")
        if np.any(self.unit_atom[nonnull] < 0):
            raise InvalidInputError("non-null units must carry a valid atom index")

    def clone(self) -> "FdpState":
        return copy.deepcopy(self)


def init_fdp_state(n_units: int, config: ModelConfig, grid, seed: int = 0,
                   rng: np.random.Generator | None = None,
                   workspace: GpWorkspace | None = None) -> FdpState:
    """Exact prior draw of the full state."""
    if rng is None:
        rng = stream(seed, "joint-init")
    grid = np.asarray(grid, dtype=np.int64)
    if workspace is None:
        workspace = prepare_gp_workspace(config.kernel, grid)
    cp = rng.dirichlet(np.ones(3))
    nu = config.traj_concentration

    f_sticks = rng.beta(1.0, nu, size=config.trunc_flat - 1)
    f_weights = stick_weights(f_sticks)
    levels = rng.normal(0.0, np.sqrt(config.kernel.variance), size=config.trunc_flat)
    flat_set = TrajectorySticks("flat", f_sticks, f_weights, levels=levels)

    g_sticks = rng.beta(1.0, nu, size=config.trunc_gp - 1)
    g_weights = stick_weights(g_sticks)
    paths = (workspace.chol @ rng.standard_normal((grid.size, config.trunc_gp))).T
    gp_set = TrajectorySticks("gp", g_sticks, g_weights, paths=paths)

    unit_component = rng.choice(3, size=n_units, p=cp).astype(np.int8)
    unit_atom = np.full(n_units, -1, dtype=np.int64)
    is_flat = unit_component == FLAT
    is_gp = unit_component == GP
    unit_atom[is_flat] = rng.choice(config.trunc_flat, size=int(is_flat.sum()), p=f_weights)
    unit_atom[is_gp] = rng.choice(config.trunc_gp, size=int(is_gp.sum()), p=g_weights)

    residual = init_residual_state(n_units, config.resid_concentration, config.base,
                                   config.trunc_resid, rng=rng)
    return FdpState(cp, unit_component, unit_atom, flat_set, gp_set, residual,
                    grid, config.kernel, nu)


def _unit_name(groups: list[TimesGroup], unit: int) -> str:
    for g in groups:
        hit = np.flatnonzero(g.indices == unit)
        if hit.size:
            return g.unit_ids[int(hit[0])] if g.unit_ids else str(unit)
    return str(unit)


def _resid_partitions(groups: list[TimesGroup], assignments: np.ndarray):
    """Yield (group, atom_index, member_rows) for every occupied pair."""
    for g in groups:
        a = assignments[g.indices]
        for l in np.unique(a):
            yield g, int(l), np.flatnonzero(a == l)


def gp_atom_conditional(workspace: GpWorkspace, observations) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian conditional of one gp path given assigned units.

    ``observations`` is an iterable of (grid_positions, gaps, values, params)
    where values is (m, T) stacked series observed at those positions, gaps
    is the gap table of their times, and ``params`` the AR(1) noise law.
    Returns the posterior mean and covariance on the grid for the
    precision-form conditional Lambda = C^-1 + S with S = sum P' Q P,
    evaluated through the equivalent well-conditioned identity
    Lambda^-1 = (I + C S)^-1 C so C is never inverted explicitly.
    """
    g_size = workspace.grid.size
    noise_prec = np.zeros((g_size, g_size))
    b = np.zeros(g_size)
    for pos, gaps, values, params in observations:
        values = np.atleast_2d(values)
        Q = ar1_precision(params, gaps)
        idx = np.ix_(pos, pos)
        noise_prec[idx] += values.shape[0] * Q
        b[pos] += Q @ values.sum(axis=0)
    system = np.eye(g_size) + workspace.cov @ noise_prec
    try:
        lu_piv = lu_factor(system)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"gp conditional solve failed: {exc}") from exc
    cov = lu_solve(lu_piv, workspace.cov)
    cov = 0.5 * (cov + cov.T)
    return cov @ b, cov


def _draw_gp_conditional(workspace: GpWorkspace, observations, rng) -> np.ndarray:
    mean, cov = gp_atom_conditional(workspace, observations)
    try:
        factor = cholesky(cov, lower=True)
    except np.linalg.LinAlgError:
        factor, _ = _stable_cholesky(cov, workspace.kernel.variance)
    z = rng.standard_normal(workspace.grid.size)
    return mean + factor @ z


def _assignment_scores(state: FdpState, groups: list[TimesGroup], likelihood_off: bool):
    """Unit-by-component score matrix and cached whitened cross terms.

    Columns are [null | flat atoms | gp atoms]; entry = log component prob
    + log atom weight + component log-likelihood under the unit's current
    residual parameters. Also returns per-unit q_y1 and s11 (for the flat
    conjugate update) under the current residual assignment.
    """
    n = state.n_units
    Lf, Lg = state.flat_set.truncation, state.gp_set.truncation
    with np.errstate(divide="ignore"):
        log_cp = np.log(state.component_probs)
        log_wf = np.log(state.flat_set.weights)
        log_wg = np.log(state.gp_set.weights)
    scores = np.empty((n, 1 + Lf + Lg))
    q_y1_u = np.zeros(n)
    s11_u = np.zeros(n)
    if likelihood_off:
        scores[:, 0] = log_cp[NULL]
        scores[:, 1:1 + Lf] = log_cp[FLAT] + log_wf[None, :]
        scores[:, 1 + Lf:] = log_cp[GP] + log_wg[None, :]
        return scores, q_y1_u, s11_u

    levels = state.flat_set.levels
    for g, l, rows in _resid_partitions(groups, state.residual.assignments):
        params = state.residual.stick.atom(l)
        idx = g.indices[rows]
        paths_t = state.gp_set.paths[:, g.grid_pos]
        stacked = np.vstack([g.values[rows], np.ones((1, g.length)), paths_t])
        E, logdet = group_whiten(g, params, values=stacked)
        Ey, e1, Ep = E[:rows.size], E[rows.size], E[rows.size + 1:]
        q_yy = np.einsum("ij,ij->i", Ey, Ey)
        q_y1 = Ey @ e1
        s11 = float(e1 @ e1)
        q_pp = np.einsum("ij,ij->i", Ep, Ep)
        cross = Ey @ Ep.T
        ll_null = -0.5 * (g.length * LOG_2PI + logdet + q_yy)
        scores[idx, 0] = log_cp[NULL] + ll_null
        ll_flat = (ll_null[:, None] + levels[None, :] * q_y1[:, None]
                   - 0.5 * s11 * levels[None, :] ** 2)
        scores[idx, 1:1 + Lf] = log_cp[FLAT] + log_wf[None, :] + ll_flat
        ll_gp = ll_null[:, None] + cross - 0.5 * q_pp[None, :]
        scores[idx, 1 + Lf:] = log_cp[GP] + log_wg[None, :] + ll_gp
        q_y1_u[idx] = q_y1
        s11_u[idx] = s11
    return scores, q_y1_u, s11_u


def _flat_level_posterior(prior_var: float, s11_sum, q_y1_sum):
    """Conjugate normal posterior of a constant level: N(0, prior_var) prior,
    whitened cross terms summed over member units."""
    post_var = 1.0 / (1.0 / prior_var + np.asarray(s11_sum, dtype=float))
    return post_var * np.asarray(q_y1_sum, dtype=float), post_var


def _update_traj_sticks(tset: TrajectorySticks, counts: np.ndarray, nu: float,
                        rng: np.random.Generator) -> None:
    k = tset.n_frozen
    if k == 0:
        tset.sticks, tset.weights = sample_sticks(counts, nu, rng)
        return
    frozen = tset.weights[:k]
    free_mass = 1.0 - float(frozen.sum())
    sticks, wfree = sample_sticks(counts[k:], nu, rng)
    tset.sticks = sticks
    tset.weights = np.concatenate([frozen, free_mass * wfree])


def gibbs_sweep_joint(state: FdpState, panel, rng: np.random.Generator,
                      adapt: bool = False, likelihood_off: bool = False,
                      workspace: GpWorkspace | None = None) -> FdpState:
    """One full sweep of the joint sampler; mutates and returns ``state``.

    ``panel`` may be a SeriesPanel or a prebuilt group list (grid positions
    required). ``likelihood_off`` holds the likelihood constant in every
    block, turning the sweep into a prior-preserving kernel for invariance
    tests. Proposal adaptation in the residual block runs only with
    ``adapt`` set.
    """
    groups = panel if isinstance(panel, list) else panel_groups(panel, grid=state.grid)
    if workspace is None:
        workspace = prepare_gp_workspace(state.kernel, state.grid)
    n = state.n_units
    Lf = state.flat_set.truncation

    # (a) joint draw of (component, atom) per unit
    scores, q_y1_u, s11_u = _assignment_scores(state, groups, likelihood_off)
    bad = ~np.isfinite(np.max(scores, axis=1))
    if np.any(bad):
        unit = int(np.flatnonzero(bad)[0])
        raise NumericalError(
            f"assignment stage (a): no finite component score for unit {_unit_name(groups, unit)!r}"
        )
    pick = np.argmax(scores + rng.gumbel(size=scores.shape), axis=1)
    state.unit_component = np.where(pick == 0, NULL,
                                    np.where(pick <= Lf, FLAT, GP)).astype(np.int8)
    state.unit_atom = np.where(pick == 0, -1,
                               np.where(pick <= Lf, pick - 1, pick - 1 - Lf)).astype(np.int64)

    # (b) component probabilities
    comp_counts = np.array([np.sum(state.unit_component == c) for c in (NULL, FLAT, GP)])
    state.component_probs = rng.dirichlet(1.0 + comp_counts)

    # (c) flat levels: conjugate normal given members; prior draw when empty
    kappa1 = state.kernel.variance
    is_flat = state.unit_component == FLAT
    flat_counts = np.bincount(state.unit_atom[is_flat], minlength=Lf)
    a_sum = np.zeros(Lf)
    b_sum = np.zeros(Lf)
    if not likelihood_off:
        np.add.at(a_sum, state.unit_atom[is_flat], s11_u[is_flat])
        np.add.at(b_sum, state.unit_atom[is_flat], q_y1_u[is_flat])
    post_mean, post_var = _flat_level_posterior(kappa1, a_sum, b_sum)
    start = state.flat_set.n_frozen
    z = rng.standard_normal(Lf - start)
    new_levels = post_mean[start:] + np.sqrt(post_var[start:]) * z
    if not np.all(np.isfinite(new_levels)):
        raise NumericalError("flat-level stage (c): non-finite conjugate draw")
    state.flat_set.levels[start:] = new_levels

    # (d) gp paths: exact Gaussian conditional per atom; prior draw when empty
    Lg = state.gp_set.truncation
    is_gp = state.unit_component == GP
    gp_counts = np.bincount(state.unit_atom[is_gp], minlength=Lg)
    members_by_gp_atom: dict[int, list] = {l: [] for l in range(state.gp_set.n_frozen, Lg)}
    if not likelihood_off:
        for g, l, rows in _resid_partitions(groups, state.residual.assignments):
            params = state.residual.stick.atom(l)
            sel = is_gp[g.indices[rows]]
            if not np.any(sel):
                continue
            atoms_here = state.unit_atom[g.indices[rows[sel]]]
            for atom_l in np.unique(atoms_here):
                if atom_l < state.gp_set.n_frozen:
                    continue
                vals = g.values[rows[sel][atoms_here == atom_l]]
                members_by_gp_atom[int(atom_l)].append((g.grid_pos, g.gaps, vals, params))
    for l in range(state.gp_set.n_frozen, Lg):
        obs = members_by_gp_atom.get(l, [])
        try:
            if obs:
                state.gp_set.paths[l] = _draw_gp_conditional(workspace, obs, rng)
            else:
                state.gp_set.paths[l] = workspace.chol @ rng.standard_normal(state.grid.size)
        except NumericalError as exc:
            raise NumericalError(f"gp-path stage (d), atom {l}: {exc}") from exc

    # (e) trajectory stick sets
    _update_traj_sticks(state.flat_set, flat_counts, state.traj_concentration, rng)
    _update_traj_sticks(state.gp_set, gp_counts, state.traj_concentration, rng)

    # (f) residual mixture on de-trended values
    resid_values = _detrended_values(state, groups)
    try:
        _sweep_residual(state.residual, groups, n, rng, adapt, likelihood_off,
                        values=resid_values)
    except NumericalError as exc:
        raise NumericalError(f"residual stage (f): {exc}") from exc
    return state


def _detrended_values(state: FdpState, groups: list[TimesGroup]) -> list[np.ndarray]:
    out = []
    for g in groups:
        vals = g.values.copy()
        comp = state.unit_component[g.indices]
        atom = state.unit_atom[g.indices]
        flat_rows = np.flatnonzero(comp == FLAT)
        if flat_rows.size:
            vals[flat_rows] -= state.flat_set.levels[atom[flat_rows]][:, None]
        gp_rows = np.flatnonzero(comp == GP)
        if gp_rows.size:
            vals[gp_rows] -= state.gp_set.paths[np.ix_(atom[gp_rows], g.grid_pos)]
        out.append(vals)
    return out


def complete_data_loglik(state: FdpState, groups: list[TimesGroup]) -> float:
    """Sum over units of the component log-likelihood at the current state."""
    resid = _detrended_values(state, groups)
    total = 0.0
    for gi, g in enumerate(groups):
        a = state.residual.assignments[g.indices]
        for l in np.unique(a):
            rows = np.flatnonzero(a == l)
            E, logdet = group_whiten(g, state.residual.stick.atom(l), values=resid[gi][rows])
            q = float(np.einsum("ij,ij->", E, E))
            total += -0.5 * (rows.size * (g.length * LOG_2PI + logdet) + q)
    return total


@dataclass
class SweepRecord:
    """Light summary of one retained sweep."""

    index: int
    loglik: float
    component_probs: np.ndarray
    component_counts: np.ndarray        # (n_null, n_flat, n_gp)
    gamma: np.ndarray | None = None     # per-unit components, stride sweeps only
    top_atoms: tuple = ()               # (kind, index, combined weight) triples


@dataclass
class ChainOutput:
    """Everything retained from one MCMC run."""

    unit_ids: tuple[str, ...]
    grid: np.ndarray
    inclusion: np.ndarray
    n_burn: int
    n_keep: int
    seed: int
    fingerprint: str
    logliks: np.ndarray
    records: list[SweepRecord]
    best_sweep: int
    best_state: FdpState
    config: ModelConfig
    band_sweeps: tuple[int, ...] = ()
    band_samples: np.ndarray | None = None       # (n_saved, N, G) float32
    membership_counts: np.ndarray | None = None  # (N, n_frozen_total + 2)
    membership_labels: tuple[str, ...] = ()

    def flagged(self, threshold: float) -> tuple[str, ...]:
        if not (0.0 < threshold <= 1.0):
            raise DomainError(f"flag threshold must lie in (0, 1], got {threshold}")
        return tuple(u for u, p in zip(self.unit_ids, self.inclusion) if p >= threshold)


def _combined_atom_weights(state: FdpState) -> list[tuple[str, int, float]]:
    """Atoms of both trajectory sets weighted within the combined alternative."""
    cp = state.component_probs
    alt_mass = cp[FLAT] + cp[GP]
    if alt_mass <= 0.0:
        return []
    out = [("flat", l, float(cp[FLAT] / alt_mass * state.flat_set.weights[l]))
           for l in range(state.flat_set.truncation)]
    out += [("gp", l, float(cp[GP] / alt_mass * state.gp_set.weights[l]))
            for l in range(state.gp_set.truncation)]
    out.sort(key=lambda kiw: -kiw[2])
    return out


def _trajectory_matrix(state: FdpState) -> np.ndarray:
    """Per-unit trajectory values on the grid at the current state."""
    n, g_len = state.n_units, state.grid.size
    f = np.zeros((n, g_len), dtype=np.float32)
    is_flat = state.unit_component == FLAT
    f[is_flat] = state.flat_set.levels[state.unit_atom[is_flat]][:, None].astype(np.float32)
    is_gp = state.unit_component == GP
    f[is_gp] = state.gp_set.paths[state.unit_atom[is_gp]].astype(np.float32)
    return f


def run_chain(panel: SeriesPanel, config: ModelConfig, n_burn: int, n_keep: int,
              seed: int, checkpoint_stride: int = 10, collect_bands: bool = True,
              fingerprint: str = "", initial_state: FdpState | None = None,
              membership_tracking: bool = False) -> ChainOutput:
    """Burn-in plus retained sweeps of the joint sampler, from a prior draw.

    Checkpoint records carry per-unit components and atom summaries every
    ``checkpoint_stride`` retained sweeps (light records in between), and
    the complete-data log-likelihood is tracked for every retained sweep so
    maximum-likelihood sweep selection does not depend on the stride.
    ``membership_tracking`` accumulates per-unit frequencies over
    {each frozen atom, other, null} for frozen-atom reruns.
    """
    if n_burn < 0 or n_keep < 1:
        raise DomainError("need n_burn >= 0 and n_keep >= 1")
    if checkpoint_stride < 1:
        raise DomainError("checkpoint stride must be positive")
    if len(panel) == 0:
        raise InvalidInputError("cannot fit an empty panel")
    grid = np.unique(np.concatenate([s.times for s in panel]))
    workspace = prepare_gp_workspace(config.kernel, grid)
    groups = panel_groups(panel, grid=grid)
    n = len(panel)

    state = initial_state if initial_state is not None else init_fdp_state(
        n, config, grid, rng=stream(seed, "joint-chain", "init"), workspace=workspace)
    state.validate()
    rng = stream(seed, "joint-chain", "sweeps")

    for _ in range(n_burn):
        gibbs_sweep_joint(state, groups, rng, adapt=True, workspace=workspace)

    n_frozen_flat = state.flat_set.n_frozen
    n_frozen_gp = state.gp_set.n_frozen
    labels = tuple(f"flat_{l + 1}" for l in range(n_frozen_flat)) + \
        tuple(f"gp_{l + 1}" for l in range(n_frozen_gp)) + ("other", "null")
    membership = np.zeros((n, len(labels)), dtype=np.int64) if membership_tracking else None

    inclusion_counts = np.zeros(n, dtype=np.int64)
    logliks = np.empty(n_keep)
    records: list[SweepRecord] = []
    band_samples = []
    band_sweeps = []
    best_loglik = -np.inf
    best_sweep = -1
    best_state = None

    for t in range(n_keep):
        gibbs_sweep_joint(state, groups, rng, adapt=False, workspace=workspace)
        nonnull = state.unit_component != NULL
        inclusion_counts += nonnull
        ll = complete_data_loglik(state, groups)
        logliks[t] = ll
        if ll > best_loglik:
            best_loglik = ll
            best_sweep = t
            best_state = state.clone()
        comp_counts = np.array([np.sum(state.unit_component == c) for c in (NULL, FLAT, GP)])
        at_stride = (t % checkpoint_stride) == 0
        records.append(SweepRecord(
            index=t,
            loglik=ll,
            component_probs=state.component_probs.copy(),
            component_counts=comp_counts,
            gamma=state.unit_component.copy() if at_stride else None,
            top_atoms=tuple(_combined_atom_weights(state)[:5]) if at_stride else (),
        ))
        if collect_bands and at_stride:
            band_samples.append(_trajectory_matrix(state))
            band_sweeps.append(t)
        if membership is not None:
            bucket = np.full(n, len(labels) - 2, dtype=np.int64)   # "other"
            bucket[~nonnull] = len(labels) - 1                      # "null"
            fz_flat = (state.unit_component == FLAT) & (state.unit_atom < n_frozen_flat)
            bucket[fz_flat] = state.unit_atom[fz_flat]
            fz_gp = (state.unit_component == GP) & (state.unit_atom < n_frozen_gp)
            bucket[fz_gp] = n_frozen_flat + state.unit_atom[fz_gp]
            membership[np.arange(n), bucket] += 1

    return ChainOutput(
        unit_ids=panel.unit_ids,
        grid=grid,
        inclusion=inclusion_counts / n_keep,
        n_burn=n_burn,
        n_keep=n_keep,
        seed=seed,
        fingerprint=fingerprint,
        logliks=logliks,
        records=records,
        best_sweep=best_sweep,
        best_state=best_state,
        config=config,
        band_sweeps=tuple(band_sweeps),
        band_samples=np.stack(band_samples) if band_samples else None,
        membership_counts=membership,
        membership_labels=labels,
    )


def merge_inclusion(chains: list[ChainOutput]) -> np.ndarray:
    """Pooled inclusion probabilities across chains (equal-weight average)."""
    if not chains:
        raise InvalidInputError("no chains to merge")
    ids = chains[0].unit_ids
    for c in chains[1:]:
        if c.unit_ids != ids:
            raise InvalidInputError("chains were fit on different panels")
    return np.mean([c.inclusion for c in chains], axis=0)
