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
form, whitened and stacked over atoms); (e) both trajectory stick sets; (f)
the residual mixture on the de-trended series. Inclusion probabilities are
retained-sweep frequencies of a unit being non-null.
"""

from __future__ import annotations

import copy
import hashlib
import os
import warnings
import zipfile
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import cholesky
from scipy.linalg.lapack import dtrtrs

from .ar_core import (
    LOG_2PI,
    ArParams,
    ObservedSeries,
    SeriesPanel,
    StepTable,
    ar1_loglik,
    lag_stats,
    step_precision,
    step_table,
)
# Bound only for the probes in bench/layers.py; not called here (counts read 0).
from .ar_core import ar1_precision, group_whiten, panel_groups  # noqa: F401
from .dp_residual import DpResidualState, init_residual_state, _sweep_residual
from .errors import DomainError, InvalidInputError, NumericalError
from .mcmc import gumbel_argmax, sample_sticks, stick_weights, stream
from .panel_io import _fmt
from .parametric import ParametricPrior

NULL, FLAT, GP = 0, 1, 2
COMPONENT_NAMES = ("null", "flat", "gp")

DEFAULT_THRESHOLDS = (0.5, 0.9)
BAND_QUANTILES = (0.05, 0.5, 0.95)

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


@dataclass
class GpWorkspace:
    """Per-chain cache of the grid kernel: jittered covariance and its factor."""

    grid: np.ndarray
    kernel: GpKernelParams
    cov: np.ndarray        # jittered covariance actually factorized
    chol: np.ndarray       # lower Cholesky of cov
    jitter: float


def prepare_gp_workspace(kernel: GpKernelParams, grid) -> GpWorkspace:
    """Grid kernel with the first ``JITTER_LADDER`` step (times the kernel
    variance) on its diagonal that factorizes. Only this prior factor may
    need jitter: every posterior factors M >= I (``gp_atom_conditional``)."""
    grid = np.asarray(grid, dtype=np.int64)
    kernel_cov = gp_covariance(kernel, grid)
    for jitter in JITTER_LADDER:
        cov = kernel_cov + jitter * kernel.variance * np.eye(grid.size)
        try:
            return GpWorkspace(grid, kernel, cov, cholesky(cov, lower=True), jitter)
        except np.linalg.LinAlgError:
            pass
    raise NumericalError(f"covariance factorization failed after jitter escalation to "
                         f"{JITTER_LADDER[-1]:g} x scale")


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
        for name in ("resid_concentration", "traj_concentration"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise DomainError(f"{name} must be finite and positive, got {value}")
        for name in ("trunc_resid", "trunc_gp", "trunc_flat"):
            if getattr(self, name) < 2:
                raise DomainError(f"{name} must be at least 2")


def default_hyperparameters(n_units: int) -> ModelConfig:
    """Elicited defaults: the default kernel and base prior, with
    concentrations 10/ln N and 15/ln N."""
    if n_units < 2:
        raise DomainError(f"defaults need a panel of at least 2 units, got {n_units}")
    log_n = np.log(n_units)
    return ModelConfig(resid_concentration=10.0 / log_n, traj_concentration=15.0 / log_n)


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

    def frozen_digest(self) -> str:
        """sha256 over the frozen head atoms' values and weights, flat then gp."""
        f, g = self.flat_set, self.gp_set
        h = hashlib.sha256()
        for arr in (f.levels[:f.n_frozen], f.weights[:f.n_frozen],
                    g.paths[:g.n_frozen], g.weights[:g.n_frozen]):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # Bound only for the probes in bench/layers.py; not called here (counts read 0).
    def clone(self) -> "FdpState":
        return copy.deepcopy(self)


def init_fdp_state(n_units: int, config: ModelConfig, grid, *, rng: np.random.Generator,
                   workspace: GpWorkspace | None = None) -> FdpState:
    """Exact prior draw of the full state."""
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


def gp_atom_conditional(workspace: GpWorkspace, noise_prec: np.ndarray,
                        b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian conditional of gp paths given their assigned units.

    ``noise_prec`` is S = sum P' Q P and ``b`` = sum P' Q y over an atom's
    units (P picks the unit's times from the grid, Q is its AR(1) noise
    precision), for one atom or stacked over K. With the prior factor
    C = L L' the posterior covariance is L M^-1 L', M = I + L' S L = R R'
    (Rasmussen & Williams 2006, GPML 3.4). S is a sum of P'QP terms, so it
    is positive semidefinite and M >= I: its Cholesky cannot fail on finite
    input. Returns the mean L M^-1 L' b and R; the covariance is F F' with
    F = L R^-T, and ``_gp_draw`` draws mean + F z.
    """
    L, G = workspace.chol, workspace.grid.size
    R = np.linalg.cholesky(np.eye(G) + L.T @ noise_prec @ L)
    stacked = R.reshape(-1, G, G)
    w = _solve_lower(stacked, _solve_lower(stacked, (b @ L).reshape(-1, G)), trans=1)
    return (w @ L.T).reshape(np.shape(b)), R


def _solve_lower(R: np.ndarray, x: np.ndarray, trans: int = 0) -> np.ndarray:
    """Row k solves R[k] u = x[k] (``trans`` 0) or R[k]' u = x[k] (1), R[k] lower
    triangular: one O(G^2) solve per atom, as numpy has no triangular gufunc.

    Each solve calls LAPACK's dtrtrs on R[k]' directly, the upper triangle
    that ``solve_triangular`` itself hands it for C-ordered input, without
    that wrapper's per-call checks.
    """
    out = np.empty_like(x)
    for k in range(len(x)):
        out[k], info = dtrtrs(R[k].T, x[k], lower=0, trans=1 - trans)
        if info != 0:
            raise NumericalError(f"triangular solve for atom {k} failed: LAPACK dtrtrs info {info}")
    return out


def _gp_draw(workspace: GpWorkspace, mean: np.ndarray, R: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """Stage (d)'s draw map: mean + L R^-T z per row of (K, G) standard normals."""
    return mean + _solve_lower(R, z, trans=1) @ workspace.chol.T


@dataclass(frozen=True)
class _UnitNoise:
    """Each unit's AR(1) noise under its current residual atom, computed once
    per sweep: the null log-likelihood and the flat-level terms q_y1 and
    s11 of its data, and its precision Q as the gp terms read it, on the
    grid: Q y, the diagonal of Q, and Q's entry at each distinct step pair."""

    null: np.ndarray    # (N,)
    q_y1: np.ndarray    # (N,)
    s11: np.ndarray     # (N,)
    qy: np.ndarray      # (N, G)
    diag: np.ndarray    # (N, G)
    pair: np.ndarray    # (N, P)


def _unit_noise(state: FdpState, table: StepTable) -> _UnitNoise:
    """``_UnitNoise`` of every unit in ``table`` (grid positions required)."""
    stick, atom = state.residual.stick, state.residual.assignments
    stats = table.stats
    rows = np.arange(atom.size)
    q_yy, q_y1, s11, logdet = (x[rows, atom] for x in stats.gaussian_parts(stick.phi, stick.v))
    null = -0.5 * (stats.length * LOG_2PI + logdet + q_yy)
    diag, off = step_precision(table, stick.phi[atom], stick.v[atom])
    y, later = table.values, table.later
    qy = diag * y
    qy[later] += off * y[later - 1]
    qy[later - 1] += off * y[later]
    qy_grid, diag_grid = np.zeros((2, table.n_units, state.grid.size))
    qy_grid[table.unit, table.pos] = qy
    diag_grid[table.unit, table.pos] = diag
    pair = np.zeros((table.n_units, len(table.pairs)))
    pair[table.unit[later], table.pair] = off
    return _UnitNoise(null, q_y1, s11, qy_grid, diag_grid, pair)


def _gp_atom_terms(noise: _UnitNoise, table: StepTable, unit_atom: np.ndarray,
                   atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = sum P'QP (K, G, G) and b = sum P'Qy (K, G) over the units on each
    gp atom in ``atoms`` (``unit_atom`` is -1 off the gp component), by one
    membership product. Members are checked first: in the product 0 * NaN
    would reach every atom, and the Cholesky returns NaN without error."""
    rows = np.flatnonzero(np.isin(unit_atom, atoms))
    terms = np.hstack([noise.diag[rows], noise.pair[rows], noise.qy[rows]])
    bad = rows[~np.isfinite(terms).all(axis=1)]
    if bad.size:
        raise NumericalError(f"gp-path stage (d), atom {unit_atom[bad].min()}: "
                             "non-finite noise precision or data term")
    G = noise.diag.shape[1]
    sums = (atoms[:, None] == unit_atom[rows]) @ terms
    S = np.zeros((atoms.size, G, G))
    S[:, range(G), range(G)] = sums[:, :G]
    prev, cur = table.pairs.T
    S[:, prev, cur] = S[:, cur, prev] = sums[:, G:-G]
    return S, sums[:, -G:]


def _assignment_scores(state: FdpState, table: StepTable, noise: _UnitNoise) -> np.ndarray:
    """Unit-by-component score matrix.

    Columns are [null | flat atoms | gp atoms]; entry = log component prob
    + log atom weight + component log-likelihood under the unit's current
    residual parameters, read from ``noise``.
    """
    n = state.n_units
    Lf, Lg = state.flat_set.truncation, state.gp_set.truncation
    with np.errstate(divide="ignore"):
        log_cp = np.log(state.component_probs)
        log_wf = np.log(state.flat_set.weights)
        log_wg = np.log(state.gp_set.weights)
    scores = np.empty((n, 1 + Lf + Lg))
    scores[:, 0] = log_cp[NULL]
    scores[:, 1:1 + Lf] = log_cp[FLAT] + log_wf[None, :]
    scores[:, 1 + Lf:] = log_cp[GP] + log_wg[None, :]

    levels, paths = state.flat_set.levels, state.gp_set.paths
    prev, cur = table.pairs.T
    q_pp = noise.diag @ (paths * paths).T + 2.0 * noise.pair @ (paths[:, prev] * paths[:, cur]).T
    null, q_y1 = noise.null[:, None], noise.q_y1[:, None]
    scores[:, :1] += null
    scores[:, 1:1 + Lf] += null + levels * q_y1 - 0.5 * noise.s11[:, None] * levels ** 2
    scores[:, 1 + Lf:] += null + noise.qy @ paths.T - 0.5 * q_pp
    return scores


def _flat_level_posterior(prior_var: float, s11_sum, q_y1_sum):
    """Conjugate normal posterior of a constant level: N(0, prior_var) prior,
    whitened cross terms summed over member units."""
    post_var = 1.0 / (1.0 / prior_var + np.asarray(s11_sum, dtype=float))
    return post_var * np.asarray(q_y1_sum, dtype=float), post_var


def _update_traj_sticks(tset: TrajectorySticks, counts: np.ndarray, nu: float,
                        rng: np.random.Generator) -> None:
    """Redraw the free tail's sticks; frozen atoms keep their weights."""
    frozen = tset.weights[:tset.n_frozen]
    tset.sticks, wfree = sample_sticks(counts[tset.n_frozen:], nu, rng)
    tset.weights = np.concatenate([frozen, (1.0 - float(frozen.sum())) * wfree])


def gibbs_sweep_joint(state: FdpState, panel, rng: np.random.Generator,
                      workspace: GpWorkspace | None = None) -> FdpState:
    """One full sweep of the joint sampler; mutates and returns ``state``.

    ``panel`` may be a SeriesPanel or a prebuilt step table (grid positions
    required). Burn-in and retained sweeps run this same kernel; stage (f)
    moves the residual atoms by ``dp_residual``'s collapsed step.
    """
    table = panel if isinstance(panel, StepTable) else step_table(panel, grid=state.grid)
    if workspace is None:
        workspace = prepare_gp_workspace(state.kernel, state.grid)
    Lf = state.flat_set.truncation

    # (a) joint draw of (component, atom) per unit
    noise = _unit_noise(state, table)
    scores = _assignment_scores(state, table, noise)
    bad = ~np.isfinite(np.max(scores, axis=1))
    if np.any(bad):
        raise NumericalError("assignment stage (a): no finite component score for unit "
                             f"{table.unit_ids[int(np.argmax(bad))]!r}")
    pick = gumbel_argmax(scores, rng)
    state.unit_component = np.where(pick == 0, NULL,
                                    np.where(pick <= Lf, FLAT, GP)).astype(np.int8)
    state.unit_atom = np.where(pick == 0, -1,
                               np.where(pick <= Lf, pick - 1, pick - 1 - Lf)).astype(np.int64)

    # (b) component probabilities
    comp_counts = np.array([np.sum(state.unit_component == c) for c in (NULL, FLAT, GP)])
    state.component_probs = rng.dirichlet(1.0 + comp_counts)

    # (c) flat levels: conjugate normal given members; prior draw when empty
    is_flat = state.unit_component == FLAT
    flat_atoms = state.unit_atom[is_flat]
    flat_counts = np.bincount(flat_atoms, minlength=Lf)
    a_sum = np.bincount(flat_atoms, noise.s11[is_flat], minlength=Lf)
    b_sum = np.bincount(flat_atoms, noise.q_y1[is_flat], minlength=Lf)
    post_mean, post_var = _flat_level_posterior(state.kernel.variance, a_sum, b_sum)
    start = state.flat_set.n_frozen
    new_levels = post_mean[start:] + np.sqrt(post_var[start:]) * rng.standard_normal(Lf - start)
    if not np.all(np.isfinite(new_levels)):
        raise NumericalError("flat-level stage (c): non-finite conjugate draw")
    state.flat_set.levels[start:] = new_levels

    # (d) gp paths: one stacked conditional over the busy atoms; prior draw when empty
    Lg = state.gp_set.truncation
    is_gp = state.unit_component == GP
    gp_counts = np.bincount(state.unit_atom[is_gp], minlength=Lg)
    free = np.arange(state.gp_set.n_frozen, Lg)
    z = rng.standard_normal((free.size, state.grid.size))
    state.gp_set.paths[free] = z @ workspace.chol.T
    busy = free[gp_counts[free] > 0]
    S, b = _gp_atom_terms(noise, table, np.where(is_gp, state.unit_atom, -1), busy)
    mean, R = gp_atom_conditional(workspace, S, b)
    state.gp_set.paths[busy] = _gp_draw(workspace, mean, R, z[busy - state.gp_set.n_frozen])

    # (e) trajectory stick sets
    _update_traj_sticks(state.flat_set, flat_counts, state.traj_concentration, rng)
    _update_traj_sticks(state.gp_set, gp_counts, state.traj_concentration, rng)

    # (f) residual mixture on de-trended values
    stats = lag_stats(table, _detrended_values(state, table))
    try:
        _sweep_residual(state.residual, table, stats, rng)
    except NumericalError as exc:
        raise NumericalError(f"residual stage (f): {exc}") from exc
    return state


def _detrended_values(state: FdpState, table: StepTable) -> np.ndarray:
    return table.values - _trajectory_matrix(state)[table.unit, table.pos]


def complete_data_loglik(state: FdpState, table: StepTable) -> float:
    """Sum over units of the component log-likelihood at the current state.

    Stage (f) is the last stage of a sweep, so the de-trended statistics it
    pooled by residual atom are those of the state a sweep leaves; they are
    read from the state. A state that no sweep has scored has them built
    from ``table``.
    """
    stick, pooled = state.residual.stick, state.residual.pooled
    if pooled is None:
        pooled = lag_stats(table, _detrended_values(state, table)).pool(
            state.residual.assignments, stick.truncation)
    # Row l pools the units on residual atom l and is scored under atom l.
    return float(np.trace(pooled.loglik(stick.phi, stick.v)))


@dataclass
class ChainOutput:
    """Everything retained from one MCMC run, one field per ``.npz`` entry.

    Per retained sweep: ``logliks``, ``comp_probs`` and ``comp_counts``
    (units per null/flat/gp). Every ``checkpoint_stride`` retained sweeps
    (``gamma_sweeps``): each unit's component in ``gamma`` and, except in
    frozen-atom reruns (``band_sweeps``), its float32 trajectory on the grid.
    ``membership_counts`` bins units over ``membership_labels`` ({each
    frozen atom, other, null}) in frozen-atom reruns, shape (0, 0)
    otherwise. The ``best_*`` arrays snapshot the state at ``best_sweep``,
    the retained sweep of highest complete-data log-likelihood.
    """

    unit_ids: tuple[str, ...]
    grid: np.ndarray
    inclusion: np.ndarray
    logliks: np.ndarray
    n_burn: int
    n_keep: int
    seed: int
    fingerprint: str
    comp_probs: np.ndarray              # (n_keep, 3)
    comp_counts: np.ndarray             # (n_keep, 3)
    gamma_sweeps: np.ndarray
    gamma: np.ndarray                   # (n_strided, N) int8
    band_sweeps: np.ndarray
    band_samples: np.ndarray            # (n_saved, N, G) float32
    membership_counts: np.ndarray       # (N, n_frozen_total + 2) or (0, 0)
    membership_labels: tuple[str, ...]
    best_sweep: int
    best_component_probs: np.ndarray
    best_flat_levels: np.ndarray
    best_flat_weights: np.ndarray
    best_gp_paths: np.ndarray
    best_gp_weights: np.ndarray
    best_unit_component: np.ndarray
    best_unit_atom: np.ndarray
    kernel: GpKernelParams

    def flagged(self, threshold: float) -> tuple[str, ...]:
        if not (0.0 < threshold <= 1.0):
            raise DomainError(f"flag threshold must lie in (0, 1], got {threshold}")
        return tuple(u for u, p in zip(self.unit_ids, self.inclusion) if p >= threshold)


# Entries of a schema-1 chain file in the order ``save_chain`` writes them: the
# schema, then one per field, with the best sweep's loglik after ``best_sweep``
# and the kernel's two parameters in place of ``kernel``.
_SPLIT = {"best_sweep": ("best_sweep", "best_loglik"),
          "kernel": ("kernel_variance", "kernel_length_scale")}
_CHAIN_KEYS = ("schema",) + tuple(k for f in fields(ChainOutput)
                                   for k in _SPLIT.get(f.name, (f.name,)))
_SCALAR_KEYS = ("schema", "best_loglik", "kernel_variance", "kernel_length_scale") + tuple(
    f.name for f in fields(ChainOutput) if f.type in ("int", "str"))


def save_chain(chain: ChainOutput, path: str) -> None:
    """Persist a chain to ``.npz`` (schema 1), one entry per field."""
    values = {f.name: getattr(chain, f.name) for f in fields(chain)}
    values.update(schema=np.int64(1), best_loglik=chain.logliks[chain.best_sweep],
                  kernel_variance=np.float64(chain.kernel.variance),
                  kernel_length_scale=np.float64(chain.kernel.length_scale),
                  membership_labels=np.array(chain.membership_labels, dtype="U32"))
    np.savez(path, **{k: np.asarray(values[k]) for k in _CHAIN_KEYS})


def load_chain(path: str) -> ChainOutput:
    """Read a chain written by ``save_chain``; a missing or malformed file
    raises ``InvalidInputError`` naming the path (and the offending entry)."""
    if not os.path.exists(path):
        raise InvalidInputError(f"chain file not found: {path}")
    if not zipfile.is_zipfile(path):
        raise InvalidInputError(f"not a chain file (no .npz archive): {path}")
    try:
        with np.load(path) as z:
            for k in _SCALAR_KEYS:
                if k in z.files and z[k].shape != ():
                    raise InvalidInputError(f"chain file {path}: entry {k!r} is not a scalar")
            if "schema" in z.files and int(z["schema"]) != 1:
                raise InvalidInputError(f"unsupported chain schema {int(z['schema'])} in {path}")
            missing = [k for k in _CHAIN_KEYS if k not in z.files]
            if missing:
                raise InvalidInputError(f"chain file {path} lacks entry {missing[0]!r}")
            cast = {"int": int, "str": str, "tuple[str, ...]": lambda a: tuple(map(str, a))}
            values = {f.name: cast.get(f.type, np.asarray)(z[f.name])
                      for f in fields(ChainOutput) if f.name != "kernel"}
            kernel = GpKernelParams(float(z["kernel_variance"]), float(z["kernel_length_scale"]))
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise InvalidInputError(f"unreadable chain file {path}: {exc}") from exc
    chain = ChainOutput(**values, kernel=kernel)
    n, k = len(chain.unit_ids), chain.n_keep
    shapes = {"inclusion": (n,), "logliks": (k,), "comp_probs": (k, 3), "comp_counts": (k, 3),
              "gamma": (len(chain.gamma_sweeps), n),
              "band_samples": (len(chain.band_sweeps), n, chain.grid.size)}
    for name, want in shapes.items():
        if getattr(chain, name).shape != want:
            raise InvalidInputError(f"chain file {path}: entry {name!r} has shape "
                                    f"{getattr(chain, name).shape}, expected {want}")
    if not 0 <= chain.best_sweep < k:
        raise InvalidInputError(f"chain file {path}: entry 'best_sweep' is not one of {k} sweeps")
    return chain


def _best_snapshot(state: FdpState) -> dict[str, np.ndarray]:
    """The ``best_*`` arrays of ``ChainOutput`` copied from ``state``.
    ``np.copy`` keeps the memory order (gp paths are Fortran-ordered), so
    the saved ``.npy`` headers match the state's arrays."""
    return {"best_component_probs": np.copy(state.component_probs),
            "best_flat_levels": np.copy(state.flat_set.levels),
            "best_flat_weights": np.copy(state.flat_set.weights),
            "best_gp_paths": np.copy(state.gp_set.paths),
            "best_gp_weights": np.copy(state.gp_set.weights),
            "best_unit_component": np.copy(state.unit_component),
            "best_unit_atom": np.copy(state.unit_atom)}


def _trajectory_matrix(state: FdpState) -> np.ndarray:
    """Per-unit trajectory values on the grid at the current state."""
    f = np.zeros((state.n_units, state.grid.size))
    is_flat = state.unit_component == FLAT
    f[is_flat] = state.flat_set.levels[state.unit_atom[is_flat]][:, None]
    is_gp = state.unit_component == GP
    f[is_gp] = state.gp_set.paths[state.unit_atom[is_gp]]
    return f


def run_chain(panel: SeriesPanel, config: ModelConfig, n_burn: int, n_keep: int,
              seed: int, checkpoint_stride: int = 10, fingerprint: str = "",
              initial_state: FdpState | None = None) -> ChainOutput:
    """Burn-in plus retained sweeps of the joint sampler, from a prior draw
    or from ``initial_state``.

    Per-unit components are kept every ``checkpoint_stride`` retained
    sweeps; the complete-data log-likelihood is tracked for every retained
    sweep so maximum-likelihood sweep selection does not depend on the
    stride. A chain without frozen atoms also keeps each unit's trajectory
    at those sweeps (the bands). A chain whose state has frozen atoms (a
    frozen-atom rerun) keeps no bands and instead counts, per unit, the
    retained sweeps spent on {each frozen atom, other, null}.
    """
    if n_burn < 0 or n_keep < 1:
        raise DomainError("need n_burn >= 0 and n_keep >= 1")
    if checkpoint_stride < 1:
        raise DomainError("checkpoint stride must be positive")
    if len(panel) == 0:
        raise InvalidInputError("cannot fit an empty panel")
    grid = np.unique(np.concatenate([s.times for s in panel]))
    workspace = prepare_gp_workspace(config.kernel, grid)
    table = step_table(panel, grid=grid)
    n = len(panel)

    state = initial_state if initial_state is not None else init_fdp_state(
        n, config, grid, rng=stream(seed, "joint-chain", "init"), workspace=workspace)
    state.validate()
    rng = stream(seed, "joint-chain", "sweeps")

    for _ in range(n_burn):
        gibbs_sweep_joint(state, table, rng, workspace=workspace)

    n_frozen_flat = state.flat_set.n_frozen
    n_frozen_gp = state.gp_set.n_frozen
    frozen = n_frozen_flat + n_frozen_gp > 0
    labels = tuple(f"flat_{l + 1}" for l in range(n_frozen_flat)) + \
        tuple(f"gp_{l + 1}" for l in range(n_frozen_gp)) + ("other", "null")
    membership = np.zeros((n, len(labels)) if frozen else (0, 0), dtype=np.int64)
    strided = np.arange(0, n_keep, checkpoint_stride)
    band_sweeps = strided[:0] if frozen else strided

    inclusion_counts = np.zeros(n, dtype=np.int64)
    logliks = np.empty(n_keep)
    comp_probs = np.empty((n_keep, 3))
    comp_counts = np.empty((n_keep, 3), dtype=np.int64)
    gamma = np.empty((strided.size, n), dtype=np.int8)
    band_samples = np.empty((band_sweeps.size, n, grid.size), dtype=np.float32)
    best_loglik = -np.inf
    best_sweep = -1

    for t in range(n_keep):
        gibbs_sweep_joint(state, table, rng, workspace=workspace)
        nonnull = state.unit_component != NULL
        inclusion_counts += nonnull
        logliks[t] = complete_data_loglik(state, table)
        if logliks[t] > best_loglik:
            best_loglik, best_sweep, best = logliks[t], t, _best_snapshot(state)
        comp_probs[t] = state.component_probs
        comp_counts[t] = np.bincount(state.unit_component, minlength=3)
        if t % checkpoint_stride == 0:
            k = t // checkpoint_stride
            gamma[k] = state.unit_component
            if not frozen:
                band_samples[k] = _trajectory_matrix(state)
        if frozen:
            bucket = np.full(n, len(labels) - 2, dtype=np.int64)   # "other"
            bucket[~nonnull] = len(labels) - 1                      # "null"
            fz_flat = (state.unit_component == FLAT) & (state.unit_atom < n_frozen_flat)
            bucket[fz_flat] = state.unit_atom[fz_flat]
            fz_gp = (state.unit_component == GP) & (state.unit_atom < n_frozen_gp)
            bucket[fz_gp] = n_frozen_flat + state.unit_atom[fz_gp]
            membership[np.arange(n), bucket] += 1
    if best_sweep < 0:
        raise NumericalError("no retained sweep has a finite complete-data log-likelihood")

    return ChainOutput(
        unit_ids=panel.unit_ids, grid=grid, inclusion=inclusion_counts / n_keep,
        logliks=logliks, n_burn=n_burn, n_keep=n_keep, seed=seed, fingerprint=fingerprint,
        comp_probs=comp_probs, comp_counts=comp_counts, gamma_sweeps=strided, gamma=gamma,
        band_sweeps=band_sweeps, band_samples=band_samples, membership_counts=membership,
        membership_labels=labels, best_sweep=best_sweep, **best, kernel=config.kernel)


def merge_inclusion(chains: list[ChainOutput]) -> np.ndarray:
    """Pooled inclusion probabilities across chains (equal-weight average)."""
    if not chains:
        raise InvalidInputError("no chains to merge")
    ids = chains[0].unit_ids
    for c in chains[1:]:
        if c.unit_ids != ids:
            raise InvalidInputError("chains were fit on different panels")
    return np.mean([c.inclusion for c in chains], axis=0)


# ---------------------------------------------------------------------------
# chain summaries: reports, the maximum-likelihood trajectory set, frozen reruns


@dataclass
class ReportBundle:
    inclusion_header: tuple[str, ...]
    inclusion_rows: list[list]
    band_header: tuple[str, ...]
    band_rows: list[tuple]
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
                for u, p in zip(unit_ids, inclusion.tolist())]
    band_header = ("unit_id", "time", "band_lo", "band_mid", "band_hi")
    band_rows: list[tuple] = []
    if len(chain.band_samples):
        lo, mid, hi = np.quantile(np.asarray(chain.band_samples, dtype=float), BAND_QUANTILES,
                                  axis=0).tolist()
        times = [int(t) for t in chain.grid]
        for u, a, b, c in zip(unit_ids, lo, mid, hi):
            band_rows.extend(zip([u] * len(times), times, a, b, c))
    lines = [f"flagged {int(np.sum(inclusion >= t))} of {len(unit_ids)} units "
             f"at threshold {_fmt(t)}" for t in thresholds]
    return ReportBundle(inc_header, inc_rows, band_header, band_rows, lines)


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
                            tuple(names), tuple(atoms), np.asarray(set_w), chain.grid.copy(),
                            top_k)


def frozen_initial_state(panel: SeriesPanel, frozen: MleTrajectorySet, config: ModelConfig,
                         seed: int) -> tuple[FdpState, tuple[str, ...]]:
    """Prior draw with ``frozen``'s atoms (values and within-set weights) at
    the head of their stick sets, free sticks on the leftover mass and every
    unit null; also the frozen names in membership column order (flat, gp)."""
    grid = np.unique(np.concatenate([s.times for s in panel]))
    if not np.array_equal(grid, frozen.grid):
        raise InvalidInputError("panel time grid differs from the frozen atoms' grid")
    if not frozen.atoms:
        raise InvalidInputError("a frozen rerun needs at least one frozen atom")
    flat_sel = [i for i, a in enumerate(frozen.atoms) if a.kind == "flat"]
    gp_sel = [i for i, a in enumerate(frozen.atoms) if a.kind == "gp"]
    if len(flat_sel) >= config.trunc_flat or len(gp_sel) >= config.trunc_gp:
        raise InvalidInputError("frozen atom count must stay below the truncation level")
    workspace = prepare_gp_workspace(config.kernel, grid)
    init_rng = stream(seed, "frozen-rerun", "init")
    state = init_fdp_state(len(panel), config, grid, rng=init_rng, workspace=workspace)

    for tset, sel in ((state.flat_set, flat_sel), (state.gp_set, gp_sel)):
        k = len(sel)
        if k == 0:
            continue
        head_w = frozen.set_weights[sel]
        if head_w.sum() >= 1.0:
            raise InvalidInputError("frozen atom weights must leave free stick mass")
        if tset.kind == "flat":
            tset.levels[:k] = [frozen.atoms[i].level for i in sel]
        else:
            tset.paths[:k] = np.stack([frozen.atoms[i].path for i in sel])
        tset.sticks = init_rng.beta(1.0, config.traj_concentration, size=tset.truncation - k - 1)
        tset.weights = np.concatenate([head_w, (1.0 - head_w.sum()) * stick_weights(tset.sticks)])
        tset.n_frozen = k
    state.unit_component[:] = NULL
    state.unit_atom[:] = -1
    return state, tuple(frozen.names[i] for i in flat_sel + gp_sel)
