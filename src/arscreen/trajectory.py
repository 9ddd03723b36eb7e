"""Trajectory alternative model and the joint blocked Gibbs sampler.

Every unit carries a latent component indicator: null (trajectory
identically zero), flat (constant level drawn from a DP mixture of
levels), or gp (a smooth path drawn from a functional DP whose atoms are
Gaussian-process draws on the global time grid). Unit observations are
the trajectory restricted to the unit's times plus AR(1) noise whose
(phi, v) law is itself a DP mixture shared across all units.

One sweep updates: (a) each unit's (component, atom) pair from its exact
discrete conditional; (b) component probabilities from a Dirichlet
posterior; (c) flat levels by conjugate normal draws; (d) gp paths by their
exact Gaussian conditionals (a kriging update in precision form, whitened
and stacked over atoms); (e) both trajectory stick sets; (f) the residual
mixture on the de-trended series. Stage (e) is drawn after (f)'s
assignments, with (f)'s sticks in one Beta call; neither update reads the
other. Both categorical draws, (a) and (f)'s assignments, are inverse-CDF
draws (``mcmc.categorical_draw``). Inclusion probabilities are
retained-sweep frequencies of a unit being non-null.
"""

from __future__ import annotations

import copy
import hashlib
import os
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .ar_core import (
    SeriesPanel,
    StepTable,
    _lag_coefficients,
    _loglik_weights,
    _precision_entries,
    lag_stats,
    step_table,
)
# Bound only for the probes in bench/layers.py; not called here (counts read 0).
from .ar_core import ar1_precision, group_whiten, panel_groups  # noqa: F401
from .dp_residual import (
    DpResidualState,
    _assign_residual,
    _update_residual_atoms,
    init_residual_state,
)
from .errors import DomainError, InvalidInputError, NumericalError
from .mcmc import categorical_draw, sample_sticks, stick_weights, stream
from .panel_io import ColumnRows, _fmt
from .parametric import ParametricPrior, flagged_units

NULL, FLAT, GP = 0, 1, 2

DEFAULT_THRESHOLDS = (0.5, 0.9)
BAND_QUANTILES = (0.05, 0.5, 0.95)
# Retained sweeps between the sweeps whose components and bands a chain keeps.
CHECKPOINT_STRIDE = 10

# Kernel eigenvalues kept in the GP prior factor, relative to the kernel variance.
EIGEN_FLOOR = 1e-8


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


@dataclass(eq=False)
class GpWorkspace:
    """Per-chain cache of the grid kernel as a rank-r eigen root: the prior
    covariance the sampler uses is factor @ factor.T."""

    grid: np.ndarray
    kernel: GpKernelParams
    factor: np.ndarray     # (G, r) L = U_r Lambda_r^(1/2) over the kept eigenpairs
    dropped_variance: float     # sum of the dropped eigenvalues (negative ones as 0)
    # The constants of the sweeps over one step table (``_chain_index``).
    chain_index: _ChainIndex | None = field(default=None, init=False, repr=False,
                                            compare=False)

    @property
    def rank(self) -> int:
        return int(self.factor.shape[1])

    @cached_property
    def identity(self) -> np.ndarray:
        return np.eye(self.rank)


def prepare_gp_workspace(kernel: GpKernelParams, grid) -> GpWorkspace:
    """The grid kernel's eigenpairs above ``EIGEN_FLOOR`` times the kernel
    variance, as the G x r factor L. The squared-exponential kernel is
    numerically low-rank (r = 11 of G = 40 at the default length scale), and
    ``eigh`` of a finite symmetric matrix does not fail, so no jitter is
    needed; every posterior factors M = I_r + L'SL >= I (``gp_atom_conditional``)."""
    grid = np.asarray(grid, dtype=np.int64)
    values, vectors = np.linalg.eigh(gp_covariance(kernel, grid))
    keep = values > EIGEN_FLOOR * kernel.variance
    factor = vectors[:, keep] * np.sqrt(values[keep])
    return GpWorkspace(grid, kernel, factor, float(np.maximum(values[~keep], 0.0).sum()))


@dataclass(eq=False)
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


@dataclass(eq=False)
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
class RunConfig:
    """The run configuration: the GP kernel, the AR(1) base prior (also the
    parametric screen's prior), the DP concentrations and truncations, and
    the importance-sampling draws. Building it runs every check of the
    kernel and the prior, which it keeps as ``kernel`` and ``base``. The
    fingerprint of its canonical text keys every output file."""

    kernel_variance: float = GpKernelParams.variance
    kernel_length_scale: float = GpKernelParams.length_scale
    resid_concentration: float = 0.0     # 0 means elicit 10 / ln(n_units)
    traj_concentration: float = 0.0      # 0 means elicit 15 / ln(n_units)
    trunc_resid: int = 60
    trunc_gp: int = 60
    trunc_flat: int = 30
    phi_mean: float = ParametricPrior.phi_mean
    phi_var: float = ParametricPrior.phi_var
    var_shape: float = ParametricPrior.var_shape
    var_scale: float = ParametricPrior.var_scale
    shift_var: float = ParametricPrior.shift_var
    n_draws: int = 5000
    kernel: GpKernelParams = field(init=False, repr=False, compare=False)
    base: ParametricPrior = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("resid_concentration", "traj_concentration"):
            value = getattr(self, name)
            if not (value >= 0.0 and np.isfinite(value)):
                raise DomainError(f"{name} must be finite and nonnegative, got {value}")
        for name in ("trunc_resid", "trunc_gp", "trunc_flat"):
            if getattr(self, name) < 2:
                raise DomainError(f"{name} must be at least 2, got {getattr(self, name)}")
        if self.n_draws < 2:
            raise DomainError(f"n_draws must be at least 2, got {self.n_draws}")
        object.__setattr__(self, "kernel",
                           GpKernelParams(self.kernel_variance, self.kernel_length_scale))
        object.__setattr__(self, "base", ParametricPrior(self.phi_mean, self.phi_var,
                                                         self.var_shape, self.var_scale,
                                                         self.shift_var))

    def canonical(self) -> str:
        pairs = sorted((f.name, getattr(self, f.name)) for f in fields(self) if f.init)
        return "\n".join(f"{k} = {_fmt(v)}" for k, v in pairs)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def concentrations(self, n_units: int) -> tuple[float, float]:
        """The residual and trajectory DP concentrations for a panel of
        ``n_units``; a 0 is elicited as 10 / ln N and 15 / ln N, with N
        below 2 counted as 2."""
        log_n = np.log(max(n_units, 2))
        return (self.resid_concentration or 10.0 / log_n,
                self.traj_concentration or 15.0 / log_n)


@dataclass(eq=False)
class FdpState:
    """Complete sampler state for the joint model."""

    component_probs: np.ndarray       # (3,), on the simplex
    unit_component: np.ndarray        # (N,), values in {NULL, FLAT, GP}
    unit_atom: np.ndarray             # (N,), atom index; -1 for null units
    flat_set: TrajectorySticks
    gp_set: TrajectorySticks
    residual: DpResidualState
    grid: np.ndarray
    traj_concentration: float
    # The GP workspace the state was drawn with; every sweep of the state reads it.
    workspace: GpWorkspace = field(repr=False, compare=False)

    @property
    def n_units(self) -> int:
        return int(self.unit_component.size)

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


def init_fdp_state(n_units: int, config: RunConfig, grid, *,
                   rng: np.random.Generator) -> FdpState:
    """Exact prior draw of the full state, at ``config``'s concentrations
    for ``n_units``, with the GP workspace of ``config``'s kernel on ``grid``."""
    grid = np.asarray(grid, dtype=np.int64)
    workspace = prepare_gp_workspace(config.kernel, grid)
    cp = rng.dirichlet(np.ones(3))
    alpha, nu = config.concentrations(n_units)

    f_sticks = rng.beta(1.0, nu, size=config.trunc_flat - 1)
    f_weights = stick_weights(f_sticks)
    levels = rng.normal(0.0, np.sqrt(config.kernel.variance), size=config.trunc_flat)
    flat_set = TrajectorySticks("flat", f_sticks, f_weights, levels=levels)

    g_sticks = rng.beta(1.0, nu, size=config.trunc_gp - 1)
    g_weights = stick_weights(g_sticks)
    paths = (workspace.factor @ rng.standard_normal((workspace.rank, config.trunc_gp))).T
    gp_set = TrajectorySticks("gp", g_sticks, g_weights, paths=paths)

    unit_component = rng.choice(3, size=n_units, p=cp).astype(np.int8)
    unit_atom = np.full(n_units, -1, dtype=np.int64)
    is_flat = unit_component == FLAT
    is_gp = unit_component == GP
    unit_atom[is_flat] = rng.choice(config.trunc_flat, size=int(is_flat.sum()), p=f_weights)
    unit_atom[is_gp] = rng.choice(config.trunc_gp, size=int(is_gp.sum()), p=g_weights)

    residual = init_residual_state(n_units, alpha, config.base, config.trunc_resid, rng=rng)
    return FdpState(cp, unit_component, unit_atom, flat_set, gp_set, residual,
                    grid, nu, workspace)


def gp_atom_conditional(workspace: GpWorkspace, LSL: np.ndarray,
                        Lb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian conditional of gp paths given their assigned units,
    from L'SL (K, r, r) and L'b (K, r), or one atom's (r, r) and (r,), where
    S = sum P'QP and b = sum P'Qy over an atom's units (P picks the unit's
    times from the grid, Q is its AR(1) noise precision). With the prior
    factor C = L L' (G x r) the path is L u with u ~ N(0, I_r) a priori, so
    the posterior covariance is L M^-1 L', M = I_r + L'SL = R R' (Rasmussen
    & Williams 2006, GPML 3.4). S is a sum of P'QP terms, so it is positive
    semidefinite and M >= I: its Cholesky cannot fail on finite input.
    Returns the mean L M^-1 L'b and R; the covariance is F F' with
    F = L R^-T, and ``_gp_draw`` draws mean + F z.
    """
    R = np.linalg.cholesky(LSL + workspace.identity)
    u = np.linalg.solve(R, Lb[..., None])
    w = np.linalg.solve(np.swapaxes(R, -1, -2), u)[..., 0]
    return w @ workspace.factor.T, R


def _gp_draw(workspace: GpWorkspace, mean: np.ndarray, R: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """Stage (d)'s draw map: mean + L R^-T z per row of (K, r) standard normals."""
    v = np.linalg.solve(np.swapaxes(R, -1, -2), z[..., None])[..., 0]
    return mean + v @ workspace.factor.T


@dataclass(frozen=True, eq=False)
class _UnitNoise:
    """Each unit's AR(1) noise under its current residual atom, computed once
    per sweep: the null log-likelihood and the flat-level terms q_y1 and
    s11 of its data, and its precision Q as the gp terms read it, on the
    grid of G times: the diagonal of Q, Q's entry at each distinct step
    pair, and Q y, side by side in one row per unit. Also every residual
    atom's null log-likelihood weights on the lag statistic columns: stage
    (f) scores the de-trended values with them, as only its own atom step
    moves the atoms."""

    null: np.ndarray    # (N,)
    q_y1: np.ndarray    # (N,)
    s11: np.ndarray     # (N,)
    grid: np.ndarray    # (N, 2G + P): diag | pair | qy
    n_times: int        # G
    atom_loglik: np.ndarray     # (L, 2 + 4D)


def _noise_cells(table: StepTable, n_times: int) -> tuple[np.ndarray, np.ndarray]:
    """Where ``_unit_noise`` scatters ``table``'s entries on a grid of
    ``n_times``: the flat positions in ``_UnitNoise.grid`` of each
    observation's diagonal entry and of each step's pair entry. An
    observation's Q y entry lies G + P places after its diagonal entry."""
    width = 2 * n_times + len(table.pairs)
    return (table.unit * width + table.pos,
            table.step_unit * width + n_times + table.pair)


def _unit_noise(state: FdpState, table: StepTable) -> _UnitNoise:
    """``_UnitNoise`` of every unit in ``table`` (grid positions required).
    Each unit is scored under its own atom only, in O(columns), and
    scattered to the cells the table's ``_chain_index`` holds. Its grid is
    that index's ``noise_grid``, which every sweep rewrites: the result is
    valid until the next sweep of that chain."""
    G = state.grid.size
    index = _chain_index(state, table)
    diag_cells, pair_cells = index.noise_cells
    stick, atom = state.residual.stick, state.residual.assignments
    stats = table.stats
    logdet, q_yy, s11, q_y1 = _lag_coefficients(stick.phi, stick.v, table.sizes)
    atom_loglik = _loglik_weights(logdet, q_yy)
    null = np.einsum("ij,ij->i", stats.terms, atom_loglik[atom])
    s11 = np.einsum("ij,ij->i", stats.terms[:, :s11.shape[1]], s11[atom])
    q_y1 = np.einsum("ij,ij->i", stats.linear, q_y1[atom])
    diag, o = _precision_entries(table, stick.phi, stick.v, atom)
    off = o[table.later]
    # Q y from shifted slices: step i - 1 -> i adds o_i y_(i-1) to entry i,
    # then o_i y_i to entry i - 1, the order the steps' own loop adds them.
    # Masked, a unit's first entry is left as it is (a -0.0 keeps its sign).
    y, joins = table.values, index.joins_prev
    qy = diag * y
    np.add(qy[1:], o[1:] * y[:-1], out=qy[1:], where=joins)
    np.add(qy[:-1], o[1:] * y[1:], out=qy[:-1], where=joins)
    P = len(table.pairs)
    flat = index.noise_grid.ravel()             # scattered into through flat indices
    flat[diag_cells] = diag
    flat[pair_cells] = off
    flat[G + P:][diag_cells] = qy
    return _UnitNoise(null, q_y1, s11, index.noise_grid, G, atom_loglik)


def _pair_stacks(table: StepTable, workspace: GpWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """The prior factor L stacked over its rows at each step pair's earlier
    grid position, and over those at its later one: (G + P, r) each."""
    prev, cur = table.pairs.T
    L = workspace.factor
    return np.vstack([L, L[prev]]), np.vstack([L, L[cur]])


def _gp_atom_terms(noise: _UnitNoise, unit_atom: np.ndarray, atoms: np.ndarray,
                   workspace: GpWorkspace,
                   stacks: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """L'SL (K, r, r) and L'b (K, r) of S = sum P'QP and b = sum P'Qy over the
    units on each gp atom in ``atoms`` (``unit_atom`` is negative off the gp
    component), by one membership product. S is never formed: with its
    diagonal d and its entry o_p at each step pair (prev_p, cur_p),
    L'SL = Y + Y' for Y = sum_g (d_g / 2) L_g' L_g + sum_p o_p L_prev' L_cur
    over the rows of L, in O((G + P) r^2) per atom. Members are checked
    first: in the product 0 * NaN would reach every atom, and the Cholesky
    returns NaN without error. ``stacks`` are the table's ``_pair_stacks``."""
    member = atoms[:, None] == unit_atom
    rows = np.flatnonzero(member.any(axis=0))
    terms = noise.grid[rows]
    bad = rows[~np.isfinite(terms).all(axis=1)]
    if bad.size:
        raise NumericalError(f"gp-path stage (d), atom {unit_atom[bad].min()}: "
                             "non-finite noise precision or data term")
    G = noise.n_times
    sums = member[:, rows] @ terms          # diag | pair | qy
    sums[:, :G] *= 0.5
    left, right = stacks
    Y = np.swapaxes(sums[:, :-G, None] * left, 1, 2) @ right
    return Y + np.swapaxes(Y, 1, 2), sums[:, -G:] @ workspace.factor


@dataclass(frozen=True, eq=False)
class _ChainIndex:
    """What every sweep over one step table's layout reads and none
    changes: the component and atom of each score column, the table's
    ``_noise_cells`` and ``_pair_stacks``, and which observations end a
    step. Also the work buffers each sweep rewrites in full: the
    ``_UnitNoise`` grid, zero off its noise cells; the row-major score
    matrices of stage (a) and of stage (f), which share their memory, since
    (a)'s is used up before (f)'s is filled; and the contiguous blocks in
    which stage (a) forms its flat and then its gp log-likelihoods."""

    layout: tuple[np.ndarray, ...]      # the table's unit, pos, step_unit, pair, pairs
    column_kind: np.ndarray             # (1 + Lf + Lg,) NULL | FLAT... | GP...
    column_atom: np.ndarray             # (1 + Lf + Lg,) -1 | 0..Lf-1 | 0..Lg-1
    noise_cells: tuple[np.ndarray, np.ndarray]
    stacks: tuple[np.ndarray, np.ndarray]
    joins_prev: np.ndarray              # (n_obs - 1,) observation i + 1 ends a step
    noise_grid: np.ndarray              # (N, 2G + P)
    scores: np.ndarray                  # (N, 1 + Lf + Lg)
    resid_scores: np.ndarray            # (N, Lr), on the same memory
    blocks: tuple[np.ndarray, np.ndarray]   # (N, Lf) and (N, Lg), on one memory


def _chain_index(state: FdpState, table: StepTable) -> _ChainIndex:
    """The ``_ChainIndex`` of ``table``, kept on the state's workspace: a
    chain builds it on its first sweep, and every later sweep over a table
    with the same layout arrays finds it there, also over a copy that only
    carries other values. A state's truncations never change."""
    workspace = state.workspace
    index = workspace.chain_index
    layout = (table.unit, table.pos, table.step_unit, table.pair, table.pairs)
    if index is None or any(a is not b for a, b in zip(index.layout, layout)):
        Lf, Lg = state.flat_set.truncation, state.gp_set.truncation
        G, n = state.grid.size, table.n_units
        K, Lr = 1 + Lf + Lg, state.residual.truncation
        joins_prev = table.obs_gap[1:] < len(table.sizes)
        scores, block = np.empty(n * max(K, Lr)), np.empty(n * max(Lf, Lg))
        index = workspace.chain_index = _ChainIndex(
            layout, np.repeat(np.array([NULL, FLAT, GP], dtype=np.int8), [1, Lf, Lg]),
            np.concatenate([[-1], np.arange(Lf), np.arange(Lg)]),
            _noise_cells(table, G), _pair_stacks(table, workspace), joins_prev,
            np.zeros((n, 2 * G + len(table.pairs))),
            scores[:n * K].reshape(n, K), scores[:n * Lr].reshape(n, Lr),
            (block[:n * Lf].reshape(n, Lf), block[:n * Lg].reshape(n, Lg)))
    return index


def _assignment_scores(state: FdpState, table: StepTable, noise: _UnitNoise) -> np.ndarray:
    """Unit-by-component score matrix.

    Columns are [null | flat atoms | gp atoms]; entry = log component prob
    + log atom weight + component log-likelihood under the unit's current
    residual parameters, read from ``noise``. The matrix is the table's
    ``_chain_index`` buffer, filled in place; it is valid until the next
    sweep of that chain.
    """
    index = _chain_index(state, table)
    scores, (flat, gp) = index.scores, index.blocks
    Lf = state.flat_set.truncation
    with np.errstate(divide="ignore"):
        log_cp = np.log(state.component_probs)
        log_wf = np.log(state.flat_set.weights)
        log_wg = np.log(state.gp_set.weights)
    levels, paths = state.flat_set.levels, state.gp_set.paths
    prev, cur = table.pairs.T
    # y'Qf - f'Qf/2 for every gp path f, in one product with the noise rows.
    gp_weights = np.hstack([-0.5 * paths * paths, -paths[:, prev] * paths[:, cur], paths])
    null = noise.null[:, None]
    # Each column block is its log prior row plus its log-likelihoods, which
    # are formed in the contiguous ``blocks`` first (a sum's operands commute
    # bit for bit). The gp block is the product in the noise rows' own roles:
    # with its operands swapped, BLAS rounds some entries otherwise.
    np.add(log_cp[NULL], noise.null, out=scores[:, 0])
    np.multiply(levels, noise.q_y1[:, None], out=flat)
    flat += null
    flat -= 0.5 * noise.s11[:, None] * levels ** 2
    np.add(log_cp[FLAT] + log_wf, flat, out=scores[:, 1:1 + Lf])
    np.matmul(noise.grid, gp_weights.T, out=gp)
    gp += null
    np.add(log_cp[GP] + log_wg, gp, out=scores[:, 1 + Lf:])
    return scores


def _flat_level_posterior(prior_var: float, s11_sum, q_y1_sum):
    """Conjugate normal posterior of a constant level: N(0, prior_var) prior,
    whitened cross terms summed over member units."""
    post_var = 1.0 / (1.0 / prior_var + np.asarray(s11_sum, dtype=float))
    return post_var * np.asarray(q_y1_sum, dtype=float), post_var


def _set_traj_sticks(tset: TrajectorySticks, sticks: np.ndarray, wfree: np.ndarray) -> None:
    """New sticks of the free tail; frozen atoms keep their weights."""
    frozen = tset.weights[:tset.n_frozen]
    tset.sticks = sticks
    tset.weights = np.concatenate([frozen, (1.0 - float(frozen.sum())) * wfree])


def gibbs_sweep_joint(state: FdpState, table: StepTable, rng: np.random.Generator) -> FdpState:
    """One full sweep of the joint sampler over ``table``, a panel's
    ``step_table(panel, grid=state.grid)``; mutates and returns ``state``.
    Burn-in and retained sweeps run this same kernel; stage (f) moves the
    residual atoms by ``dp_residual``'s collapsed step.
    """
    workspace, index = state.workspace, _chain_index(state, table)
    Lf, Lg = state.flat_set.truncation, state.gp_set.truncation

    # (a) joint draw of (component, atom) per unit: a score column per pair
    noise = _unit_noise(state, table)
    pick, top = categorical_draw(_assignment_scores(state, table, noise), rng)
    finite = np.isfinite(top)
    if not finite.all():
        raise NumericalError("assignment stage (a): no finite component score for unit "
                             f"{table.unit_ids[int(np.argmin(finite))]!r}")
    state.unit_component, state.unit_atom = index.column_kind[pick], index.column_atom[pick]
    column_counts = np.bincount(pick, minlength=1 + Lf + Lg)
    flat_counts, gp_counts = column_counts[1:1 + Lf], column_counts[1 + Lf:]

    # (b) component probabilities
    state.component_probs = rng.dirichlet(1.0 + np.add.reduceat(column_counts, [0, 1, 1 + Lf]))

    # (c) flat levels: conjugate normal given members; prior draw when empty
    a_sum = np.bincount(pick, noise.s11, minlength=1 + Lf)[1:1 + Lf]
    b_sum = np.bincount(pick, noise.q_y1, minlength=1 + Lf)[1:1 + Lf]
    post_mean, post_var = _flat_level_posterior(workspace.kernel.variance, a_sum, b_sum)
    start = state.flat_set.n_frozen
    new_levels = post_mean[start:] + np.sqrt(post_var[start:]) * rng.standard_normal(Lf - start)
    if not np.isfinite(new_levels).all():
        raise NumericalError("flat-level stage (c): non-finite conjugate draw")
    state.flat_set.levels[start:] = new_levels

    # (d) gp paths: one stacked conditional over the busy atoms; prior draw when empty
    free = np.arange(state.gp_set.n_frozen, Lg)
    z = rng.standard_normal((free.size, workspace.rank))
    state.gp_set.paths[free] = z @ workspace.factor.T
    busy = free[gp_counts[free] > 0]
    mean, R = gp_atom_conditional(        # pick - (1 + Lf) is negative off gp
        workspace, *_gp_atom_terms(noise, pick - (1 + Lf), busy, workspace, index.stacks))
    state.gp_set.paths[busy] = _gp_draw(workspace, mean, R, z[busy - state.gp_set.n_frozen])

    # (f) residual mixture on de-trended values. Its assignments are drawn
    # under the atoms stage (a) scored, and (e), the trajectory sticks, is
    # drawn with (f)'s sticks in one Beta call: given the counts, each stick
    # set is independent of the residual assignments.
    stats = lag_stats(table, _detrended_values(state, table))
    residual, nu = state.residual, state.traj_concentration
    try:
        ll = np.matmul(stats.terms, noise.atom_loglik.T, out=index.resid_scores)
        resid_counts = _assign_residual(residual, table, ll, rng)
        flat, gp, (residual.stick.sticks, residual.stick.weights) = sample_sticks(
            [flat_counts[start:], gp_counts[free], resid_counts],
            [nu, nu, residual.concentration], rng)
        _set_traj_sticks(state.flat_set, *flat)
        _set_traj_sticks(state.gp_set, *gp)
        _update_residual_atoms(residual, stats, resid_counts, rng)
    except NumericalError as exc:
        raise NumericalError(f"residual stage (f): {exc}") from exc
    return state


def _detrended_values(state: FdpState, table: StepTable) -> np.ndarray:
    """Each observation less its unit's trajectory at its time, gathered
    from the state's ``_trajectory_rows``."""
    rows, unit_row = _trajectory_rows(state)
    return table.values - rows.ravel()[(unit_row * rows.shape[1])[table.unit] + table.pos]


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


@dataclass(eq=False)
class ChainOutput:
    """Everything retained from one MCMC run, one field per ``.npz`` entry.

    Per retained sweep: ``logliks``, ``comp_probs`` and ``comp_counts``
    (units per null/flat/gp). Every ``CHECKPOINT_STRIDE`` retained sweeps
    (``band_sweeps``): its float32 trajectory rows on the grid (the null's
    zero, the flat levels, the gp paths) and each unit's row, which gives
    its component. The ``best_*`` arrays snapshot the state at ``best_sweep``,
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
    band_sweeps: np.ndarray             # (S,)
    band_rows: np.ndarray               # (S, 1 + Lf + Lg, G) float32
    band_unit_row: np.ndarray           # (S, N) int32
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
        return flagged_units(self.unit_ids, self.inclusion, threshold)


# Entries of a schema-2 chain file in the order ``save_chain`` writes them: the
# schema, then one per field, the kernel (the last) as its two parameters.
_CHAIN_KEYS = ("schema",) + tuple(f.name for f in fields(ChainOutput))[:-1] + (
    "kernel_variance", "kernel_length_scale")
# Schema 1 holds each unit's trajectories, ``band_samples`` (S, N, G), in place of
# the two band entries; its ``gamma``, ``gamma_sweeps`` and ``best_loglik`` go unread.
_SCHEMA_1_KEYS = tuple("band_samples" if k == "band_rows" else k for k in _CHAIN_KEYS
                       if k != "band_unit_row")
_SCALAR_KEYS = ("schema", "kernel_variance", "kernel_length_scale") + tuple(
    f.name for f in fields(ChainOutput) if f.type in ("int", "str"))


def save_chain(chain: ChainOutput, path: str) -> None:
    """Persist a chain to ``.npz`` (schema 2), one entry per field."""
    values = {f.name: getattr(chain, f.name) for f in fields(chain)}
    values.update(schema=np.int64(2), kernel_variance=np.float64(chain.kernel.variance),
                  kernel_length_scale=np.float64(chain.kernel.length_scale))
    np.savez(path, **{k: np.asarray(values[k]) for k in _CHAIN_KEYS})


# What zipfile and numpy's .npy reader raise on a damaged archive or member:
# a bad header, CRC or data (BadZipFile, ValueError, OSError); a zip feature
# zipfile does not read (NotImplementedError, and RuntimeError for an
# encrypted member); compressed data cut short (EOFError) or corrupt
# (zlib.error); and a header shape too large to allocate (MemoryError).
_UNREADABLE = (OSError, ValueError, zipfile.BadZipFile, RuntimeError, EOFError, zlib.error,
               MemoryError)


class ChainFile:
    """A chain file's ``.npz`` archive, opened once. ``chain_file[key]``
    reads one entry through zipfile and numpy's own reader, which raise
    what ``np.load`` raises. A missing file, one that is not an archive and
    any failure to read raise ``InvalidInputError`` naming the path (and
    the entry)."""

    def __init__(self, path: str):
        self.path = path
        try:
            self.zip = zipfile.ZipFile(path)
        except _UNREADABLE as exc:
            if not os.path.exists(path):
                raise InvalidInputError(f"chain file not found: {path}") from None
            if not zipfile.is_zipfile(path):
                raise InvalidInputError(f"not a chain file (no .npz archive): {path}") from None
            raise InvalidInputError(f"unreadable chain file {path}: {exc}") from exc

    def __enter__(self) -> "ChainFile":
        return self

    def __exit__(self, *exc) -> None:
        self.zip.close()

    def __contains__(self, key: str) -> bool:
        return key in self.zip.NameToInfo or f"{key}.npy" in self.zip.NameToInfo

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self:
            raise InvalidInputError(f"chain file {self.path} lacks entry {key!r}")
        info = self.zip.getinfo(key if key in self.zip.NameToInfo else f"{key}.npy")
        try:
            with self.zip.open(info) as fh:
                return np.lib.format.read_array(fh, allow_pickle=False)
        except _UNREADABLE as exc:
            raise InvalidInputError(
                f"unreadable chain file {self.path}: entry {key!r}: {exc}") from exc


def _converted(path: str, key: str, convert, array: np.ndarray):
    """``convert(array)`` for chain entry ``key``; a failure raises
    ``InvalidInputError`` naming the path and the entry."""
    try:
        return convert(array)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"unreadable chain file {path}: entry {key!r}: {exc}") from exc


def load_chain(path: str) -> ChainOutput:
    """Read a chain written by ``save_chain``, or a schema-1 chain (each unit
    its own row of ``band_samples``); a missing or malformed file raises
    ``InvalidInputError`` naming the path (and the offending entry). The
    archive is opened once (``ChainFile``), each entry read once, scalars first."""
    with ChainFile(path) as z:
        entries = {}
        for k in _SCALAR_KEYS:
            if k in z:
                entries[k] = z[k]
                if entries[k].shape != ():
                    raise InvalidInputError(f"chain file {path}: entry {k!r} is not a scalar")
        schema = _converted(path, "schema", int, entries["schema"]) if "schema" in entries else 1
        if schema not in (1, 2):
            raise InvalidInputError(f"unsupported chain schema {schema} in {path}")
        keys = _CHAIN_KEYS if schema == 2 else _SCHEMA_1_KEYS
        missing = [k for k in keys if k not in z]
        if missing:
            raise InvalidInputError(f"chain file {path} lacks entry {missing[0]!r}")
        entries.update((k, z[k]) for k in keys if k not in entries)
    cast = {"int": int, "str": str, "tuple[str, ...]": lambda a: tuple(map(str, a))}
    values = {f.name: _converted(path, f.name, cast.get(f.type, np.asarray), entries[f.name])
              for f in fields(ChainOutput) if f.name in entries}
    n, S = len(values["unit_ids"]), values["band_sweeps"].size
    if schema == 1:
        values.update(band_rows=entries["band_samples"],
                      band_unit_row=np.tile(np.arange(n, dtype=np.int32), (S, 1)))
    kernel = GpKernelParams(*(_converted(path, k, float, entries[k])
                              for k in ("kernel_variance", "kernel_length_scale")))
    chain = ChainOutput(**values, kernel=kernel)
    k, G = chain.n_keep, chain.grid.size
    lf, lg = chain.best_flat_weights.size, chain.best_gp_weights.size
    n_rows = n if schema == 1 else 1 + lf + lg
    shapes = {"inclusion": (n,), "logliks": (k,), "comp_probs": (k, 3), "comp_counts": (k, 3),
              "grid": (G,), "band_sweeps": (S,), "band_rows": (S, n_rows, G), "band_unit_row": (S, n),
              "best_component_probs": (3,), "best_flat_weights": (lf,), "best_flat_levels": (lf,),
              "best_gp_weights": (lg,), "best_gp_paths": (lg, G),
              "best_unit_component": (n,), "best_unit_atom": (n,)}
    for name, want in shapes.items():
        if getattr(chain, name).shape != want:
            raise InvalidInputError(f"chain file {path}: entry {name!r} has shape "
                                    f"{getattr(chain, name).shape}, expected {want}")
    if not S:
        raise InvalidInputError(f"chain file {path}: entry 'band_sweeps' is empty")
    row = chain.band_unit_row
    if row.dtype.kind not in "iu" or row.size and not 0 <= row.min() <= row.max() < n_rows:
        raise InvalidInputError(f"chain file {path}: entry 'band_unit_row' is not an integer "
                                f"array of rows in [0, {n_rows})")
    if not 0 <= chain.best_sweep < k:
        raise InvalidInputError(f"chain file {path}: entry 'best_sweep' is not one of {k} sweeps")
    return chain


def load_inclusion(path: str) -> SimpleNamespace:
    """The ``unit_ids`` and ``inclusion`` of a chain file, all that
    ``merge_inclusion`` reads; no other entry is read."""
    with ChainFile(path) as z:
        return SimpleNamespace(unit_ids=tuple(map(str, z["unit_ids"])), inclusion=z["inclusion"])


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


def _unit_rows(state: FdpState) -> np.ndarray:
    """Each unit's row of ``_trajectory_rows``. A null unit's atom is -1,
    so its row is 0."""
    return state.unit_atom + 1 + state.flat_set.truncation * (state.unit_component == GP)


def _trajectory_rows(state: FdpState) -> tuple[np.ndarray, np.ndarray]:
    """Every trajectory of the state on the grid, one row each: zero (the
    null), each flat level, each gp path; and each unit's row."""
    Lf = state.flat_set.truncation
    rows = np.empty((1 + Lf + state.gp_set.truncation, state.grid.size))
    rows[0] = 0.0
    rows[1:1 + Lf] = state.flat_set.levels[:, None]
    rows[1 + Lf:] = state.gp_set.paths
    return rows, _unit_rows(state)


def run_chain(panel: SeriesPanel, config: RunConfig, n_burn: int, n_keep: int, seed: int) -> ChainOutput:
    """Burn-in plus retained sweeps of the joint sampler from a prior draw.

    The trajectory rows and each unit's row (the bands) are kept every
    ``CHECKPOINT_STRIDE`` retained sweeps; the complete-data log-likelihood
    is tracked for every retained sweep so maximum-likelihood sweep
    selection does not depend on the stride. The chain carries ``config.fingerprint()``.
    """
    if n_burn < 0 or n_keep < 1:
        raise DomainError("need n_burn >= 0 and n_keep >= 1")
    if len(panel) == 0:
        raise InvalidInputError("cannot fit an empty panel")
    grid, n = panel.grid, len(panel)
    state = init_fdp_state(n, config, grid, rng=stream(seed, "joint-chain", "init"))
    table = step_table(panel, grid=grid)
    rng = stream(seed, "joint-chain", "sweeps")

    for _ in range(n_burn):
        gibbs_sweep_joint(state, table, rng)

    strided = np.arange(0, n_keep, CHECKPOINT_STRIDE)
    inclusion_counts = np.zeros(n, dtype=np.int64)
    logliks = np.empty(n_keep)
    comp_probs = np.empty((n_keep, 3))
    comp_counts = np.empty((n_keep, 3), dtype=np.int64)
    band_rows = np.empty((strided.size, 1 + config.trunc_flat + config.trunc_gp, grid.size),
                         dtype=np.float32)
    band_unit_row = np.empty((strided.size, n), dtype=np.int32)
    best_sweep = -1

    for t in range(n_keep):
        gibbs_sweep_joint(state, table, rng)
        inclusion_counts += state.unit_component != NULL
        logliks[t] = complete_data_loglik(state, table)
        if logliks[t] > (logliks[best_sweep] if best_sweep >= 0 else -np.inf):
            best_sweep, best = t, _best_snapshot(state)
        comp_probs[t] = state.component_probs
        comp_counts[t] = np.bincount(state.unit_component, minlength=3)
        if t % CHECKPOINT_STRIDE == 0:
            k = t // CHECKPOINT_STRIDE
            band_rows[k], band_unit_row[k] = _trajectory_rows(state)
    if best_sweep < 0:
        raise NumericalError("no retained sweep has a finite complete-data log-likelihood")

    return ChainOutput(
        unit_ids=panel.unit_ids, grid=grid, inclusion=inclusion_counts / n_keep,
        logliks=logliks, n_burn=n_burn, n_keep=n_keep, seed=seed, fingerprint=config.fingerprint(),
        comp_probs=comp_probs, comp_counts=comp_counts, band_sweeps=strided, band_rows=band_rows,
        band_unit_row=band_unit_row, best_sweep=best_sweep, **best,
        kernel=config.kernel)


def merge_inclusion(chains: list[ChainOutput]) -> np.ndarray:
    """Pooled inclusion probabilities across chains (equal-weight average);
    reads only each chain's ``unit_ids`` and ``inclusion``."""
    if not chains:
        raise InvalidInputError("no chains to merge")
    ids = chains[0].unit_ids
    for c in chains[1:]:
        if c.unit_ids != ids:
            raise InvalidInputError("chains were fit on different panels")
    return np.mean([c.inclusion for c in chains], axis=0)


# ---------------------------------------------------------------------------
# chain summaries: reports, the maximum-likelihood trajectory set, frozen reruns


BAND_HEADER = ("unit_id", "time", "band_lo", "band_mid", "band_hi")


@dataclass
class ReportBundle:
    inclusion_header: tuple[str, ...]
    inclusion_rows: ColumnRows
    summary_lines: list[str]


# The most (sweep, unit, time) cells ``band_table`` hands ``band_quantiles``
# at once, so the float64 copy it partitions is one block's, not the chain's.
_BAND_BLOCK_ENTRIES = 1 << 22


def band_quantiles(samples: np.ndarray) -> np.ndarray:
    """``np.quantile(samples, BAND_QUANTILES, axis=0)`` bit for bit: numpy's
    steps for the linear method (a partition at the two ranks around each
    virtual index (n - 1) q, then its two-sided interpolation, and NaN where
    a column holds one), with the partition's ranks listed in Python rather
    than by the ``np.unique`` that loads ``numpy.ma``. It partitions one
    float64 copy of ``samples`` in place, where ``np.quantile`` makes two."""
    arr = np.array(samples, dtype=float, order="C")
    n = arr.shape[0]
    virtual = (n - 1) * np.asarray(BAND_QUANTILES)
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= n - 1
    prev[top] = nxt[top] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    arr.partition(sorted({0, -1, *prev.tolist(), *nxt.tolist()}), axis=0)
    gamma = (virtual - prev).reshape((-1,) + (1,) * (arr.ndim - 1))
    lower, upper = arr[prev], arr[nxt]
    diff = upper - lower
    out = np.add(lower, diff * gamma)
    np.subtract(upper, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    has_nan = np.isnan(arr[-1])
    if has_nan.any():
        np.copyto(out, arr[-1], where=has_nan)
    return out


def band_table(chain: ChainOutput) -> ColumnRows:
    """Plot-ready trajectory bands, one row per unit and grid time
    (``BAND_HEADER``): the ``BAND_QUANTILES`` of the unit's saved
    trajectories at that time, each quantile a float64 column. Quantiles
    are per (unit, time), so one block of units at a time is gathered from
    ``band_rows`` and copied to float64."""
    unit_row = chain.band_unit_row
    (n_saved, n), G = unit_row.shape, chain.grid.size
    sweeps = np.arange(n_saved)[:, None]
    cols = np.empty((len(BAND_QUANTILES), n, G))
    block = max(1, _BAND_BLOCK_ENTRIES // (n_saved * G or 1))
    for i in range(0, n, block):
        cols[:, i:i + block] = band_quantiles(chain.band_rows[sweeps, unit_row[:, i:i + block]])
    lo, mid, hi = cols.reshape(len(BAND_QUANTILES), -1)
    ids = np.repeat(np.array(chain.unit_ids, dtype=object), G).tolist()
    return ColumnRows(ids, np.tile(chain.grid, n), lo, mid, hi)


def report_summaries(chain: ChainOutput,
                     thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS) -> ReportBundle:
    """Inclusion table with flag columns and one discovery-count line per
    threshold; reads only the chain's ``unit_ids`` and ``inclusion``."""
    for t in thresholds:
        if not (0.0 < t <= 1.0):
            raise DomainError(f"thresholds must lie in (0, 1], got {t}")
    unit_ids = chain.unit_ids
    inclusion = np.asarray(chain.inclusion)
    inc_header = ("unit_id", "inclusion") + tuple(f"flagged_at_{_fmt(t)}" for t in thresholds)
    flags = [(inclusion >= t).astype(np.int64) for t in thresholds]
    lines = [f"flagged {int(f.sum())} of {len(unit_ids)} units at threshold {_fmt(t)}"
             for f, t in zip(flags, thresholds)]
    return ReportBundle(inc_header, ColumnRows(unit_ids, inclusion, *flags), lines)


@dataclass(eq=False)
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
    alt_mass = float(cp[FLAT] + cp[GP])
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


def frozen_cluster_rerun(panel: SeriesPanel, frozen: MleTrajectorySet, config: RunConfig,
                         seed: int, n_burn: int, n_keep: int
                         ) -> tuple[tuple[str, ...], np.ndarray, str]:
    """Cluster memberships of the panel's units with ``frozen``'s atoms held
    fixed: their values and within-set weights head their stick sets, and
    free atoms fill the remaining truncation slots and the leftover stick
    mass. From a prior draw with every unit null, ``n_burn`` sweeps run,
    then ``n_keep`` retained ones, each binning every unit into {each
    frozen atom, other, null}.

    Returns the frozen atoms' names in column order (flat, then gp), each
    unit's percent of retained sweeps per column (rows sum to 100), and the
    frozen atoms' digest, checked unchanged after the run.
    """
    if n_burn < 0 or n_keep < 1:
        raise DomainError("need n_burn >= 0 and n_keep >= 1")
    if len(panel) == 0:
        raise InvalidInputError("cannot fit an empty panel")
    grid, n = panel.grid, len(panel)
    if not np.array_equal(grid, frozen.grid):
        raise InvalidInputError("panel time grid differs from the frozen atoms' grid")
    if not frozen.atoms:
        raise InvalidInputError("a frozen rerun needs at least one frozen atom")
    flat_sel = [i for i, a in enumerate(frozen.atoms) if a.kind == "flat"]
    gp_sel = [i for i, a in enumerate(frozen.atoms) if a.kind == "gp"]
    if len(flat_sel) >= config.trunc_flat or len(gp_sel) >= config.trunc_gp:
        raise InvalidInputError("frozen atom count must stay below the truncation level")
    init_rng = stream(seed, "frozen-rerun", "init")
    state = init_fdp_state(n, config, grid, rng=init_rng)
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
        tset.sticks = init_rng.beta(1.0, state.traj_concentration, size=tset.truncation - k - 1)
        tset.weights = np.concatenate([head_w, (1.0 - head_w.sum()) * stick_weights(tset.sticks)])
        tset.n_frozen = k
    state.unit_component[:] = NULL
    state.unit_atom[:] = -1
    state.validate()
    digest = state.frozen_digest()

    # The membership column of each trajectory row (``_trajectory_rows``):
    # the null's, each frozen atom's own, and "other" for every free atom.
    n_flat, n_frozen, Lf = len(flat_sel), len(frozen.atoms), state.flat_set.truncation
    column = np.full(1 + Lf + state.gp_set.truncation, n_frozen)
    column[0] = n_frozen + 1
    column[1:1 + n_flat] = np.arange(n_flat)
    column[1 + Lf:1 + Lf + n_frozen - n_flat] = np.arange(n_flat, n_frozen)
    counts = np.zeros((n, n_frozen + 2), dtype=np.int64)
    table = step_table(panel, grid=grid)
    rng = stream(seed, "joint-chain", "sweeps")
    for t in range(n_burn + n_keep):
        gibbs_sweep_joint(state, table, rng)
        if t >= n_burn:
            counts[np.arange(n), column[_unit_rows(state)]] += 1
    if state.frozen_digest() != digest:
        raise NumericalError("frozen atoms were mutated during the re-run")
    names = tuple(frozen.names[i] for i in flat_sel + gp_sel)
    return names, counts * (100.0 / n_keep), digest
