"""Parametric screen: importance sampling under a homogeneous AR(1) null.

All units share one AR(1) parameter pair (phi, v); each unit independently
carries a constant mean shift with unknown prevalence p. The joint
posterior over (phi, v, p) is explored by importance sampling: a Laplace
approximation in the transformed space (atanh phi, log v, logit p) supplies
a multivariate Student-t proposal, and self-normalized importance weights
correct it. Per-unit inclusion probabilities average the two-point
posterior odds over the weighted draws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ar_core import (
    LagStats,
    SeriesPanel,
    _lag_coefficient_slopes,
    _lag_coefficients,
    log_shift_bayes_factor,
)
# Bound only for the probes in bench/layers.py; not called here (counts read 0).
from .ar_core import group_gaussian_parts, panel_groups  # noqa: F401
from .errors import DomainError, InvalidInputError, ModeSearchError, NumericalError
from .mcmc import normalized_weights_and_ess, stream

# Importance-sampling health thresholds.
ESS_WARN_FRACTION = 0.01
ESS_DEGENERATE = 10.0
PROPOSAL_DF = 5.0
# Points of the logit-scale grid on which the mixing-fraction density is evaluated.
_MODE_GRID = 512


def ndtr(x: float) -> float:
    """Standard normal CDF of a scalar."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def expit(x):
    """1 / (1 + exp(-x)) elementwise, from exp(-|x|) so that nothing overflows."""
    e = np.exp(-np.abs(x))
    return np.where(np.asarray(x) >= 0.0, 1.0, e) / (1.0 + e)


def logit(p):
    """log(p / (1 - p)) elementwise; -inf at p = 0 and +inf at p = 1."""
    with np.errstate(divide="ignore"):
        return np.log(p / (1.0 - np.asarray(p)))


@dataclass(frozen=True)
class ParametricPrior:
    """Priors for the homogeneous model.

    phi has a normal prior truncated to (-1, 1), v an inverse-gamma prior,
    the prevalence p a uniform prior on (0, 1), and the mean shift of a
    nonnull unit is N(0, shift_var).
    """

    phi_mean: float = 0.5
    phi_var: float = 0.0625
    var_shape: float = 2.0
    var_scale: float = 1.0
    shift_var: float = 1.0

    def __post_init__(self):
        if not (-1.0 < self.phi_mean < 1.0):
            raise DomainError(f"phi prior mean must lie in (-1, 1), got {self.phi_mean}")
        for name in ("phi_var", "var_shape", "var_scale", "shift_var"):
            val = getattr(self, name)
            if not (val > 0.0 and np.isfinite(val)):
                raise DomainError(f"{name} must be positive and finite, got {val}")

    def sample_phi_v(self, rng: np.random.Generator, size: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Draw (phi, v) pairs from the prior (truncated normal x inverse gamma)."""
        sd = np.sqrt(self.phi_var)
        phi = rng.normal(self.phi_mean, sd, size=size)
        bad = (phi <= -1.0) | (phi >= 1.0)
        while bad.any():
            phi[bad] = rng.normal(self.phi_mean, sd, size=int(bad.sum()))
            bad = (phi <= -1.0) | (phi >= 1.0)
        v = self.var_scale / rng.gamma(self.var_shape, size=size)
        return phi, v

    @cached_property
    def _log_density_constants(self) -> tuple[float, float, float]:
        """The parts of ``log_density_phi_v`` that depend on the prior alone:
        the normal's log normalizer, the log mass of (-1, 1) under it, and
        the inverse gamma's log normalizer."""
        sd = np.sqrt(self.phi_var)
        trunc = ndtr((1.0 - self.phi_mean) / sd) - ndtr((-1.0 - self.phi_mean) / sd)
        a, b = self.var_shape, self.var_scale
        return (-0.5 * np.log(2.0 * np.pi * self.phi_var), np.log(trunc),
                a * np.log(b) - math.lgamma(a))

    def log_density_phi_v(self, phi, v):
        """Log prior density of (phi, v), elementwise over scalars or arrays;
        -inf outside the domain, a Python-float v = 0.0 included."""
        log_norm_phi, log_trunc, log_norm_v = self._log_density_constants
        a, b = self.var_shape, self.var_scale
        with np.errstate(divide="ignore", invalid="ignore"):
            lp_phi = log_norm_phi - 0.5 * (phi - self.phi_mean) ** 2 / self.phi_var - log_trunc
            lp_v = log_norm_v - (a + 1.0) * np.log(v) - b / np.asarray(v)
        return np.where((-1.0 < phi) & (phi < 1.0) & (v > 0.0), lp_phi + lp_v, -np.inf)


@dataclass(frozen=True)
class PosteriorMode:
    """Where a mode search stopped: x = (atanh phi, log v, logit p), the
    target and its Hessian there, the Newton steps taken, and max |gradient|."""

    x: np.ndarray
    log_target: float
    hessian: np.ndarray
    iterations: int
    max_grad: float

    @property
    def phi_v_p(self) -> tuple[float, float, float]:
        return float(np.tanh(self.x[0])), float(np.exp(self.x[1])), float(expit(self.x[2]))


@dataclass
class WeightedDraws:
    """Importance sample of (phi, v, p) with unnormalized log-weights."""

    draws: np.ndarray            # shape (K, 3), columns phi, v, p
    log_weights: np.ndarray      # shape (K,)
    ess: float
    seed: int
    messages: tuple[str, ...] = ()
    mode: PosteriorMode | None = None      # the proposal's centre, when built here

    @property
    def n_draws(self) -> int:
        return int(self.draws.shape[0])

    @property
    def normalized_weights(self) -> np.ndarray:
        w, _ = normalized_weights_and_ess(self.log_weights)
        return w


@dataclass
class InclusionSummary:
    """Per-unit posterior inclusion probabilities with Monte Carlo error."""

    unit_ids: tuple[str, ...]
    probability: np.ndarray
    mc_stderr: np.ndarray

    def flagged(self, threshold: float) -> tuple[str, ...]:
        return flagged_units(self.unit_ids, self.probability, threshold)


def flagged_units(unit_ids, inclusion, threshold: float) -> tuple[str, ...]:
    """Unit ids whose inclusion probability meets a threshold in (0, 1]; the
    flag rule of both screens."""
    if not (0.0 < threshold <= 1.0):
        raise DomainError(f"flag threshold must lie in (0, 1], got {threshold}")
    return tuple(u for u, keep in zip(unit_ids, np.asarray(inclusion) >= threshold) if keep)


_PENALTY = -1.0e300
# (units x draws) entries scored at once: memory stays flat in the number of draws.
_BLOCK_ENTRIES = 2 ** 14


def _blocks(n_units: int, n_draws: int):
    """Slices of draws that hold about ``_BLOCK_ENTRIES`` (unit, draw) entries each."""
    step = max(1, _BLOCK_ENTRIES // max(n_units, 1))
    return (slice(k, k + step) for k in range(0, n_draws, step))


def _log_target(stats: LagStats, prior: ParametricPrior, xs: np.ndarray) -> np.ndarray:
    """Joint log posterior at each row x = (atanh phi, log v, logit p) of ``xs``,
    Jacobian included, with ``_PENALTY`` wherever it is not finite.

    Each unit's likelihood is the two-point mixture (1 - p) null + p alt,
    whose log is null + log(1 - p) + softplus(z) with z = logit p + logbf.
    The nulls sum to the null of the pooled row ``stats.total``, O(D) per
    row of ``xs``; per unit, only the mean-shift parts q_y1 and s11 and
    softplus(z) remain, scored for a block of rows at once.
    """
    xs = np.atleast_2d(xs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi, v, p = np.tanh(xs[:, 0]), np.exp(xs[:, 1]), expit(xs[:, 2])
        log_jac = np.log1p(-phi * phi) + np.log(v) + np.log(p) + np.log1p(-p)
        lp = prior.log_density_phi_v(phi, v) + log_jac
    # log_jac is finite exactly where |phi| < 1, 0 < v < inf and 0 < p < 1.
    keep = np.flatnonzero(np.isfinite(lp))
    total = np.full(len(xs), _PENALTY)
    n_units = len(stats.terms)
    total[keep] = stats.total.loglik(phi[keep], v[keep])[0] + n_units * np.log1p(-p[keep]) + lp[keep]
    for rows in _blocks(n_units, keep.size):
        k = keep[rows]
        z = xs[k, 2] + log_shift_bayes_factor(*stats.shift_parts(phi[k], v[k]), prior.shift_var)
        # softplus(z) = max(z, 0) + log1p(exp(-|z|)): np.logaddexp(0, z) takes 4x as long
        total[k] += np.sum(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))), axis=0)
    return np.where(np.isfinite(total), total, _PENALTY)


def _unit_sums(cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights @ cols.T``: for M rows of ``weights`` and N rows of ``cols``,
    the (M, N) weighted sums of each row of ``cols``, added column by column
    elementwise, so that a row of ``weights`` gives the same bits in any
    stack (a matrix product may round differently with the stack's height)."""
    out = weights[:, :1] * cols[:, 0]
    for k in range(1, cols.shape[1]):
        out += weights[:, k:k + 1] * cols[:, k]
    return out


def _grad_log_target(stats: LagStats, prior: ParametricPrior, xs: np.ndarray) -> np.ndarray:
    """Gradient of ``_log_target`` at each row x = (atanh phi, log v, logit p) of
    ``xs``, in O(N D) per row; a single x gives a single gradient.

    The null enters through the pooled row ``stats.total``, whose Gaussian
    parts are linear in its statistics. Each unit enters through logbf,
    which its inclusion odds r = expit(logit p + logbf) weight in the
    mixture, and logbf reads the unit's q_y1 and s11. So the phi slope
    takes the statistics times ``_lag_coefficient_slopes``; in log v every
    weight but logdet's flips sign; the logit-p slope is sum (r - p). Every
    sum runs along one row of its own (no matrix product), so a point's
    gradient is the same bits alone or in any stack; meant for a few points
    at once, as it holds (points, units, columns) arrays.
    """
    xs = np.asarray(xs, dtype=float)
    x = np.atleast_2d(xs)
    phi, v, p = np.tanh(x[:, 0]), np.exp(x[:, 1]), expit(x[:, 2])
    c = prior.shift_var
    k = 1 + len(stats.sizes)
    counts, total = stats.terms[:, :k], stats.total.terms[0]
    _, w_qyy, w_s11, w_qy1 = _lag_coefficients(phi, v, stats.sizes)
    d_logdet, d_qyy, d_s11, d_qy1 = _lag_coefficient_slopes(phi, v, stats.sizes)
    q_y1, s11 = _unit_sums(stats.linear, w_qy1), _unit_sums(counts, w_s11)
    den = 1.0 + c * s11
    r = expit(x[:, 2:] + log_shift_bayes_factor(q_y1, s11, c))
    # r times the partial derivatives of logbf in s11 and in q_y1
    r_s11 = r * (-0.5 * c / den - 0.5 * np.square(c * q_y1 / den))
    r_q = r * c * q_y1 / den
    slopes = r_s11 * _unit_sums(counts, d_s11) + r_q * _unit_sums(stats.linear, d_qy1)
    g_phi = (np.sum(slopes, axis=-1)
             - 0.5 * np.sum(total * np.concatenate([d_logdet, d_qyy], axis=-1), axis=-1)
             - (phi - prior.phi_mean) / prior.phi_var * (1.0 - phi * phi) - 2.0 * phi)
    g_v = (-0.5 * (total[:k].sum() - np.sum(total[k:] * w_qyy, axis=-1))
           - np.sum(r_s11 * s11 + r_q * q_y1, axis=-1) - prior.var_shape + prior.var_scale / v)
    g_p = np.sum(r - p[:, None], axis=-1) + 1.0 - 2.0 * p
    g = np.stack([g_phi, g_v, g_p], axis=-1)
    return g.reshape(xs.shape)


def _derivatives(stats: LagStats, prior: ParametricPrior, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of ``_log_target`` at x and its symmetrized Hessian by central
    differences of the gradient (Nocedal & Wright 2006, §8.1), from one
    ``_grad_log_target`` call on the stencil x, x + h e_i, x - h e_i."""
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    g = _grad_log_target(stats, prior, np.vstack([x, x + np.diag(h), x - np.diag(h)]))
    H = (g[1:1 + x.size] - g[1 + x.size:]) / (2.0 * h[:, None])
    return g[0], 0.5 * (H + H.T)


_GRAD_TOL = 1e-6
_MAX_NEWTON = 100


def _newton_ascent(stats: LagStats, prior: ParametricPrior, x: np.ndarray) -> PosteriorMode:
    """Damped Newton ascent of ``_log_target`` from x (Nocedal & Wright 2006, §3.4).

    The curvature goes through ``_proposal_shape``'s eigenvalue floor, so
    every step rises. The step halves until the target rises by 1e-4 of
    the step's predicted rise (Armijo). A predicted rise below the target's
    rounding error, about N ulps of the target over N units (Higham 2002,
    §4.2), cannot be told from noise: such a step is taken once it halves
    max |gradient| instead, probed by a single gradient. Stops when
    max |gradient| < 1e-6, when no step makes progress, or at a non-finite
    gradient or curvature. The start and each accepted iterate take their
    gradient and curvature from one ``_derivatives`` call.
    """
    f = _log_target(stats, prior, x)[0]
    g, H = _derivatives(stats, prior, x)
    it = 0
    while it < _MAX_NEWTON and np.all(np.isfinite(g)) and np.max(np.abs(g)) >= _GRAD_TOL:
        if not np.all(np.isfinite(H)):
            break
        step = _proposal_shape(-H) @ g
        noise = len(stats.terms) * np.spacing(abs(f))
        t = 1.0
        while t > 1e-10:
            x_new = x + t * step
            f_new = _log_target(stats, prior, x_new)[0]
            rise = t * float(g @ step)
            if f_new >= f + 1e-4 * rise:
                break
            if rise <= noise and f_new > _PENALTY:
                g_new = _grad_log_target(stats, prior, x_new)      # a single-point probe
                if np.max(np.abs(g_new)) <= 0.5 * np.max(np.abs(g)):
                    break
            t *= 0.5
        else:
            break
        x, f = x_new, f_new
        g, H = _derivatives(stats, prior, x)
        it += 1
    return PosteriorMode(x, f, H, it, float(np.max(np.abs(g))))


def _proposal_shape(H: np.ndarray) -> np.ndarray:
    """Inverse of the curvature matrix with an eigenvalue floor for safety."""
    H = 0.5 * (H + H.T)
    w, V = np.linalg.eigh(H)
    floor = 1e-8 * max(float(w.max()), 1.0)
    w = np.maximum(w, floor)
    return (V / w) @ V.T


def _t_proposal(loc: np.ndarray, shape: np.ndarray, df: float, n: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` draws from the multivariate Student-t with location ``loc``,
    positive definite ``shape`` and ``df`` degrees of freedom, and the log
    density at each.

    A draw is loc + z / sqrt(w) with w ~ chi2(df) / df and z ~ N(0, shape)
    (Hofert 2013, *The R Journal*), the two taken from ``rng`` in that
    order. The density whitens x - loc with the eigenvectors of ``shape``.
    """
    dim = loc.size
    s, u = np.linalg.eigh(shape)
    w = rng.chisquare(df, size=n) / df
    z = rng.multivariate_normal(np.zeros(dim), shape, size=n)
    xs = loc + z / np.sqrt(w)[:, None]
    maha = np.square(np.dot(xs - loc, u * np.sqrt(1.0 / s))).sum(axis=-1)
    t = 0.5 * (df + dim)
    log_q = (math.lgamma(t) - math.lgamma(0.5 * df) - dim / 2.0 * np.log(df * np.pi)
             - 0.5 * np.sum(np.log(s)) - t * np.log(1 + (1.0 / df) * maha))
    return xs, log_q


def _require_fittable(panel: SeriesPanel) -> None:
    if len(panel) == 0:
        raise InvalidInputError("cannot fit an empty panel")
    for s in panel:
        if len(s) < 2:
            raise InvalidInputError(
                f"unit {s.unit_id!r} has a single observation; model fitting needs length >= 2"
            )


def build_importance_sampler(panel: SeriesPanel, prior: ParametricPrior,
                             n_draws: int, seed: int = 0) -> WeightedDraws:
    """Importance sample of the (phi, v, p) posterior for a panel.

    Finds the posterior mode in transformed space by damped Newton ascent
    on the analytic gradient from two starts, builds a multivariate
    Student-t proposal (df 5) from the curvature there, and returns weighted
    draws in the original parameterization. Warns when the effective sample
    size falls below 1% of n_draws; when no start reaches max |gradient|
    < 1e-6, raises ModeSearchError with the last iterate.
    """
    if n_draws < 2:
        raise DomainError(f"need at least 2 importance draws, got {n_draws}")
    _require_fittable(panel)
    stats = panel.stats

    starts = [
        np.array([np.arctanh(prior.phi_mean), 0.0, logit(0.1)]),
        np.array([np.arctanh(prior.phi_mean), 0.0, logit(0.5)]),
    ]
    mode = last = None
    for x0 in starts:
        last = _newton_ascent(stats, prior, x0)
        if last.max_grad < _GRAD_TOL and (mode is None or last.log_target > mode.log_target):
            mode = last
    if mode is None:
        raise ModeSearchError(f"posterior mode search did not converge: max |gradient| "
                              f"{last.max_grad:.3g} at x = {last.x.tolist()}", last_iterate=last.x)

    xs, log_q = _t_proposal(mode.x, _proposal_shape(-mode.hessian), PROPOSAL_DF, n_draws,
                            stream(seed, "parametric-proposal"))
    log_w = _log_target(stats, prior, xs) - log_q

    _, ess = normalized_weights_and_ess(log_w)
    messages = []
    if ess < ESS_WARN_FRACTION * n_draws:
        msg = (f"importance sample is degenerate: ESS {ess:.1f} of {n_draws} draws; "
               "estimates may be unreliable")
        warnings.warn(msg)
        messages.append(msg)

    draws = np.column_stack([np.tanh(xs[:, 0]), np.exp(xs[:, 1]), expit(xs[:, 2])])
    return WeightedDraws(draws=draws, log_weights=log_w, ess=ess, seed=seed,
                         messages=tuple(messages), mode=mode)


def inclusion_probabilities_parametric(draws: WeightedDraws, panel: SeriesPanel,
                                       prior: ParametricPrior) -> InclusionSummary:
    """Posterior inclusion probability per unit, averaged over weighted draws.

    For each draw, a unit's conditional inclusion probability is the
    two-point posterior p * BF / (p * BF + 1 - p), evaluated on the log-odds
    scale for stability; the summary averages these with the normalized
    importance weights and reports the self-normalized Monte Carlo standard
    error.
    """
    _require_fittable(panel)
    stats = panel.stats
    wbar = draws.normalized_weights
    phi, v, p = draws.draws.T
    prob, s2_ww, s2_w = np.zeros((3, len(panel)))
    for rows in _blocks(len(panel), draws.n_draws):
        q_y1, s11 = stats.shift_parts(phi[rows], v[rows])
        logbf = log_shift_bayes_factor(q_y1, s11, prior.shift_var)
        if not np.all(np.isfinite(logbf)):
            k, unit = np.argwhere(~np.isfinite(logbf.T))[0]   # first draw, then first unit
            raise NumericalError(
                f"non-finite Bayes factor for unit {panel[unit].unit_id!r} at draw {rows.start + k}"
            )
        pi = expit(logit(p[rows]) + logbf)
        w = wbar[rows]
        prob += pi @ w
        s2_ww += (pi * pi) @ (w * w)
        s2_w += pi @ (w * w)
    var = s2_ww - 2.0 * prob * s2_w + prob * prob * float(np.dot(wbar, wbar))
    stderr = np.sqrt(np.maximum(var, 0.0))
    # The normalized weights sum to 1 only up to rounding.
    return InclusionSummary(panel.unit_ids, np.clip(prob, 0.0, 1.0), stderr)


def _weighted_quantile(x: np.ndarray, w: np.ndarray, q: float) -> float:
    order = np.argsort(x)
    cw = np.cumsum(w[order])
    return float(np.interp(q, cw / cw[-1], x[order]))


def posterior_mixing_mode(draws: WeightedDraws) -> float:
    """Posterior mode of the prevalence p from the weighted draws.

    A weighted Gaussian kernel density estimate is built on the logit scale
    (weighted Silverman bandwidth with the effective sample size in place
    of n) and transformed back with its Jacobian before locating the mode.
    The density is accumulated over blocks of draws, so memory stays flat
    in the number of draws.
    Raises NumericalError when the weights are degenerate (ESS < 10).
    """
    wbar, ess = normalized_weights_and_ess(draws.log_weights)
    if ess < ESS_DEGENERATE:
        raise NumericalError(f"importance weights too degenerate for density estimation: ESS {ess:.2f}")
    p = np.clip(draws.draws[:, 2], 1e-300, 1.0 - 1e-16)
    x = logit(p)
    mu = float(np.dot(wbar, x))
    sd = float(np.sqrt(max(np.dot(wbar, (x - mu) ** 2), 0.0)))
    iqr = _weighted_quantile(x, wbar, 0.75) - _weighted_quantile(x, wbar, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0.0 or not np.isfinite(spread):
        return float(expit(mu))
    h = 0.9 * spread * ess ** (-0.2)
    xs = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, _MODE_GRID)
    dens_x = np.zeros(_MODE_GRID)
    for rows in _blocks(_MODE_GRID, x.size):
        dens_x += np.exp(-0.5 * ((xs[:, None] - x[None, rows]) / h) ** 2) @ wbar[rows]
    dens_x /= h * np.sqrt(2.0 * np.pi)
    ps = expit(xs)
    dens_p = dens_x / (ps * (1.0 - ps))
    return float(ps[int(np.argmax(dens_p))])
