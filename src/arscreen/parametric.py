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

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, gammaln, logit, ndtr
from scipy.stats import multivariate_t

from .ar_core import ArParams, LagStats, SeriesPanel, lag_stats, step_table, LOG_2PI
# Bound only for the probes in bench/layers.py; not called here (counts read 0).
from .ar_core import group_gaussian_parts, panel_groups  # noqa: F401
from .errors import DomainError, InvalidInputError, ModeSearchError, NumericalError
from .mcmc import normalized_weights_and_ess, stream

# Importance-sampling health thresholds.
ESS_WARN_FRACTION = 0.01
ESS_DEGENERATE = 10.0
PROPOSAL_DF = 5.0


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
        while np.any(bad):
            phi[bad] = rng.normal(self.phi_mean, sd, size=int(bad.sum()))
            bad = (phi <= -1.0) | (phi >= 1.0)
        v = self.var_scale / rng.gamma(self.var_shape, size=size)
        return phi, v

    def log_density_phi_v(self, phi: float, v: float) -> float:
        """Log prior density of (phi, v); -inf outside the domain."""
        if not (-1.0 < phi < 1.0) or v <= 0.0:
            return -np.inf
        sd = np.sqrt(self.phi_var)
        trunc = ndtr((1.0 - self.phi_mean) / sd) - ndtr((-1.0 - self.phi_mean) / sd)
        lp_phi = (-0.5 * np.log(2.0 * np.pi * self.phi_var)
                  - 0.5 * (phi - self.phi_mean) ** 2 / self.phi_var
                  - np.log(trunc))
        a, b = self.var_shape, self.var_scale
        lp_v = a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(v) - b / v
        return lp_phi + lp_v


@dataclass
class WeightedDraws:
    """Importance sample of (phi, v, p) with unnormalized log-weights."""

    draws: np.ndarray            # shape (K, 3), columns phi, v, p
    log_weights: np.ndarray      # shape (K,)
    ess: float
    seed: int
    messages: tuple[str, ...] = ()

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
        return classify_flags(self, threshold)


def _mixture_loglik_terms(stats: LagStats, params: ArParams,
                          shift_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit null log-likelihood and log Bayes factor, O(units x gaps)."""
    q_yy, q_y1, s11, logdet = stats.gaussian_parts(params.phi, params.v)
    null = -0.5 * (stats.length * LOG_2PI + logdet + q_yy)
    denom = 1.0 + shift_var * s11
    logbf = -0.5 * np.log(denom) + 0.5 * shift_var * q_y1 ** 2 / denom
    return null, logbf


def _panel_log_marginal(stats: LagStats, params: ArParams, p: float, shift_var: float) -> float:
    """Sum over units of log[(1-p) null + p alt]."""
    null, logbf = _mixture_loglik_terms(stats, params, shift_var)
    return float(np.sum(null + np.logaddexp(np.log1p(-p), np.log(p) + logbf)))


_PENALTY = -1.0e300


def _make_transformed_logpost(stats: LagStats, prior: ParametricPrior):
    """Joint log posterior in x = (atanh phi, log v, logit p), Jacobian included."""

    def logpost(x: np.ndarray) -> float:
        phi = np.tanh(x[0])
        v = np.exp(x[1])
        p = expit(x[2])
        if not (-1.0 < phi < 1.0) or not (0.0 < v < np.inf) or not (0.0 < p < 1.0):
            return _PENALTY
        log_jac = np.log1p(-phi * phi) + np.log(v) + np.log(p) + np.log1p(-p)
        lp = prior.log_density_phi_v(phi, v) + log_jac
        if not np.isfinite(lp):
            return _PENALTY
        ll = _panel_log_marginal(stats, ArParams(phi, v), p, prior.shift_var)
        total = ll + lp
        return float(total) if np.isfinite(total) else _PENALTY

    return logpost


def _fd_hessian(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Hessian of scalar f at x."""
    n = x.size
    h = 1e-4 * np.maximum(1.0, np.abs(x))
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


def _proposal_shape(H: np.ndarray) -> np.ndarray:
    """Inverse of the curvature matrix with an eigenvalue floor for safety."""
    H = 0.5 * (H + H.T)
    w, V = np.linalg.eigh(H)
    floor = 1e-8 * max(float(w.max()), 1.0)
    w = np.maximum(w, floor)
    return (V / w) @ V.T


def _require_fittable(panel: SeriesPanel) -> None:
    if len(panel) == 0:
        raise InvalidInputError("cannot fit an empty panel")
    for s in panel:
        if len(s) < 2:
            raise InvalidInputError(
                f"unit {s.unit_id!r} has a single observation; model fitting needs length >= 2"
            )


def build_importance_sampler(panel: SeriesPanel, prior: ParametricPrior,
                             n_draws: int = 5000, seed: int = 0) -> WeightedDraws:
    """Importance sample of the (phi, v, p) posterior for a panel.

    Finds the posterior mode in transformed space by quasi-Newton search,
    builds a multivariate Student-t proposal (df 5) from the
    finite-difference curvature there, and returns weighted draws in the
    original parameterization. Warns when the effective sample size falls
    below 1% of n_draws; mode-search failure raises ModeSearchError with
    the last iterate.
    """
    if n_draws < 2:
        raise DomainError(f"need at least 2 importance draws, got {n_draws}")
    _require_fittable(panel)
    logpost = _make_transformed_logpost(lag_stats(step_table(panel)), prior)

    starts = [
        np.array([np.arctanh(prior.phi_mean), 0.0, logit(0.1)]),
        np.array([np.arctanh(prior.phi_mean), 0.0, logit(0.5)]),
    ]
    best = None
    last_x = starts[0]
    for x0 in starts:
        res = minimize(lambda x: -logpost(x), x0, method="BFGS",
                       options={"maxiter": 500, "gtol": 1e-6})
        last_x = res.x
        converged = bool(res.success) or float(np.max(np.abs(res.jac))) < 1e-3
        if converged and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise ModeSearchError("posterior mode search did not converge", last_iterate=last_x)
    mode = best.x

    H = _fd_hessian(lambda x: -logpost(x), mode)
    shape = _proposal_shape(H)

    rng = stream(seed, "parametric-proposal")
    proposal = multivariate_t(loc=mode, shape=shape, df=PROPOSAL_DF)
    xs = np.atleast_2d(proposal.rvs(size=n_draws, random_state=rng))
    log_q = proposal.logpdf(xs)
    log_target = np.array([logpost(x) for x in xs])
    if np.any(np.isnan(log_target)):
        raise NumericalError("importance target evaluated to NaN")
    log_w = log_target - log_q

    _, ess = normalized_weights_and_ess(log_w)
    messages = []
    if ess < ESS_WARN_FRACTION * n_draws:
        msg = (f"importance sample is degenerate: ESS {ess:.1f} of {n_draws} draws; "
               "estimates may be unreliable")
        warnings.warn(msg)
        messages.append(msg)

    draws = np.column_stack([np.tanh(xs[:, 0]), np.exp(xs[:, 1]), expit(xs[:, 2])])
    return WeightedDraws(draws=draws, log_weights=log_w, ess=ess, seed=seed,
                         messages=tuple(messages))


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
    stats = lag_stats(step_table(panel))
    n = len(panel)
    wbar = draws.normalized_weights
    s1 = np.zeros(n)
    s2_ww = np.zeros(n)
    s2_w = np.zeros(n)
    for k in range(draws.n_draws):
        phi, v, p = draws.draws[k]
        _, logbf = _mixture_loglik_terms(stats, ArParams(float(phi), float(v)), prior.shift_var)
        if not np.all(np.isfinite(logbf)):
            bad = int(np.flatnonzero(~np.isfinite(logbf))[0])
            raise NumericalError(
                f"non-finite Bayes factor for unit {panel[bad].unit_id!r} at draw {k}"
            )
        pi = expit(logit(p) + logbf)
        w = wbar[k]
        s1 += w * pi
        s2_ww += w * w * pi * pi
        s2_w += w * w * pi
    prob = s1
    w2 = float(np.dot(wbar, wbar))
    var = s2_ww - 2.0 * prob * s2_w + prob * prob * w2
    stderr = np.sqrt(np.maximum(var, 0.0))
    # The normalized weights sum to 1 only up to rounding.
    return InclusionSummary(panel.unit_ids, np.clip(prob, 0.0, 1.0), stderr)


def _weighted_quantile(x: np.ndarray, w: np.ndarray, q: float) -> float:
    order = np.argsort(x)
    cw = np.cumsum(w[order])
    return float(np.interp(q, cw / cw[-1], x[order]))


def posterior_mixing_mode(draws: WeightedDraws, grid_size: int = 512) -> float:
    """Posterior mode of the prevalence p from the weighted draws.

    A weighted Gaussian kernel density estimate is built on the logit scale
    (weighted Silverman bandwidth with the effective sample size in place
    of n) and transformed back with its Jacobian before locating the mode.
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
    xs = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, grid_size)
    kern = np.exp(-0.5 * ((xs[:, None] - x[None, :]) / h) ** 2)
    dens_x = kern @ wbar / (h * np.sqrt(2.0 * np.pi))
    ps = expit(xs)
    dens_p = dens_x / (ps * (1.0 - ps))
    return float(ps[int(np.argmax(dens_p))])


def classify_flags(summary: InclusionSummary, threshold: float) -> tuple[str, ...]:
    """Unit ids whose inclusion probability meets the threshold."""
    if not (0.0 < threshold <= 1.0):
        raise DomainError(f"flag threshold must lie in (0, 1], got {threshold}")
    keep = summary.probability >= threshold
    return tuple(uid for uid, k in zip(summary.unit_ids, keep) if k)
