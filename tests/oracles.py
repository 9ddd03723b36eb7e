"""Independent reference implementations used to check the package numerics.

Everything here is deliberately naive: dense matrices, direct formulas,
exhaustive enumeration. No code is shared with the package beyond numpy
and scipy, so agreement is meaningful. The one exception is the
successive-conditional data draw, which reads the sampler state it redraws
data for (``trajectory._trajectory_matrix``), since the test checks the
sweeps, not that read.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
from scipy.stats import multivariate_normal


def dense_ar1_cov(phi: float, v: float, times) -> np.ndarray:
    """Stationary AR(1) covariance built entry by entry."""
    times = np.asarray(times)
    n = times.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = v / (1.0 - phi ** 2) * phi ** abs(int(times[i]) - int(times[j]))
    return out


def successive_conditional_data(state, table, rng: np.random.Generator):
    """The data half of Geweke's (2004, *JASA*, "Getting it right")
    successive-conditional simulator: a copy of the step table ``table``
    whose values are drawn afresh from p(y | theta) at ``state``.

    ``state`` is a residual-mixture state, or a joint state whose trajectory
    is then added. Each unit is stationary AR(1) under the atom it sits on,
    at its own (gapped) times: its first value has variance v / (1 - phi^2),
    and a step across gap d has coefficient phi^d and innovation variance
    v (1 - phi^(2d)) / (1 - phi^2). Alternating this draw with sweeps that
    keep p(theta | y) invariant gives a chain whose theta-marginal is the
    prior. The copy is a new instance, so its cached statistics are fresh.
    """
    from arscreen.trajectory import FdpState, _trajectory_matrix

    residual = state.residual if isinstance(state, FdpState) else state
    atom = residual.assignments[table.unit]
    phi, v = residual.stick.phi[atom], residual.stick.v[atom]
    gap = np.zeros(table.values.size, dtype=np.int64)     # 0 marks a first value
    gap[table.later] = np.asarray(table.sizes)[table.gap]
    coef = np.where(gap > 0, phi ** gap, 0.0)
    innov_var = np.where(gap > 0, v * (1.0 - phi ** (2 * gap)), v) / (1.0 - phi * phi)
    y = (np.sqrt(innov_var) * rng.standard_normal(gap.size)).tolist()
    for k, a in zip(table.later.tolist(), coef[table.later].tolist()):
        y[k] += a * y[k - 1]      # steps run in order, so y[k - 1] is final
    y = np.array(y)
    if residual is not state:
        y += _trajectory_matrix(state)[table.unit, table.pos]
    return dataclasses.replace(table, values=y)


def dense_ar1_loglik(y, phi: float, v: float, times) -> float:
    """AR(1) null log-likelihood via a dense multivariate normal density."""
    cov = dense_ar1_cov(phi, v, times)
    return float(multivariate_normal(mean=np.zeros(len(y)), cov=cov).logpdf(np.asarray(y)))

def dense_shift_loglik(y, phi: float, v: float, times, shift_var: float) -> float:
    """Mean-shift marginal log-likelihood via the explicit rank-one covariance."""
    n = len(y)
    cov = dense_ar1_cov(phi, v, times) + shift_var * np.ones((n, n))
    return float(multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(np.asarray(y)))


def dense_gp_conditional(prior_cov: np.ndarray, obs_list) -> tuple[np.ndarray, np.ndarray]:
    """Posterior of a grid-valued Gaussian path given noisy partial observations.

    ``obs_list`` holds (grid_positions, values, noise_cov) triples; each
    observation is y = f[positions] + e with e ~ N(0, noise_cov). The joint
    Gaussian of (f, y_1, ..., y_k) is formed densely and conditioned by
    block inversion.
    """
    g = prior_cov.shape[0]
    picks = []
    for pos, _, _ in obs_list:
        P = np.zeros((len(pos), g))
        P[np.arange(len(pos)), np.asarray(pos)] = 1.0
        picks.append(P)
    if not picks:
        return np.zeros(g), prior_cov.copy()
    P_all = np.vstack(picks)
    y_all = np.concatenate([np.asarray(v, dtype=float) for _, v, _ in obs_list])
    noise = [np.asarray(S) for _, _, S in obs_list]
    m = P_all.shape[0]
    S_yy = P_all @ prior_cov @ P_all.T
    ofs = 0
    for S in noise:
        k = S.shape[0]
        S_yy[ofs:ofs + k, ofs:ofs + k] += S
        ofs += k
    S_fy = prior_cov @ P_all.T
    sol = np.linalg.solve(S_yy, np.eye(m))
    mean = S_fy @ sol @ y_all
    cov = prior_cov - S_fy @ sol @ S_fy.T
    return mean, cov


def dense_gp_precision_terms(grid_size: int, obs_list) -> tuple[np.ndarray, np.ndarray]:
    """Pooled noise precision S = sum P' noise_cov^-1 P and b = sum P' noise_cov^-1 y.

    ``obs_list`` holds (grid_positions, values, noise_cov) triples as in
    ``dense_gp_conditional``; P picks the positions out of the grid and
    each noise covariance is inverted densely.
    """
    S = np.zeros((grid_size, grid_size))
    b = np.zeros(grid_size)
    for pos, y, noise_cov in obs_list:
        P = np.zeros((len(pos), grid_size))
        P[np.arange(len(pos)), np.asarray(pos)] = 1.0
        inv = np.linalg.inv(np.asarray(noise_cov))
        S += P.T @ inv @ P
        b += P.T @ inv @ np.asarray(y, dtype=float)
    return S, b


def whitened_gp_cov(prior_chol: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Covariance L M^-1 L' of a GP conditional given in whitened form, where
    L is the prior factor and M = R R'; M is rebuilt and inverted densely."""
    return prior_chol @ np.linalg.inv(R @ R.T) @ prior_chol.T


def crp_expected_tables(alpha: float, n: int) -> float:
    """Expected number of occupied tables after n customers, by full enumeration.

    Every seating sequence is expanded recursively with its exact
    probability; exact rational arithmetic when alpha is rational.
    """
    a = Fraction(alpha).limit_denominator(10 ** 9)

    def recurse(counts: tuple[int, ...], remaining: int):
        if remaining == 0:
            return Fraction(len(counts), 1), Fraction(1, 1)
        total = sum(counts)
        denom = a + total
        acc = Fraction(0, 1)
        mass = Fraction(0, 1)
        for t in range(len(counts)):
            e, p = recurse(counts[:t] + (counts[t] + 1,) + counts[t + 1:], remaining - 1)
            acc += Fraction(counts[t], 1) / denom * e
            mass += Fraction(counts[t], 1) / denom * p
        e, p = recurse(counts + (1,), remaining - 1)
        acc += a / denom * e
        mass += a / denom * p
        return acc, mass

    expect, mass = recurse((1,), n - 1)
    assert mass == 1
    return float(expect)


def inverse_gamma_logpdf(x: float, shape: float, scale: float) -> float:
    from scipy.stats import invgamma

    return float(invgamma(a=shape, scale=scale).logpdf(x))


def conjugate_variance_posterior(shape: float, scale: float, residuals: np.ndarray) -> tuple[float, float]:
    """Inverse-gamma posterior for a Gaussian variance with known zero mean."""
    z = np.asarray(residuals, dtype=float).ravel()
    return shape + 0.5 * z.size, scale + 0.5 * float(z @ z)


def conjugate_level_posterior(prior_var: float, q_y1_sum: float, s11_sum: float) -> tuple[float, float]:
    """Normal posterior for a constant level with N(0, prior_var) prior.

    Given units whose AR(1)-whitened cross terms sum to q_y1_sum and
    s11_sum, the posterior is N(mean, var) with precision 1/prior_var +
    s11_sum and mean var * q_y1_sum.
    """
    prec = 1.0 / prior_var + s11_sum
    var = 1.0 / prec
    return var * q_y1_sum, var


# --- the residual mixture's atom update, one atom at a time ---


def dp_atom_log_marginal(members, prior, theta: float) -> float:
    """Log conditional of one residual-mixture atom's phi = sin(theta) with v
    integrated out, in theta = arcsin phi, Jacobian cos theta included:
    log cos theta + log of the integral over v of the base prior density
    p(phi, v) times the dense AR(1) likelihood of ``members``, the series
    assigned to the atom, by scipy quadrature over log v; -inf where
    |theta| >= pi/2 or sin theta rounds to +-1.

    ``prior`` supplies phi_mean, phi_var, var_shape and var_scale; its
    density is scipy's truncated normal times inverse gamma. A member's
    dense covariance at v is v times its covariance at v = 1, so its
    log-likelihood at v is -(n log(2 pi v) + log|S| + y' S^-1 y / v) / 2
    with S, log|S| and y' S^-1 y taken densely once at v = 1.
    """
    from scipy.integrate import quad
    from scipy.stats import invgamma, truncnorm

    phi = float(np.sin(theta))
    if not (abs(theta) < 0.5 * np.pi and abs(phi) < 1.0):
        return -np.inf
    n = q_sum = logdet_sum = 0.0
    for s in members:
        q_yy, _, _, logdet = dense_gaussian_parts(s.values, phi, 1.0, s.times)
        n, q_sum, logdet_sum = n + len(s.values), q_sum + q_yy, logdet_sum + logdet
    v_prior = invgamma(prior.var_shape, scale=prior.var_scale)

    def log_integrand(u):     # u = log v, Jacobian v included
        v = np.exp(u)
        return v_prior.logpdf(v) + u - 0.5 * (n * np.log(2.0 * np.pi * v) + logdet_sum + q_sum / v)

    # Centre the integrand on its peak over a log-v grid so quad sees O(1) values.
    grid = np.linspace(-30.0, 30.0, 6001)
    peak_u = float(grid[np.argmax(log_integrand(grid))])
    peak = log_integrand(peak_u)
    mass, _ = quad(lambda u: np.exp(log_integrand(u) - peak), peak_u - 40.0, peak_u + 40.0,
                   points=[peak_u], epsabs=0.0, epsrel=1e-12, limit=200)
    sd = np.sqrt(prior.phi_var)
    phi_prior = truncnorm((-1.0 - prior.phi_mean) / sd, (1.0 - prior.phi_mean) / sd,
                          loc=prior.phi_mean, scale=sd)
    return float(np.log(np.cos(theta)) + phi_prior.logpdf(phi) + peak + np.log(mass))


# --- the parametric screen, one draw and one unit at a time ---

PENALTY = -1.0e300


def dense_gaussian_parts(y, phi: float, v: float, times):
    """(y' S^-1 y, y' S^-1 1, 1' S^-1 1, log|S|) of one series from its dense covariance S."""
    cov = dense_ar1_cov(phi, v, times)
    y = np.asarray(y, dtype=float)
    ones = np.ones(y.size)
    sy, s1 = np.linalg.solve(cov, np.column_stack([y, ones])).T
    return y @ sy, y @ s1, ones @ s1, np.linalg.slogdet(cov)[1]


def dense_log_bayes_factor(y, phi: float, v: float, times, shift_var: float):
    """Log Bayes factor of a N(0, shift_var) mean shift, from the dense parts."""
    _, q_y1, s11, _ = dense_gaussian_parts(y, phi, v, times)
    denom = 1.0 + shift_var * s11
    return -0.5 * np.log(denom) + 0.5 * shift_var * q_y1 ** 2 / denom


def parametric_log_target(panel, prior, x) -> float:
    """Log posterior of the homogeneous screen at x = (atanh phi, log v, logit p),
    Jacobian included, summed unit by unit; ``PENALTY`` where it is not finite.

    ``prior`` supplies phi_mean, phi_var, var_shape, var_scale and shift_var;
    its density is scipy's truncated normal times inverse gamma.
    """
    from scipy.stats import invgamma, truncnorm

    with np.errstate(over="ignore"):
        phi, v, p = np.tanh(x[0]), np.exp(x[1]), 1.0 / (1.0 + np.exp(-x[2]))
    if not (-1.0 < phi < 1.0) or not (0.0 < v < np.inf) or not (0.0 < p < 1.0):
        return PENALTY
    sd = np.sqrt(prior.phi_var)
    phi_prior = truncnorm((-1.0 - prior.phi_mean) / sd, (1.0 - prior.phi_mean) / sd,
                          loc=prior.phi_mean, scale=sd)
    total = (phi_prior.logpdf(phi) + invgamma(prior.var_shape, scale=prior.var_scale).logpdf(v)
             + np.log1p(-phi * phi) + np.log(v) + np.log(p) + np.log1p(-p))
    if not np.isfinite(total):
        return PENALTY
    for s in panel:
        q_yy, _, _, logdet = dense_gaussian_parts(s.values, phi, v, s.times)
        null = -0.5 * (len(s.values) * np.log(2.0 * np.pi) + logdet + q_yy)
        logbf = dense_log_bayes_factor(s.values, phi, v, s.times, prior.shift_var)
        total += null + np.logaddexp(np.log1p(-p), np.log(p) + logbf)
    return float(total) if np.isfinite(total) else PENALTY


def parametric_inclusion(panel, draws, weights, shift_var: float):
    """Inclusion probability and Monte Carlo standard error per unit, averaging
    p BF / (p BF + 1 - p) over draws (phi, v, p) with normalized ``weights``.

    A non-finite Bayes factor raises ``FloatingPointError`` naming the unit
    and the draw, the first unit of the first draw where one occurs.
    """
    n = len(panel)
    s1, s2_ww, s2_w = np.zeros(n), np.zeros(n), np.zeros(n)
    for k, (phi, v, p) in enumerate(draws):
        for i, s in enumerate(panel):
            with np.errstate(over="ignore"):
                logbf = dense_log_bayes_factor(s.values, phi, v, s.times, shift_var)
                pi = 1.0 / (1.0 + (1.0 - p) / p * np.exp(-logbf))
            if not np.isfinite(logbf):
                raise FloatingPointError(f"non-finite Bayes factor for unit {s.unit_id!r} at draw {k}")
            w = weights[k]
            s1[i] += w * pi
            s2_ww[i] += w * w * pi * pi
            s2_w[i] += w * w * pi
    var = s2_ww - 2.0 * s1 * s2_w + s1 * s1 * float(np.dot(weights, weights))
    return s1, np.sqrt(np.maximum(var, 0.0))


def dense_mixing_mode(p, log_weights, grid_size: int = 512) -> float:
    """Mode of the prevalence p from draws with unnormalized ``log_weights``:
    a weighted Gaussian kernel density on the logit scale (weighted Silverman
    bandwidth with the effective sample size for n), evaluated on one dense
    (grid x draws) matrix and mapped back to p with its Jacobian."""
    from scipy.special import expit, logit

    w = np.exp(np.asarray(log_weights, dtype=float) - np.max(log_weights))
    ess = w.sum() ** 2 / (w @ w)
    w = w / w.sum()
    x = logit(np.clip(p, 1e-300, 1.0 - 1e-16))

    def quantile(q):
        order = np.argsort(x)
        cw = np.cumsum(w[order])
        return np.interp(q, cw / cw[-1], x[order])

    mu = w @ x
    sd = np.sqrt(max(w @ (x - mu) ** 2, 0.0))
    iqr = quantile(0.75) - quantile(0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0.0 or not np.isfinite(spread):
        return float(expit(mu))
    h = 0.9 * spread * ess ** (-0.2)
    grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, grid_size)
    kern = np.exp(-0.5 * ((grid[:, None] - x[None, :]) / h) ** 2)
    dens = kern @ w / (h * np.sqrt(2.0 * np.pi))
    ps = expit(grid)
    return float(ps[np.argmax(dens / (ps * (1.0 - ps)))])


# --- the scipy forms that the package's numpy code replaced ---


def average_ranks(x) -> np.ndarray:
    """Average ranks of ``x`` by ``scipy.stats.rankdata``."""
    from scipy.stats import rankdata

    return rankdata(x, method="average")


def simulate_ar1_lfilter(phi: float, v: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(1) path drawn as the package draws it, with the
    recursion run by ``scipy.signal.lfilter`` from the state phi * y_0."""
    from scipy.signal import lfilter

    z = rng.standard_normal(length)
    y0 = np.sqrt(v / (1.0 - phi * phi)) * z[0]
    if length == 1:
        return np.array([y0])
    rest = lfilter([1.0], [1.0, -phi], np.sqrt(v) * z[1:], zi=np.array([phi * y0]))[0]
    return np.concatenate(([y0], rest))


def t_proposal(loc, shape, df: float, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` draws of ``scipy.stats.multivariate_t`` from ``rng`` and its log density at them."""
    from scipy.stats import multivariate_t

    dist = multivariate_t(loc=loc, shape=shape, df=df)
    xs = np.atleast_2d(dist.rvs(size=n, random_state=rng))
    return xs, dist.logpdf(xs)


def prior_log_density_phi_v(prior, phi, v):
    """The prior log density with every constant recomputed per call, term
    for term in the order the package sums them."""
    from scipy.special import gammaln, ndtr

    sd = np.sqrt(prior.phi_var)
    trunc = ndtr((1.0 - prior.phi_mean) / sd) - ndtr((-1.0 - prior.phi_mean) / sd)
    a, b = prior.var_shape, prior.var_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        lp_phi = (-0.5 * np.log(2.0 * np.pi * prior.phi_var)
                  - 0.5 * (phi - prior.phi_mean) ** 2 / prior.phi_var
                  - np.log(trunc))
        lp_v = a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(v) - b / np.asarray(v)
    return np.where((-1.0 < phi) & (phi < 1.0) & (v > 0.0), lp_phi + lp_v, -np.inf)


def fd_hessian(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Hessian of scalar f at x, from 19 calls of f."""
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


def maximize(f, grad, x0) -> np.ndarray:
    """Maximizer of f by ``scipy.optimize.minimize`` (BFGS) on -f with the gradient ``grad``."""
    from scipy.optimize import minimize

    with np.errstate(all="ignore"):   # the line search may probe |phi| = 1
        res = minimize(lambda x: (-f(x), -grad(x)), x0, jac=True, method="BFGS",
                       options={"gtol": 1e-9, "maxiter": 1000})
    return res.x


def pool_add_at(terms: np.ndarray, labels: np.ndarray, size: int) -> np.ndarray:
    """Rows of ``terms`` summed within each label by ``np.add.at``."""
    out = np.zeros((size, terms.shape[1]))
    np.add.at(out, labels, terms)
    return out


def solve_lower(R: np.ndarray, x: np.ndarray, trans: int) -> np.ndarray:
    """Row k solves R[k] u = x[k] (``trans`` 0) or R[k]' u = x[k] (1) by
    ``scipy.linalg.solve_triangular``."""
    from scipy.linalg import solve_triangular

    return np.array([solve_triangular(r, b, lower=True, trans=trans, check_finite=False)
                     for r, b in zip(R, x)])
