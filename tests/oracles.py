"""Independent reference implementations used to check the package numerics.

Everything here is deliberately naive: dense matrices, direct formulas,
exhaustive enumeration. No code is shared with the package beyond numpy
and scipy, so agreement is meaningful.
"""

from __future__ import annotations

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
