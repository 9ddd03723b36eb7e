"""Shared sampling utilities: seed streams, stick-breaking, random-walk Metropolis.

All randomness in the package flows through ``numpy.random.Generator`` objects
derived from a single integer seed via ``SeedSequence`` children, so results are
reproducible and independent of evaluation order across units.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import NumericalError


def _key_int(key) -> int:
    """Stable integer for a seed-stream key (string keys hashed via crc32)."""
    if isinstance(key, (int, np.integer)):
        return int(key)
    return zlib.crc32(str(key).encode("utf8"))


def seed_sequence(seed: int, *keys) -> np.random.SeedSequence:
    """SeedSequence for a named substream of the run seed.

    Distinct key tuples give statistically independent streams, and a
    given (seed, keys) pair is reproducible regardless of how many other
    streams were consumed first.
    """
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_key_int(k) for k in keys))


def stream(seed: int, *keys) -> np.random.Generator:
    """Generator for a named substream of the run seed."""
    return np.random.default_rng(seed_sequence(seed, *keys))


def stick_weights(sticks: np.ndarray) -> np.ndarray:
    """Mixture weights from stick-breaking fractions.

    ``sticks`` holds L-1 fractions in (0, 1); the returned L weights are
    s_l * prod_{j<l}(1 - s_j) with the last weight absorbing the remainder,
    so they sum to one exactly up to rounding.
    """
    sticks = np.asarray(sticks, dtype=float)
    remain = np.concatenate(([1.0], np.cumprod(1.0 - sticks)))
    w = np.empty(sticks.size + 1)
    w[:-1] = sticks * remain[:-1]
    w[-1] = remain[-1]
    return w


def sample_sticks(counts: np.ndarray, concentration: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Posterior stick update for a truncated stick-breaking prior.

    Given occupancy ``counts`` over L atoms, draws the L-1 stick fractions
    from Beta(1 + n_l, concentration + sum_{j>l} n_j) and returns
    (sticks, weights).
    """
    counts = np.asarray(counts, dtype=float)
    tail = np.concatenate((np.cumsum(counts[::-1])[::-1][1:], [0.0]))
    sticks = rng.beta(1.0 + counts[:-1], concentration + tail[:-1])
    return sticks, stick_weights(sticks)


def gumbel_argmax(log_scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one index per row of ``log_scores`` proportionally to exp(score).

    Rows are unnormalized log probabilities; -inf entries are never chosen.
    """
    g = rng.gumbel(size=log_scores.shape)
    g += log_scores
    return np.argmax(g, axis=-1)


def rw_metropolis_step(x: np.ndarray, log_target, scale: np.ndarray, rng: np.random.Generator,
                       log_target_x: float | None = None) -> tuple[np.ndarray, float, bool]:
    """One random-walk Metropolis step with per-coordinate proposal scales.

    A zero entry in ``scale`` pins that coordinate. Returns
    (new_x, new_log_target, accepted).
    """
    if log_target_x is None:
        log_target_x = log_target(x)
    prop = x + scale * rng.standard_normal(x.shape)
    log_target_prop = log_target(prop)
    if np.isnan(log_target_prop):
        raise NumericalError(f"random-walk proposal produced NaN log target at {prop!r}")
    if np.log(rng.uniform()) < log_target_prop - log_target_x:
        return prop, float(log_target_prop), True
    return x, float(log_target_x), False


def normalized_weights_and_ess(log_weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Self-normalized importance weights and effective sample size.

    ESS = (sum w)^2 / sum w^2, computed on the stabilized weights.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    if log_weights.size == 0:
        raise NumericalError("no importance weights to normalize")
    if not np.all(np.isfinite(log_weights)):
        raise NumericalError("non-finite importance log-weights")
    w = np.exp(log_weights - log_weights.max())
    total = w.sum()
    norm = w / total
    ess = total * total / np.dot(w, w)
    return norm, float(ess)
