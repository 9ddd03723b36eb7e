"""Shared sampling utilities: seed streams, stick-breaking, categorical draws,
random-walk Metropolis.

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
    w = np.empty(sticks.size + 1)
    w[0] = 1.0
    np.cumprod(1.0 - sticks, out=w[1:])     # w[l] = prod_{j<l}(1 - s_j)
    w[:-1] *= sticks
    return w


def sample_sticks(counts, concentrations, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Posterior stick updates for independent truncated stick-breaking sets.

    Set k has occupancy ``counts[k]`` over its L_k atoms; its L_k - 1 stick
    fractions are drawn from Beta(1 + n_l, concentrations[k] + sum_{j>l} n_j).
    Every set's fractions come from one ``rng.beta`` call. Returns one
    (sticks, weights) pair per set.
    """
    sizes = [len(n) for n in counts]
    last = np.cumsum(sizes) - 1                 # each set's last atom, which has no stick
    n = np.concatenate(counts)
    cum = n.cumsum()
    tail = np.repeat(cum[last], sizes) - cum    # sum_{j>l} n_j within the set
    head = np.ones(n.size, dtype=bool)
    head[last] = False
    draws = rng.beta(1.0 + n[head], (np.repeat(concentrations, sizes) + tail)[head])
    out, start = [], 0
    for size in sizes:
        sticks = draws[start:start + size - 1]
        start += size - 1
        out.append((sticks, stick_weights(sticks)))
    return out


def categorical_draw(log_scores: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One index per row of ``log_scores`` drawn proportionally to exp(score),
    by inverse CDF, and each row's maximum.

    Rows are unnormalized log probabilities; they are overwritten with their
    cumulative masses, relative to the row's maximum. Each row takes one
    uniform u in [0, 1) and picks the first column whose cumulative mass
    exceeds u times the row's total. A -inf (zero-mass) column leaves the
    cumulative mass where it was, so it is never the first to exceed it.
    Nor can u times the total round up to the total, so that no column
    would: the maximum's own mass is 1, so the total is at least 1, and in
    round-to-nearest u * t < t for every u < 1 and normal t. A row whose
    maximum is not finite (a NaN, +inf or only -inf) gets an arbitrary
    index: the caller rejects such rows by the returned maxima.
    """
    top = log_scores.max(axis=1)
    with np.errstate(invalid="ignore"):         # -inf - -inf in a row of -inf
        log_scores -= top[:, None]
    cum = np.exp(log_scores, out=log_scores).cumsum(axis=1, out=log_scores)
    target = rng.random(len(cum)) * cum[:, -1]
    return (cum > target[:, None]).argmax(axis=1), top


def gumbel_argmax(log_scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one index per row of ``log_scores`` proportionally to exp(score).

    Rows are unnormalized log probabilities; -inf entries are never chosen.
    No sampler calls it: both draw by ``categorical_draw``.
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
