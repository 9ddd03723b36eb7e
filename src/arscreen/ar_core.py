"""Core types and exact Gaussian numerics for panels of stationary AR(1) series.

A unit's observations on integer times t_1 < ... < t_T are modeled as a
zero-mean stationary AR(1) with autoregressive coefficient phi (|phi| < 1)
and innovation variance v, so the covariance between observations at t_i
and t_j is v / (1 - phi^2) * phi^(|t_i - t_j|). The observed series is
Markov whatever its gaps (Jones 1980): across a gap of d steps the
transition coefficient is phi^d and the innovation variance is
v (1 - phi^(2d)) / (1 - phi^2). One O(T) prediction-error recursion
therefore whitens every time pattern, and the precision matrix is
tridiagonal in closed form. Both read a gap table that stores each
distinct gap once, so the per-gap coefficients are evaluated once per call.

A constant mean shift with prior N(0, shift_var) can be integrated out in
closed form, which yields the conditional Bayes factor used by both the
parametric and nonparametric screens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from .errors import DomainError, InvalidInputError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ArParams:
    """Stationary AR(1) parameters: coefficient ``phi`` and innovation variance ``v``."""

    phi: float
    v: float

    def __post_init__(self):
        if not (-1.0 < self.phi < 1.0):
            raise DomainError(f"AR coefficient must lie in (-1, 1), got {self.phi}")
        if not (self.v > 0.0 and np.isfinite(self.v)):
            raise DomainError(f"innovation variance must be positive and finite, got {self.v}")


def stationary_variance(params: ArParams) -> float:
    """Marginal variance v / (1 - phi^2) of the stationary process."""
    return params.v / (1.0 - params.phi * params.phi)


@dataclass(frozen=True)
class ObservedSeries:
    """One unit's observations: strictly increasing integer times and finite values."""

    unit_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise InvalidInputError(f"unit {self.unit_id!r}: times and values must be 1-d and equal length")
        if times.size == 0:
            raise InvalidInputError(f"unit {self.unit_id!r}: series is empty")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise InvalidInputError(f"unit {self.unit_id!r}: times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError(f"unit {self.unit_id!r}: values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class SeriesPanel:
    """A panel of series with unique unit ids, each at least ``min_length`` long."""

    series: tuple[ObservedSeries, ...]
    min_length: int = 1

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        ids = [s.unit_id for s in self.series]
        if len(set(ids)) != len(ids):
            dupes = sorted({u for u in ids if ids.count(u) > 1})
            raise InvalidInputError(f"duplicate unit ids in panel: {dupes[:5]}")
        for s in self.series:
            if len(s) < self.min_length:
                raise InvalidInputError(
                    f"unit {s.unit_id!r} has {len(s)} observations, fewer than min_length={self.min_length}"
                )

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self):
        return iter(self.series)

    def __getitem__(self, i: int) -> ObservedSeries:
        return self.series[i]

    @property
    def unit_ids(self) -> tuple[str, ...]:
        return tuple(s.unit_id for s in self.series)


@dataclass(frozen=True)
class GapTable:
    """Steps between consecutive observation times, stored by distinct gap.

    ``sizes`` holds the distinct gaps in ascending order and ``counts`` the
    number of steps with each; ``step`` gives, for each of the T - 1 steps,
    its index into ``sizes``. A time vector has few distinct gaps, so the
    per-gap fields are tuples and per-gap coefficients are scalar arithmetic.
    """

    sizes: tuple[int, ...]
    counts: tuple[int, ...]
    step: np.ndarray


def gap_table(times: np.ndarray) -> GapTable:
    """Gap table of strictly increasing integer times."""
    diffs = np.diff(np.asarray(times, dtype=np.int64))
    sizes, step, counts = np.unique(diffs, return_inverse=True, return_counts=True)
    return GapTable(tuple(sizes.tolist()), tuple(counts.tolist()), step)


def _gap_coefficients(params: ArParams, sizes: tuple[int, ...]) -> tuple[list, list]:
    """Per distinct gap d: the transition coefficient phi^d and the ratio
    (1 - phi^(2d)) / (1 - phi^2) of the d-step innovation variance to v,
    which is exactly 1 for d = 1."""
    phi = params.phi
    coef = [phi ** d for d in sizes]
    return coef, [(1.0 - c * c) / (1.0 - phi * phi) for c in coef]


def _whiten(values: np.ndarray, gaps: GapTable, params: ArParams) -> tuple[np.ndarray, float]:
    """Whiten rows of ``values`` (shape (n, T)) under the AR(1) covariance.

    Returns (E, logdet) with E @ E.T summing to the quadratic forms:
    each row e satisfies e.e = y' Sigma^{-1} y, and logdet = log|Sigma|.
    O(T) per row: each step is standardized by its prediction error across
    its gap.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    s = stationary_variance(params)
    coef, ratio = _gap_coefficients(params, gaps.sizes)
    innov_var = [params.v * r for r in ratio]
    logdet = float(np.log(s) + sum(n * np.log(w) for n, w in zip(gaps.counts, innov_var)))
    if len(coef) == 1:
        coef, innov_var = coef[0], innov_var[0]
    else:
        coef, innov_var = np.take(coef, gaps.step), np.take(innov_var, gaps.step)
    E = np.empty_like(values)
    E[:, 0] = values[:, 0] / np.sqrt(s)
    E[:, 1:] = (values[:, 1:] - coef * values[:, :-1]) / np.sqrt(innov_var)
    return E, logdet


def gaussian_parts(values: np.ndarray, gaps: GapTable,
                   params: ArParams) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Per-row quadratic forms needed by the mean-shift marginal likelihood.

    For rows y of ``values`` observed at times with gap table ``gaps``
    returns (q_yy, q_y1, s11, logdet) where q_yy = y' Sigma^{-1} y,
    q_y1 = y' Sigma^{-1} 1 and s11 = 1' Sigma^{-1} 1.
    """
    stacked = np.vstack([np.atleast_2d(values), np.ones((1, gaps.step.size + 1))])
    E, logdet = _whiten(stacked, gaps, params)
    Ey, e1 = E[:-1], E[-1]
    q_yy = np.einsum("ij,ij->i", Ey, Ey)
    q_y1 = Ey @ e1
    s11 = float(e1 @ e1)
    return q_yy, q_y1, s11, logdet


def ar1_loglik(series: ObservedSeries, params: ArParams) -> float:
    """Log-likelihood of a series under the stationary AR(1) null."""
    E, logdet = _whiten(series.values, gap_table(series.times), params)
    q_yy = float(E[0] @ E[0])
    return -0.5 * (len(series) * LOG_2PI + logdet + q_yy)


def mean_shift_loglik(series: ObservedSeries, params: ArParams, shift_var: float) -> float:
    """Marginal log-likelihood with a constant mean shift integrated out.

    The shift has prior N(0, shift_var), so the marginal covariance is
    Sigma + shift_var * 11'; the rank-one update is evaluated via the
    Sherman-Morrison identity and the matrix determinant lemma.
    """
    if shift_var < 0.0:
        raise DomainError(f"shift variance must be nonnegative, got {shift_var}")
    q_yy, q_y1, s11, logdet = gaussian_parts(series.values, gap_table(series.times), params)
    null = -0.5 * (len(series) * LOG_2PI + logdet + float(q_yy[0]))
    denom = 1.0 + shift_var * s11
    return null - 0.5 * np.log(denom) + 0.5 * shift_var * float(q_y1[0]) ** 2 / denom


def log_conditional_bayes_factor(series: ObservedSeries, params: ArParams, shift_var: float) -> float:
    """Log Bayes factor of the mean-shift alternative against the AR(1) null."""
    q_yy, q_y1, s11, _ = gaussian_parts(series.values, gap_table(series.times), params)
    denom = 1.0 + shift_var * s11
    return -0.5 * np.log(denom) + 0.5 * shift_var * float(q_y1[0]) ** 2 / denom


def conditional_bayes_factor(series: ObservedSeries, params: ArParams, shift_var: float) -> float:
    """Bayes factor of the mean-shift alternative against the AR(1) null.

    Equal to exp(mean_shift_loglik - ar1_loglik); may overflow to inf for
    extreme evidence, so downstream odds calculations work on the log scale.
    """
    return float(np.exp(log_conditional_bayes_factor(series, params, shift_var)))


def cdf_standardize(panel: SeriesPanel) -> SeriesPanel:
    """Pooled rank-based transform of all panel values to standard normal scores.

    All observations are pooled, ranked with average ranks for ties, mapped
    to (rank - 0.5) / n, and passed through the standard normal quantile
    function. The transform is rank-preserving and invariant under strictly
    increasing transformations of the raw values, and never produces
    infinities since (rank - 0.5) / n stays inside (0, 1).
    """
    if len(panel) == 0:
        return panel
    pooled = np.concatenate([s.values for s in panel])
    ranks = rankdata(pooled, method="average")
    scores = ndtri((ranks - 0.5) / pooled.size)
    out = []
    pos = 0
    for s in panel:
        n = len(s)
        out.append(ObservedSeries(s.unit_id, s.times, scores[pos:pos + n]))
        pos += n
    return SeriesPanel(tuple(out), min_length=panel.min_length)


# --- grouped panel representation for vectorized likelihood work ---


@dataclass
class TimesGroup:
    """Units sharing one observation-time vector, stacked for vectorized whitening."""

    indices: np.ndarray      # positions in panel order
    times: np.ndarray        # shared times, shape (T,)
    values: np.ndarray       # stacked observations, shape (n, T)
    gaps: GapTable           # gap table of the shared times
    grid_pos: np.ndarray | None = None   # positions of times within a global grid
    unit_ids: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return int(self.indices.size)

    @property
    def length(self) -> int:
        return int(self.times.size)

    @property
    def contiguous(self) -> bool:
        """True when the shared times are consecutive integers."""
        return self.gaps.sizes in ((), (1,))


def panel_groups(panel: SeriesPanel, grid: np.ndarray | None = None) -> list[TimesGroup]:
    """Group panel units by their observation-time vectors.

    When ``grid`` is given, each group's times must be a subset of it and
    the positions are cached for restricting grid-valued trajectories.
    """
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, s in enumerate(panel):
        buckets.setdefault(tuple(int(t) for t in s.times), []).append(i)
    groups = []
    for key, idx in buckets.items():
        times = np.asarray(key, dtype=np.int64)
        values = np.vstack([panel[i].values for i in idx])
        pos = None
        if grid is not None:
            pos = np.searchsorted(grid, times)
            if np.any(pos >= grid.size) or np.any(grid[np.minimum(pos, grid.size - 1)] != times):
                bad = panel[idx[0]].unit_id
                raise InvalidInputError(f"unit {bad!r} has times outside the trajectory grid")
        ids = tuple(panel[i].unit_id for i in idx)
        groups.append(TimesGroup(np.asarray(idx, dtype=np.int64), times, values, gap_table(times), pos, ids))
    return groups


def group_gaussian_parts(group: TimesGroup, params: ArParams,
                         values: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``gaussian_parts`` for a whole group at once (optionally overriding values)."""
    v = group.values if values is None else values
    return gaussian_parts(v, group.gaps, params)


def group_whiten(group: TimesGroup, params: ArParams,
                 values: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Whitened rows and covariance log-determinant for a group."""
    v = group.values if values is None else values
    return _whiten(v, group.gaps, params)


def ar1_precision(params: ArParams, gaps: GapTable) -> np.ndarray:
    """Inverse of the stationary AR(1) covariance over times with gap table ``gaps``.

    The observed series is Markov, so the precision is tridiagonal in closed
    form (Rue & Held 2005). With coefficient a and innovation variance w of
    a step, the step's off-diagonal entry is -a / w; a diagonal entry is
    1 / w of the step into it plus a^2 / w of the step out of it, and the
    first entry is 1 / w of the first step.
    """
    T = gaps.step.size + 1
    if T == 1:
        return np.array([[1.0 / stationary_variance(params)]])
    coef, ratio = _gap_coefficients(params, gaps.sizes)
    inv_r = np.take([1.0 / r for r in ratio], gaps.step)
    diag = np.empty(T)
    diag[0] = inv_r[0]
    diag[1:] = inv_r
    diag[1:-1] += np.take([c * c / r for c, r in zip(coef, ratio)], gaps.step[1:])
    off = -np.take([c / r for c, r in zip(coef, ratio)], gaps.step) / params.v
    Q = np.zeros((T, T))
    Q[np.arange(T), np.arange(T)] = diag / params.v
    Q[np.arange(T - 1), np.arange(1, T)] = off
    Q[np.arange(1, T), np.arange(T - 1)] = off
    return Q
