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

The log-likelihood under any (phi, v) depends on a unit only through a
few lag statistics per distinct gap: the first value and its square, and
over the steps of each gap the sums of the step difference, of the
previous value, and of their squares and product. A ``StepTable`` holds
a whole panel flat: every observation with its unit, and every step with
its gap, whatever each unit's time pattern. ``lag_stats`` sums over its
steps; ``LagStats`` then turns the sums into the log-likelihood of every
unit under every parameter pair with one (units x statistics) by
(statistics x pairs) matrix product, and into the mean-shift quadratic
forms with products of the same kind. Statistics add across units,
so a pooled row scores a whole cluster in O(number of gaps).
``step_precision`` gives the entries of every unit's tridiagonal precision
at once, for the terms that involve other paths than the data.

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


def _gap_coefficients(phi, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct gap d: the transition coefficient phi^d and the ratio
    (1 - phi^(2d)) / (1 - phi^2) of the d-step innovation variance to v,
    which is exactly 1 for d = 1.

    ``phi`` is a scalar or an array; both results have its shape plus a
    trailing axis over ``sizes``.
    """
    phi = np.asarray(phi, dtype=float)[..., None]
    coef = phi ** np.asarray(sizes, dtype=float)
    return coef, (1.0 - coef * coef) / (1.0 - phi * phi)


def _whiten(values: np.ndarray, gaps: GapTable, params: ArParams) -> tuple[np.ndarray, float]:
    """Whiten rows of ``values`` (shape (n, T)) under the AR(1) covariance.

    Returns (E, logdet) with E @ E.T summing to the quadratic forms:
    each row e satisfies e.e = y' Sigma^{-1} y, and logdet = log|Sigma|.
    O(T) per row: each step is standardized by its prediction error across
    its gap.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    s = stationary_variance(params)
    coef, ratio = _gap_coefficients(params.phi, gaps.sizes)
    innov_var = params.v * ratio
    logdet = float(np.log(s) + np.dot(gaps.counts, np.log(innov_var)))
    if coef.size == 1:
        coef, innov_var = float(coef[0]), float(innov_var[0])
    else:
        coef, innov_var = coef[gaps.step], innov_var[gaps.step]
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


# --- panel representations for vectorized likelihood work ---


@dataclass
class TimesGroup:
    """Units sharing one observation-time vector, stacked for vectorized whitening."""

    indices: np.ndarray      # positions in panel order
    values: np.ndarray       # stacked observations, shape (n, T)
    gaps: GapTable           # gap table of the shared times

    @property
    def n(self) -> int:
        return int(self.indices.size)

    @property
    def contiguous(self) -> bool:
        """True when the shared times are consecutive integers."""
        return self.gaps.sizes in ((), (1,))


def panel_groups(panel: SeriesPanel) -> list[TimesGroup]:
    """Group panel units by their observation-time vectors."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, s in enumerate(panel):
        buckets.setdefault(tuple(int(t) for t in s.times), []).append(i)
    groups = []
    for key, idx in buckets.items():
        times = np.asarray(key, dtype=np.int64)
        values = np.vstack([panel[i].values for i in idx])
        groups.append(TimesGroup(np.asarray(idx, dtype=np.int64), values, gap_table(times)))
    return groups


def group_gaussian_parts(group: TimesGroup, params: ArParams) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``gaussian_parts`` for a whole group at once."""
    return gaussian_parts(group.values, group.gaps, params)


def group_whiten(group: TimesGroup, params: ArParams) -> tuple[np.ndarray, float]:
    """Whitened rows and covariance log-determinant for a group."""
    return _whiten(group.values, group.gaps, params)


@dataclass(frozen=True)
class StepTable:
    """Every observation of a panel in one flat array, unit by unit in panel
    order, with the steps between them. A step joins an observation to the
    one before it in the same unit: its later observation is ``later`` and
    its earlier one ``later - 1``.
    """

    unit_ids: tuple[str, ...]
    values: np.ndarray        # (n_obs,) observations
    unit: np.ndarray          # (n_obs,) unit index of each observation
    first: np.ndarray         # (N,) index of each unit's first observation
    sizes: tuple[int, ...]    # panel-wide distinct gaps, ascending
    later: np.ndarray         # (n_steps,) later observation of each step
    gap: np.ndarray           # (n_steps,) index of each step's gap into ``sizes``
    pos: np.ndarray | None = None     # (n_obs,) grid position of each observation
    pairs: np.ndarray | None = None   # (P, 2) distinct grid-position pairs of steps
    pair: np.ndarray | None = None    # (n_steps,) index of each step into ``pairs``

    @property
    def n_units(self) -> int:
        return int(self.first.size)


def step_table(panel: SeriesPanel, grid: np.ndarray | None = None) -> StepTable:
    """Flat step table of a panel; with ``grid``, every time must lie on it."""
    lengths = np.array([len(s) for s in panel], dtype=np.int64)
    times = np.concatenate([s.times for s in panel] + [np.empty(0, dtype=np.int64)])
    values = np.concatenate([s.values for s in panel] + [np.empty(0)])
    unit = np.repeat(np.arange(lengths.size), lengths)
    first = np.cumsum(lengths) - lengths
    is_later = np.ones(times.size, dtype=bool)
    is_later[first] = False
    later = np.flatnonzero(is_later)
    sizes, gap = np.unique(times[later] - times[later - 1], return_inverse=True)
    pos = pairs = pair = None
    if grid is not None:
        pos = np.searchsorted(grid, times)
        off = (pos >= grid.size) | (grid[np.minimum(pos, grid.size - 1)] != times)
        if np.any(off):
            bad = panel[int(unit[np.argmax(off)])].unit_id
            raise InvalidInputError(f"unit {bad!r} has times outside the trajectory grid")
        keys, pair = np.unique(pos[later - 1] * grid.size + pos[later], return_inverse=True)
        pairs = np.column_stack(np.divmod(keys, grid.size))
    return StepTable(panel.unit_ids, values, unit, first, tuple(sizes.tolist()), later, gap,
                     pos, pairs, pair)


# --- lag statistics: every unit reduced to a few sums per distinct gap ---


@dataclass(frozen=True)
class LagStats:
    """AR(1) sufficient statistics of a set of rows (units, or pooled units).

    With D panel-wide distinct gaps ``sizes``, first value y0, and over the
    steps of gap d the differences e = y_t - y_{t-1} and previous values
    p = y_{t-1}, the columns are

    - ``terms`` (rows, 2 + 4D): units, steps per gap, y0^2, sum e^2 per gap,
      sum e p per gap, sum p^2 per gap: everything the log-likelihood reads;
    - ``linear`` (rows, 1 + 2D): y0, sum e per gap, sum p per gap, which
      q_y1 adds.

    The quadratic form across a gap with coefficient a is
    sum (y_t - a y_{t-1})^2 = sum e^2 + 2 (1 - a) sum e p + (1 - a)^2 sum p^2;
    in differences it stays accurate as phi^d approaches 1. Every column is
    a sum over units, so rows of several units add into one pooled row.
    """

    sizes: tuple[int, ...]
    terms: np.ndarray
    linear: np.ndarray

    def __getitem__(self, rows) -> "LagStats":
        return LagStats(self.sizes, self.terms[rows], self.linear[rows])

    @property
    def length(self) -> np.ndarray:
        """Observations per row."""
        return self.terms[..., :1 + len(self.sizes)].sum(axis=-1)

    def pool(self, labels: np.ndarray, size: int) -> "LagStats":
        """Rows summed within each label: row k pools the rows labelled k."""
        terms = np.zeros((size, self.terms.shape[1]))
        linear = np.zeros((size, self.linear.shape[1]))
        np.add.at(terms, labels, self.terms)
        np.add.at(linear, labels, self.linear)
        return LagStats(self.sizes, terms, linear)

    def loglik(self, phi, v) -> np.ndarray:
        """Null AR(1) log-likelihood of every row under every (phi, v) pair.

        Scalars give one value per row; 1-d arrays of L pairs give a
        (rows, L) matrix from one matrix product.
        """
        logdet, q_yy, _, _ = _lag_coefficients(phi, v, self.sizes)
        coef = -0.5 * np.concatenate([LOG_2PI + logdet, q_yy], axis=-1)
        return self.terms @ coef.T

    def gaussian_parts(self, phi, v) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-row (q_yy, q_y1, s11, logdet), as ``gaussian_parts`` returns
        them for rows observed at their own times. As in ``loglik``, scalars
        give one value per row and 1-d arrays of L pairs (rows, L) matrices."""
        logdet, q_yy, s11, q_y1 = _lag_coefficients(phi, v, self.sizes)
        k = 1 + len(self.sizes)
        counts, quad = self.terms[..., :k], self.terms[..., k:]
        return quad @ q_yy.T, self.linear @ q_y1.T, counts @ s11.T, counts @ logdet.T


def _lag_coefficients(phi, v, sizes):
    """Weights that turn lag statistics into the Gaussian parts under (phi, v).

    ``phi`` and ``v`` are scalars or equal-length 1-d arrays; each result
    has a trailing axis over statistic columns. With s = v / (1 - phi^2),
    a = phi^d, b = 1 - a and w = 1 / (v r_d) per gap, returns the weights of
    logdet and s11 on (units, steps), of q_yy on (y0^2, e^2, e p, p^2) and of
    q_y1 on (y0, e, p).
    """
    a, ratio = _gap_coefficients(phi, sizes)
    v = np.asarray(v, dtype=float)[..., None]
    phi = np.asarray(phi, dtype=float)[..., None]
    inv_s = (1.0 - phi * phi) / v
    w = 1.0 / (v * ratio)
    b = 1.0 - a
    bw, bbw = b * w, b * b * w
    logdet = np.concatenate([-np.log(inv_s), -np.log(w)], axis=-1)
    q_yy = np.concatenate([inv_s, w, 2.0 * bw, bbw], axis=-1)
    s11 = np.concatenate([inv_s, bbw], axis=-1)
    q_y1 = np.concatenate([inv_s, bw, bbw], axis=-1)
    return logdet, q_yy, s11, q_y1


def lag_stats(table: StepTable, values: np.ndarray | None = None) -> LagStats:
    """Lag statistics of every unit in ``table``, one row per unit in panel order.

    ``values`` optionally overrides the observations (the joint sampler
    passes de-trended values). Overflow is left to show as non-finite
    statistics, which the callers' likelihood checks name.
    """
    y = table.values if values is None else values
    N, D = table.n_units, len(table.sizes)
    step_key = table.unit[table.later] * D + table.gap

    def per_gap(weights=None):
        return np.bincount(step_key, weights, minlength=N * D).reshape(N, D)

    with np.errstate(over="ignore", invalid="ignore"):
        prev = y[table.later - 1]
        diff = y[table.later] - prev
        y0 = y[table.first]
        terms = np.column_stack([np.ones(N), per_gap(), y0 * y0, per_gap(diff * diff),
                                 per_gap(diff * prev), per_gap(prev * prev)])
        linear = np.column_stack([y0, per_gap(diff), per_gap(prev)])
    return LagStats(table.sizes, terms, linear)


def step_precision(table: StepTable, phi: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of every unit's AR(1) precision under its own (phi, v), given
    one value each per unit: the diagonal at each observation and the
    off-diagonal at each step.

    The observed series is Markov, so the precision is tridiagonal in closed
    form (Rue & Held 2005). With coefficient a and innovation variance w of
    a step, the step's off-diagonal entry is -a / w; a diagonal entry is
    1 / w of the step into it (1 / s for a unit's first observation) plus
    a^2 / w of the step out of it.
    """
    coef, ratio = _gap_coefficients(phi, table.sizes)
    u = table.unit[table.later]
    a = coef[u, table.gap]
    inv_w = 1.0 / (v[u] * ratio[u, table.gap])
    diag = np.zeros(table.values.size)
    diag[table.first] = (1.0 - phi * phi) / v
    diag[table.later] += inv_w
    diag[table.later - 1] += a * a * inv_w
    return diag, -a * inv_w


def ar1_precision(params: ArParams, gaps: GapTable) -> np.ndarray:
    """Inverse of the stationary AR(1) covariance over times with gap table
    ``gaps``: the tridiagonal of ``step_precision`` for one unit."""
    T = gaps.step.size + 1
    one_unit = StepTable(("",), np.zeros(T), np.zeros(T, dtype=np.int64), np.zeros(1, dtype=np.int64),
                         gaps.sizes, np.arange(1, T), gaps.step)
    diag, off = step_precision(one_unit, np.array([params.phi]), np.array([params.v]))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
