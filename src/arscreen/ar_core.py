"""Core types and exact Gaussian numerics for panels of stationary AR(1) series.

A unit's observations on integer times t_1 < ... < t_T are modeled as a
zero-mean stationary AR(1) with autoregressive coefficient phi (|phi| < 1)
and innovation variance v, so the covariance between observations at t_i
and t_j is v / (1 - phi^2) * phi^(|t_i - t_j|). The observed series is
Markov whatever its gaps (Jones 1980): across a gap of d steps the
transition coefficient is phi^d and the innovation variance is
v (1 - phi^(2d)) / (1 - phi^2).

The log-likelihood under any (phi, v) therefore depends on a unit only
through a few lag statistics per distinct gap: the first value and its
square, and over the steps of each gap the sums of the step difference,
of the previous value, and of their squares and product. A ``SeriesPanel``
is one flat table of observations, unit after unit; its ``StepTable`` adds
every observation's unit and every step with its gap, whatever each unit's
time pattern. ``lag_stats`` sums over its steps; ``LagStats`` then turns
the sums into the log-likelihood of every unit under every parameter pair
with one (units x statistics) by (statistics x pairs) matrix product, and
into the mean-shift quadratic forms with products of the same kind. Statistics add across units, so a
pooled row scores a whole cluster, and ``ar1_loglik`` one series, in
O(number of gaps).
``step_precision`` gives the entries of every unit's tridiagonal precision
at once, for the terms that involve other paths than the data.

A constant mean shift with prior N(0, shift_var) can be integrated out in
closed form, which yields the conditional Bayes factor used by both the
parametric and nonparametric screens.
Whitening over a ``GapTable`` and ``TimesGroup`` remain only for the
benchmark's per-layer probes; no command calls them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        if not (times[1:] > times[:-1]).all():
            raise InvalidInputError(f"unit {self.unit_id!r}: times must be strictly increasing")
        if not np.isfinite(values).all():
            raise InvalidInputError(f"unit {self.unit_id!r}: values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def _checked(cls, unit_id: str, times: np.ndarray, values: np.ndarray) -> "ObservedSeries":
        """A series from int64 ``times`` and float ``values`` that its caller
        has already checked as ``__post_init__`` would."""
        series = object.__new__(cls)
        object.__setattr__(series, "unit_id", unit_id)
        object.__setattr__(series, "times", times)
        object.__setattr__(series, "values", values)
        return series


class SeriesPanel(Sequence):
    """A panel of series with unique unit ids, each at least ``min_length``
    long, held as one flat table: unit k is ``unit_ids[k]`` with the rows
    ``bounds[k]:bounds[k + 1]`` of int64 ``times``, strictly increasing
    within a unit, and of finite float ``values``. Indexing and iteration
    hand out the ``ObservedSeries`` views of ``series``."""

    def __init__(self, series=(), min_length: int = 1):
        series = tuple(series)
        self._validate(tuple(s.unit_id for s in series), np.cumsum([0] + [len(s) for s in series]),
                       np.concatenate([s.times for s in series] + [np.empty(0, dtype=np.int64)]),
                       np.concatenate([s.values for s in series] + [np.empty(0)]), min_length)

    @classmethod
    def from_flat(cls, unit_ids: tuple[str, ...], bounds: np.ndarray, times: np.ndarray,
                  values: np.ndarray, min_length: int = 1) -> "SeriesPanel":
        """The panel of the flat table ``unit_ids``, ``bounds``, ``times`` and
        ``values``, checked as the series constructor checks it."""
        panel = object.__new__(cls)
        panel._validate(tuple(unit_ids), bounds, times, values, min_length)
        return panel

    def _validate(self, unit_ids, bounds, times, values, min_length) -> None:
        """Check the flat table once and keep it. The first unit, in order,
        that is empty, has a time not above the one before it or has a
        non-finite value raises what its ``ObservedSeries`` raises; then
        duplicate ids are named; then the first unit below ``min_length``."""
        lengths = np.diff(bounds)
        unit = np.repeat(np.arange(lengths.size), lengths)
        failing = np.concatenate([np.flatnonzero(lengths == 0), unit[~np.isfinite(values)],
                                  unit[1:][(unit[1:] == unit[:-1]) & (times[1:] <= times[:-1])]])
        if failing.size:
            k = int(failing.min())
            ObservedSeries(unit_ids[k], times[bounds[k]:bounds[k + 1]], values[bounds[k]:bounds[k + 1]])
        dupes = sorted(u for u, c in Counter(unit_ids).items() if c > 1)
        if dupes:
            raise InvalidInputError(f"duplicate unit ids in panel: {dupes[:5]}")
        short = np.flatnonzero(lengths < min_length)
        if short.size:
            k = int(short[0])
            raise InvalidInputError(f"unit {unit_ids[k]!r} has {int(lengths[k])} observations, "
                                    f"fewer than min_length={min_length}")
        self.unit_ids, self.bounds, self.times, self.values = unit_ids, bounds, times, values
        self.min_length = min_length

    def __len__(self) -> int:
        return len(self.unit_ids)

    def __getitem__(self, k: int) -> ObservedSeries:
        return self.series[k]

    @cached_property
    def series(self) -> tuple[ObservedSeries, ...]:
        """Each unit's ``ObservedSeries`` view, one object per unit, built on first use."""
        cuts = self.bounds[1:-1]
        return tuple(map(ObservedSeries._checked, self.unit_ids, np.split(self.times, cuts),
                         np.split(self.values, cuts)))

    @cached_property
    def grid(self) -> np.ndarray:
        """Every distinct time of the panel, ascending: the trajectory grid.
        Sorted and masked rather than ``np.unique``d, which would load
        ``numpy.ma`` in the command that first calls it."""
        times = np.sort(self.times)
        distinct = np.empty(times.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(times[1:], times[:-1], out=distinct[1:])
        return times[distinct]

    @cached_property
    def stats(self) -> LagStats:
        """Lag statistics of the panel's ``step_table``, built on first use:
        every reader of the same panel shares them."""
        return step_table(self).stats


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
    E = np.empty_like(values)
    E[:, 0] = values[:, 0] / np.sqrt(s)
    E[:, 1:] = (values[:, 1:] - coef[gaps.step] * values[:, :-1]) / np.sqrt(innov_var[gaps.step])
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
    return float(SeriesPanel((series,)).stats.loglik(params.phi, params.v)[0])


def log_shift_bayes_factor(q_y1, s11, shift_var: float):
    """Log Bayes factor of a constant N(0, shift_var) mean shift against none, from
    q_y1 = y' Sigma^{-1} 1 and s11 = 1' Sigma^{-1} 1 (elementwise over arrays), by
    Sherman-Morrison and the matrix determinant lemma on Sigma + shift_var * 11'."""
    denom = 1.0 + shift_var * s11
    return -0.5 * np.log(denom) + 0.5 * shift_var * q_y1 ** 2 / denom


def mean_shift_loglik(series: ObservedSeries, params: ArParams, shift_var: float) -> float:
    """Marginal log-likelihood with a constant mean shift N(0, shift_var) integrated out."""
    if shift_var < 0.0:
        raise DomainError(f"shift variance must be nonnegative, got {shift_var}")
    return ar1_loglik(series, params) + log_conditional_bayes_factor(series, params, shift_var)


def log_conditional_bayes_factor(series: ObservedSeries, params: ArParams, shift_var: float) -> float:
    """Log Bayes factor of the mean-shift alternative against the AR(1) null."""
    q_y1, s11 = SeriesPanel((series,)).stats.shift_parts(params.phi, params.v)
    return float(log_shift_bayes_factor(q_y1[0], s11[0], shift_var))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, tied values sharing the mean of their ranks.

    A stable sort puts each run of equal values together; a run starting
    at sorted position i (0-based) with c members gets rank i + 1 + (c - 1) / 2.
    """
    order = np.argsort(x, kind="stable")
    y = x[order]
    start = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    counts = np.diff(np.append(start, y.size))
    ranks = np.empty(y.size)
    ranks[order] = np.repeat(start + 1.0 + (counts - 1) / 2, counts)
    return ranks


# Wichura's (1988, *Applied Statistics*, AS241) PPND16 coefficients, highest
# power first, as CPython's statistics.NormalDist.inv_cdf writes them: the
# central region |p - 0.5| <= 0.425, then the tail with r = sqrt(-log(min(p,
# 1 - p))) at most 5, then the far tail.
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)),
    ((2.0103343992922881326e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
)


def _horner(coefs, r: np.ndarray) -> np.ndarray:
    out = np.full_like(r, coefs[0])
    for c in coefs[1:]:
        out = out * r + c
    return out


def ndtri(p) -> np.ndarray:
    """Standard normal quantile of each p in (0, 1), by AS241 with the
    operations of CPython's ``statistics.NormalDist.inv_cdf`` in its order."""
    shape = np.shape(p)
    p = np.asarray(p, dtype=float).reshape(-1)
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    t = 0.180625 - qc * qc
    (num, den), near, far = _AS241
    x[central] = _horner(num, t) * qc / _horner(den, t)
    tail = np.flatnonzero(~central)
    r = np.sqrt(-np.log(np.where(q[tail] <= 0.0, p[tail], 1.0 - p[tail])))
    for (num, den), rows, t in ((near, r <= 5.0, r - 1.6), (far, r > 5.0, r - 5.0)):
        x[tail[rows]] = _horner(num, t[rows]) / _horner(den, t[rows])
    x[tail] = np.copysign(x[tail], q[tail])
    return x.reshape(shape)


def cdf_standardize(panel: SeriesPanel) -> SeriesPanel:
    """Pooled rank-based transform of all panel values to standard normal scores.

    All observations are pooled, ranked with average ranks for ties, mapped
    to (rank - 0.5) / n, and passed through the standard normal quantile
    function. The transform is rank-preserving and invariant under strictly
    increasing transformations of the raw values, and never produces
    infinities since (rank - 0.5) / n stays inside (0, 1).
    """
    scores = ndtri((_average_ranks(panel.values) - 0.5) / panel.values.size)
    return SeriesPanel.from_flat(panel.unit_ids, panel.bounds, panel.times, scores,
                                 min_length=panel.min_length)


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
    buckets: dict[bytes, list[int]] = {}
    for i, s in enumerate(panel):
        buckets.setdefault(s.times.tobytes(), []).append(i)
    return [TimesGroup(np.asarray(idx, dtype=np.int64), np.vstack([panel[i].values for i in idx]),
                       gap_table(panel[idx[0]].times)) for idx in buckets.values()]


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
    one before it in the same unit: its later observation is ``later``, its
    earlier one ``earlier`` (``later - 1``) and its unit ``step_unit``, each
    kept once so that no sweep recomputes them.
    """

    unit_ids: tuple[str, ...]
    values: np.ndarray        # (n_obs,) observations
    unit: np.ndarray          # (n_obs,) unit index of each observation
    first: np.ndarray         # (N,) index of each unit's first observation
    sizes: tuple[int, ...]    # panel-wide distinct gaps, ascending
    later: np.ndarray         # (n_steps,) later observation of each step
    earlier: np.ndarray       # (n_steps,) earlier observation of each step, later - 1
    step_unit: np.ndarray     # (n_steps,) unit index of each step
    gap: np.ndarray           # (n_steps,) index of each step's gap into ``sizes``
    pos: np.ndarray | None = None     # (n_obs,) grid position of each observation
    pairs: np.ndarray | None = None   # (P, 2) distinct grid-position pairs of steps
    pair: np.ndarray | None = None    # (n_steps,) index of each step into ``pairs``

    @property
    def n_units(self) -> int:
        return int(self.first.size)

    @cached_property
    def stats(self) -> "LagStats":
        """Lag statistics of the observed values, built on first use: the
        values never change, so every sweep of a chain reads the same ones."""
        return lag_stats(self)

    @cached_property
    def obs_gap(self) -> np.ndarray:
        """(n_obs,) the gap of the step into each observation, as an index
        into ``sizes``, and D at each unit's first observation: the column
        ``step_precision`` reads each observation's entries from; built on
        first use."""
        gap = np.full(self.values.size, len(self.sizes), dtype=np.int64)
        gap[self.later] = self.gap
        return gap


def step_table(panel: SeriesPanel, grid: np.ndarray | None = None) -> StepTable:
    """Flat step table of a panel; with ``grid``, every time must lie on it."""
    times, first, lengths = panel.times, panel.bounds[:-1], np.diff(panel.bounds)
    unit = np.repeat(np.arange(lengths.size), lengths)
    later = np.flatnonzero(unit[1:] == unit[:-1]) + 1
    earlier = later - 1
    sizes, gap = np.unique(times[later] - times[earlier], return_inverse=True)
    pos = pairs = pair = None
    if grid is not None:
        pos = np.searchsorted(grid, times)
        off = (pos >= grid.size) | (grid[np.minimum(pos, grid.size - 1)] != times)
        if np.any(off):
            bad = panel.unit_ids[unit[np.argmax(off)]]
            raise InvalidInputError(f"unit {bad!r} has times outside the trajectory grid")
        keys, pair = np.unique(pos[earlier] * grid.size + pos[later], return_inverse=True)
        pairs = np.column_stack(np.divmod(keys, grid.size))
    return StepTable(panel.unit_ids, panel.values, unit, first, tuple(sizes.tolist()), later, earlier,
                     unit[later], gap, pos, pairs, pair)


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
        """Rows summed within each label: row k pools the rows labelled k,
        adding them in row order, in one ``np.bincount`` over (label, column)
        bins."""
        cols = np.hstack([self.terms, self.linear])
        width = cols.shape[1]
        bins = (labels[:, None] * width + np.arange(width)).ravel()
        sums = np.bincount(bins, cols.ravel(), minlength=size * width).reshape(size, width)
        k = self.terms.shape[1]
        return LagStats(self.sizes, sums[:, :k], sums[:, k:])

    @cached_property
    def total(self) -> "LagStats":
        """Every row pooled into one (``pool`` with one label), built on first
        use: the null log-likelihood summed over the rows is this row's, at
        O(D) per (phi, v) pair."""
        return self.pool(np.zeros(len(self.terms), dtype=np.int64), 1)

    def loglik(self, phi, v) -> np.ndarray:
        """Null AR(1) log-likelihood of every row under every (phi, v) pair.

        Scalars give one value per row; 1-d arrays of L pairs give a
        (rows, L) matrix from one matrix product.
        """
        logdet, q_yy, _, _ = _lag_coefficients(phi, v, self.sizes)
        return self.terms @ _loglik_weights(logdet, q_yy).T

    def shift_parts(self, phi, v) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (q_y1, s11), the two of ``gaussian_parts``' results that a
        mean shift reads, for rows observed at their own times. As in
        ``loglik``, scalars give one value per row and 1-d arrays of L pairs
        (rows, L) matrices."""
        _, _, s11, q_y1 = _lag_coefficients(phi, v, self.sizes)
        return self.linear @ q_y1.T, self.terms[..., :1 + len(self.sizes)] @ s11.T


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


def _loglik_weights(logdet: np.ndarray, q_yy: np.ndarray) -> np.ndarray:
    """Weights of the null log-likelihood on the ``terms`` columns, from the
    ``_lag_coefficients`` weights of logdet and q_yy."""
    return -0.5 * np.concatenate([LOG_2PI + logdet, q_yy], axis=-1)


def _lag_coefficient_slopes(phi, v, sizes):
    """Derivatives of the ``_lag_coefficients`` weights in atanh phi, with the
    same shapes: ``phi`` and ``v`` are scalars or equal-length 1-d arrays of
    pairs, and each result has a trailing axis over statistic columns.
    (Every weight but logdet's is linear in 1 / v, so its derivative in
    log v is minus itself; logdet's weights gain 1.)

    With c = 1 - phi^2 = dphi / d atanh phi, per gap d: a' = d phi^(d-1) c,
    inv_s' = -2 phi inv_s, and since r_d = (1 - phi^(2d)) / c is the sum of
    phi^(2j) over j < d, (log r_d)' = 2 phi - 2 d phi^(2d-1) / r_d and
    w' = -w (log r_d)'. No term divides by c, so the slopes stay finite as
    |phi| approaches 1. Every operation is elementwise, so a pair's slopes
    do not depend on the other pairs it is stacked with.
    """
    d = np.asarray(sizes, dtype=float)
    a, ratio = _gap_coefficients(phi, sizes)
    phi = np.asarray(phi, dtype=float)[..., None]
    v = np.asarray(v, dtype=float)[..., None]
    c = 1.0 - phi * phi
    inv_s = c / v
    w = 1.0 / (v * ratio)
    b = 1.0 - a
    lead = phi ** (d - 1.0)
    da = d * lead * c
    dlog_r = 2.0 * phi - 2.0 * d * a * lead / ratio
    dw = -w * dlog_r
    dinv_s = -2.0 * phi * inv_s
    dbw = -da * w + b * dw
    dbbw = -2.0 * b * da * w + b * b * dw
    logdet = np.concatenate([2.0 * phi, dlog_r], axis=-1)
    q_yy = np.concatenate([dinv_s, dw, 2.0 * dbw, dbbw], axis=-1)
    s11 = np.concatenate([dinv_s, dbbw], axis=-1)
    q_y1 = np.concatenate([dinv_s, dbw, dbbw], axis=-1)
    return logdet, q_yy, s11, q_y1


def lag_stats(table: StepTable, values: np.ndarray | None = None) -> LagStats:
    """Lag statistics of every unit in ``table``, one row per unit in panel order.

    ``values`` optionally overrides the observations (the joint sampler
    passes de-trended values). Overflow is left to show as non-finite
    statistics, which the callers' likelihood checks name.
    """
    y = table.values if values is None else values
    N, D = table.n_units, len(table.sizes)
    step_key = table.step_unit * D + table.gap

    def per_gap(weights=None):
        return np.bincount(step_key, weights, minlength=N * D).reshape(N, D)

    terms, linear = np.empty((N, 2 + 4 * D)), np.empty((N, 1 + 2 * D))
    if values is None:
        terms[:, 0] = 1.0
        terms[:, 1:1 + D] = per_gap()
    else:       # units and steps per gap depend on the table only
        terms[:, :1 + D] = table.stats.terms[:, :1 + D]
    with np.errstate(over="ignore", invalid="ignore"):
        prev = y[table.earlier]
        diff = y[table.later] - prev
        y0 = y[table.first]
        terms[:, 1 + D] = y0 * y0
        for k, w in enumerate((diff * diff, diff * prev, prev * prev)):
            terms[:, 2 + (k + 1) * D:2 + (k + 2) * D] = per_gap(w)
        linear[:, 0] = y0
        linear[:, 1:1 + D], linear[:, 1 + D:] = per_gap(diff), per_gap(prev)
    return LagStats(table.sizes, terms, linear)


def step_precision(table: StepTable, phi: np.ndarray, v: np.ndarray,
                   atom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of every unit's AR(1) precision under its atom's (phi, v),
    given L atoms' ``phi`` and ``v`` and each unit's ``atom``: the diagonal
    at each observation and the off-diagonal at each step.

    The observed series is Markov, so the precision is tridiagonal in closed
    form (Rue & Held 2005). With coefficient a and innovation variance w of
    a step, the step's off-diagonal entry is -a / w; a diagonal entry is
    1 / w of the step into it (1 / s for a unit's first observation) plus
    a^2 / w of the step out of it. Each entry is evaluated once per atom
    and gap, in (L, D + 1) tables whose last column serves a unit's first
    observation, and each observation gathers its entries from them by its
    unit's atom and ``StepTable.obs_gap`` (``_precision_entries``).
    """
    diag, off = _precision_entries(table, phi, v, atom)
    return diag, off[table.later]


def _precision_entries(table: StepTable, phi: np.ndarray, v: np.ndarray,
                       atom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``step_precision``'s diagonal, and at each observation the entry of
    the step into it, 0 at a unit's first observation. Every step joins
    observation i - 1 to i (``earlier = later - 1``), so the term out of
    observation i is the one gathered at i + 1 (0 there when i ends its
    unit), added to the term into i in one shifted-slice add. The terms are
    positive, so this is the sum a ``bincount`` of them forms, bit for bit
    (``tests/oracles.step_precision_bincount``)."""
    coef, ratio = _gap_coefficients(phi, table.sizes)
    inv_w = 1.0 / (v[:, None] * ratio)
    first, none = ((1.0 - phi * phi) / v)[:, None], np.zeros((phi.size, 1))
    cell = atom[table.unit] * (len(table.sizes) + 1) + table.obs_gap
    diag = np.hstack([inv_w, first]).ravel()[cell]
    out = np.hstack([coef * coef * inv_w, none]).ravel()[cell]
    np.add(diag[:-1], out[1:], out=diag[:-1])
    return diag, np.hstack([-coef * inv_w, none]).ravel()[cell]


def ar1_precision(params: ArParams, gaps: GapTable) -> np.ndarray:
    """Inverse of the stationary AR(1) covariance over times with gap table
    ``gaps``: the tridiagonal of ``step_precision`` for one unit."""
    T = gaps.step.size + 1
    zeros = np.zeros(T, dtype=np.int64)
    one_unit = StepTable(("",), np.zeros(T), zeros, zeros[:1], gaps.sizes, np.arange(1, T),
                         np.arange(T - 1), zeros[1:], gaps.step)
    diag, off = step_precision(one_unit, np.array([params.phi]), np.array([params.v]), zeros[:1])
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
